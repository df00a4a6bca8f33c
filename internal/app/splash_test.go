package app

import "testing"

// memLoop is the per-access cache model kernelCost.mem computes in closed
// form: every missEvery-th access misses to the bus, the rest hit in L1.
func memLoop(kc *kernelCost, n int) {
	for i := 0; i < n; i++ {
		kc.access++
		if kc.access%missEvery == 0 {
			kc.pending += missCost
		} else {
			kc.half += hitHalf
		}
	}
}

// kernelCost.mem matches the per-access loop from every start offset in two
// miss periods, for every run length up to four periods.
func TestKernelCostMemMatchesPerAccessLoop(t *testing.T) {
	for start := 0; start < 2*missEvery; start++ {
		for n := 0; n <= 64; n++ {
			got := kernelCost{access: start, pending: 7, half: 3}
			want := got
			got.mem(n)
			memLoop(&want, n)
			if got != want {
				t.Fatalf("mem(%d) from access %d: got %+v, want %+v", n, start, got, want)
			}
		}
	}
}
