package app

import (
	"testing"

	"deltartos/internal/det"
)

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

// A kernel loop charges its totals in one call, so the charge must not
// depend on how the accesses and ops are split between calls: from every
// start offset in two miss periods, n accesses split into seeded random
// runs leave the same kernelCost as one mem(n), and op and fop add up.
func TestKernelCostSplitsAddUp(t *testing.T) {
	rng := det.New(5)
	for start := 0; start < 2*missEvery; start++ {
		for n := 0; n <= 96; n++ {
			want := kernelCost{access: start, pending: 7, half: 3}
			want.mem(n)
			want.op(n)
			want.fop(n)
			for trial := 0; trial < 8; trial++ {
				got := kernelCost{access: start, pending: 7, half: 3}
				for left := n; left > 0; {
					run := 1 + rng.Intn(left)
					got.mem(run)
					got.op(run)
					got.fop(run)
					left -= run
				}
				if got != want {
					t.Fatalf("%d accesses from %d split into runs: got %+v, want %+v", n, start, got, want)
				}
			}
		}
	}
}
