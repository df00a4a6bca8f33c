package app

import (
	"testing"

	"deltartos/internal/socdmmu"
)

func TestRadixParallelVerifies(t *testing.T) {
	for _, mk := range []func() socdmmu.Allocator{NewGlibcAllocator, NewSoCDMMUAllocator} {
		r := RunRadixParallel(mk, 4)
		if !r.Verified {
			t.Fatalf("%s: parallel radix output wrong", r.Allocator)
		}
		if r.PEs != 4 {
			t.Errorf("PEs = %d", r.PEs)
		}
	}
}

func TestRadixParallelSpeedup(t *testing.T) {
	r := RunRadixParallel(NewSoCDMMUAllocator, 4)
	// 4 PEs with barriers and shared-bus contention: expect 2.5-4X.
	if sp := r.Speedup(RunRadix(NewSoCDMMUAllocator)); sp < 2.0 || sp > 4.2 {
		t.Errorf("parallel speedup = %.2f, want 2.5-4X on 4 PEs", sp)
	}
}

func TestRadixParallelBarrierRounds(t *testing.T) {
	r := RunRadixParallel(NewSoCDMMUAllocator, 2)
	// 4 passes x 4 barrier phases per pass.
	if r.BarrierWaits != 16 {
		t.Errorf("barrier rounds = %d, want 16", r.BarrierWaits)
	}
}

func TestRadixParallelSinglePE(t *testing.T) {
	// Degenerates to the sequential structure; still verifies.
	r := RunRadixParallel(NewSoCDMMUAllocator, 1)
	if !r.Verified {
		t.Fatal("single-PE parallel radix output wrong")
	}
	if sp := r.Speedup(RunRadix(NewSoCDMMUAllocator)); sp > 1.3 {
		t.Errorf("single-PE speedup = %.2f, should be ~1", sp)
	}
}

func TestRadixParallelDeterministic(t *testing.T) {
	a := RunRadixParallel(NewSoCDMMUAllocator, 4)
	b := RunRadixParallel(NewSoCDMMUAllocator, 4)
	if a.TotalCycles != b.TotalCycles || a.MgmtCycles != b.MgmtCycles {
		t.Errorf("non-deterministic parallel run: %d/%d vs %d/%d",
			a.TotalCycles, a.MgmtCycles, b.TotalCycles, b.MgmtCycles)
	}
}

func TestRadixParallelPanicsOnBadPEs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	RunRadixParallel(NewSoCDMMUAllocator, 3) // does not divide radixN
}
