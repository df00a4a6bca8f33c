package socdmmu

import (
	"math/rand"
	"testing"

	"deltartos/internal/rtos"
	"deltartos/internal/sim"
)

// runTask runs body as a single RTOS task and returns the sim end time.
func runTask(t *testing.T, body func(c *rtos.TaskCtx)) sim.Cycles {
	t.Helper()
	s := sim.New()
	k := rtos.NewKernel(s, 1)
	k.CreateTask("bench", 0, 1, 0, body)
	return s.Run()
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := (Config{TotalBytes: 100, BlockBytes: 64, PEs: 1}).Validate(); err == nil {
		t.Error("non-multiple total accepted")
	}
	if err := (Config{TotalBytes: 0, BlockBytes: 64, PEs: 1}).Validate(); err == nil {
		t.Error("zero total accepted")
	}
	if DefaultConfig().Blocks() != 256 {
		t.Errorf("Blocks = %d, want 256", DefaultConfig().Blocks())
	}
}

func TestUnitAllocFree(t *testing.T) {
	u, err := New(Config{TotalBytes: 1 << 20, BlockBytes: 64 << 10, PEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	runTask(t, func(c *rtos.TaskCtx) {
		a1, err := u.Alloc(c, 100<<10) // 2 blocks
		if err != nil {
			t.Fatal(err)
		}
		a2, err := u.Alloc(c, 1) // 1 block
		if err != nil {
			t.Fatal(err)
		}
		if a1 == a2 {
			t.Error("overlapping allocations")
		}
		if u.FreeBlocks() != 16-3 {
			t.Errorf("FreeBlocks = %d", u.FreeBlocks())
		}
		if err := u.Free(c, a1); err != nil {
			t.Fatal(err)
		}
		if err := u.Free(c, a2); err != nil {
			t.Fatal(err)
		}
		if u.FreeBlocks() != 16 {
			t.Errorf("FreeBlocks after free = %d", u.FreeBlocks())
		}
	})
	st := u.Stats()
	if st.Allocs != 2 || st.Frees != 2 {
		t.Errorf("stats: %+v", st)
	}
	if st.MgmtCycles == 0 {
		t.Error("no mgmt cycles recorded")
	}
}

func TestUnitDeterministicCost(t *testing.T) {
	u, _ := New(Config{TotalBytes: 1 << 20, BlockBytes: 64 << 10, PEs: 1})
	var costs []sim.Cycles
	runTask(t, func(c *rtos.TaskCtx) {
		for i := 0; i < 5; i++ {
			before := u.Stats().MgmtCycles
			if _, err := u.Alloc(c, 64<<10); err != nil {
				t.Fatal(err)
			}
			costs = append(costs, u.Stats().MgmtCycles-before)
		}
	})
	for i := 1; i < len(costs); i++ {
		if costs[i] != costs[0] {
			t.Errorf("SoCDMMU alloc cost not deterministic: %v", costs)
		}
	}
	// 2 bus transactions (3 cycles each) + 4 exec cycles = 10.
	if costs[0] != 10 {
		t.Errorf("alloc cost = %d cycles, want 10", costs[0])
	}
}

func TestUnitErrors(t *testing.T) {
	u, _ := New(Config{TotalBytes: 128 << 10, BlockBytes: 64 << 10, PEs: 1})
	runTask(t, func(c *rtos.TaskCtx) {
		if _, err := u.Alloc(c, 0); err == nil {
			t.Error("zero-size alloc accepted")
		}
		if _, err := u.Alloc(c, 1<<20); err == nil {
			t.Error("oversized alloc accepted")
		}
		if err := u.Free(c, 0x1234); err == nil {
			t.Error("bogus free accepted")
		}
	})
	if u.Stats().FailedAllocs != 1 {
		t.Errorf("FailedAllocs = %d", u.Stats().FailedAllocs)
	}
}

func TestUnitPerPEAccounting(t *testing.T) {
	u, _ := New(Config{TotalBytes: 256 << 10, BlockBytes: 64 << 10, PEs: 2})
	s := sim.New()
	k := rtos.NewKernel(s, 2)
	k.CreateTask("a", 0, 1, 0, func(c *rtos.TaskCtx) {
		if _, err := u.Alloc(c, 64<<10); err != nil {
			t.Error(err)
		}
	})
	k.CreateTask("b", 1, 1, 0, func(c *rtos.TaskCtx) {
		if _, err := u.Alloc(c, 128<<10); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	if u.PerPE[0] != 1 || u.PerPE[1] != 2 {
		t.Errorf("PerPE = %v", u.PerPE)
	}
}

func TestSoftwareAllocatorBasics(t *testing.T) {
	a, err := NewSoftwareAllocator(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	runTask(t, func(c *rtos.TaskCtx) {
		p1, err := a.Alloc(c, 1000)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := a.Alloc(c, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if p1 == p2 {
			t.Error("overlapping allocations")
		}
		if err := a.Free(c, p1); err != nil {
			t.Fatal(err)
		}
		if err := a.Free(c, p2); err != nil {
			t.Fatal(err)
		}
		if len(a.free) != 1 {
			t.Errorf("coalescing failed: %d spans", len(a.free))
		}
	})
	if err := a.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSoftwareAllocatorErrors(t *testing.T) {
	a, _ := NewSoftwareAllocator(4096)
	runTask(t, func(c *rtos.TaskCtx) {
		if _, err := a.Alloc(c, -5); err == nil {
			t.Error("negative alloc accepted")
		}
		if _, err := a.Alloc(c, 1<<20); err == nil {
			t.Error("oversized alloc accepted")
		}
		if err := a.Free(c, 0x40); err == nil {
			t.Error("bogus free accepted")
		}
	})
	if _, err := NewSoftwareAllocator(0); err == nil {
		t.Error("zero heap accepted")
	}
}

// The defining comparison of Tables 11/12: software management costs grow
// with fragmentation and dwarf the SoCDMMU's deterministic cost.
func TestHardwareManagementMuchCheaper(t *testing.T) {
	hw, _ := New(Config{TotalBytes: 4 << 20, BlockBytes: 4 << 10, PEs: 1})
	sw, _ := NewSoftwareAllocator(4 << 20)
	workload := func(c *rtos.TaskCtx, a Allocator) {
		var held []Addr
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 100; i++ {
			p, err := a.Alloc(c, 4096+rng.Intn(8192))
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, p)
			if len(held) > 3 && rng.Intn(2) == 0 {
				j := rng.Intn(len(held))
				if err := a.Free(c, held[j]); err != nil {
					t.Fatal(err)
				}
				held = append(held[:j], held[j+1:]...)
			}
		}
		for _, p := range held {
			if err := a.Free(c, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	runTask(t, func(c *rtos.TaskCtx) { workload(c, hw) })
	runTask(t, func(c *rtos.TaskCtx) { workload(c, sw) })
	hwC, swC := hw.Stats().MgmtCycles, sw.Stats().MgmtCycles
	if hwC == 0 || swC == 0 {
		t.Fatalf("cycles not recorded: hw=%d sw=%d", hwC, swC)
	}
	ratio := float64(swC) / float64(hwC)
	// Paper: 4.4X overall memory-management speed-up, per-op reductions of
	// 95-97%.  Require at least 3X here.
	if ratio < 3 {
		t.Errorf("software/hardware mgmt ratio = %.1f, want >= 3", ratio)
	}
}

// Random alloc/free traffic preserves the software allocator's invariants.
func TestSoftwareAllocatorInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1701))
	for trial := 0; trial < 20; trial++ {
		a, _ := NewSoftwareAllocator(1 << 18)
		runTask(t, func(c *rtos.TaskCtx) {
			var held []Addr
			for step := 0; step < 150; step++ {
				if len(held) == 0 || rng.Intn(3) > 0 {
					p, err := a.Alloc(c, 16+rng.Intn(5000))
					if err == nil {
						held = append(held, p)
					}
				} else {
					j := rng.Intn(len(held))
					if err := a.Free(c, held[j]); err != nil {
						t.Fatal(err)
					}
					held = append(held[:j], held[j+1:]...)
				}
				if err := a.CheckInvariants(); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
			}
		})
	}
}

// Reuse: freed memory is allocatable again indefinitely (no leak).
func TestNoLeakUnderChurn(t *testing.T) {
	u, _ := New(Config{TotalBytes: 256 << 10, BlockBytes: 64 << 10, PEs: 1})
	runTask(t, func(c *rtos.TaskCtx) {
		for i := 0; i < 50; i++ {
			p, err := u.Alloc(c, 256<<10) // whole memory
			if err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			if err := u.Free(c, p); err != nil {
				t.Fatal(err)
			}
		}
	})
	if u.FreeBlocks() != 4 {
		t.Errorf("leaked blocks: %d free", u.FreeBlocks())
	}
}

func TestSynthesize(t *testing.T) {
	sr, err := Synthesize(Config{TotalBytes: 16 << 20, BlockBytes: 64 << 10, PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sr.AreaGates <= 0 || sr.VerilogLines <= 0 {
		t.Errorf("synth result: %+v", sr)
	}
	small, _ := Synthesize(Config{TotalBytes: 1 << 20, BlockBytes: 64 << 10, PEs: 4})
	if sr.AreaGates <= small.AreaGates {
		t.Error("area must grow with block count")
	}
	if _, err := Synthesize(Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestGenerateWellFormed(t *testing.T) {
	f, err := Generate(Config{TotalBytes: 512 << 10, BlockBytes: 64 << 10, PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if problems := f.Check(nil); len(problems) != 0 {
		t.Errorf("Verilog problems: %v", problems)
	}
	if _, err := Generate(Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}
