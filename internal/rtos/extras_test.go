package rtos

import (
	"testing"

	"deltartos/internal/sim"
)

func TestTimeSliceRoundRobin(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	k.EnableTimeSlice(0, 1000)
	var order []string
	mark := func(name string) {
		if len(order) == 0 || order[len(order)-1] != name {
			order = append(order, name)
		}
	}
	body := func(name string) func(c *TaskCtx) {
		return func(c *TaskCtx) {
			for i := 0; i < 4; i++ {
				c.Compute(700)
				mark(name)
			}
		}
	}
	k.CreateTask("a", 0, 3, 0, body("a"))
	k.CreateTask("b", 0, 3, 0, body("b"))
	s.Run()
	// Without slicing, "a" would run all 4 chunks first.  With a 1000-cycle
	// quantum the two tasks interleave.
	interleavings := 0
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1] {
			interleavings++
		}
	}
	if interleavings < 3 {
		t.Errorf("expected interleaved execution, got %v", order)
	}
	if !s.AllDone() {
		t.Errorf("procs blocked: %v", s.Blocked())
	}
}

func TestTimeSliceDoesNotPreemptHigherPriority(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	k.EnableTimeSlice(0, 500)
	var order []string
	k.CreateTask("high", 0, 1, 0, func(c *TaskCtx) {
		c.Compute(3000)
		order = append(order, "high")
	})
	k.CreateTask("low", 0, 5, 0, func(c *TaskCtx) {
		c.Compute(100)
		order = append(order, "low")
	})
	s.Run()
	if len(order) != 2 || order[0] != "high" {
		t.Errorf("time slice rotated across priorities: %v", order)
	}
}

func TestTimeSlicePanics(t *testing.T) {
	k := NewKernel(sim.New(), 1)
	mustPanicExtras(t, func() { k.EnableTimeSlice(5, 100) })
	mustPanicExtras(t, func() { k.EnableTimeSlice(0, 0) })
}

func mustPanicExtras(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestTimeSliceRetiresOnDeadlock(t *testing.T) {
	// Even with a slicer running, a fully blocked task set must let the
	// simulation drain (the slicer retires).
	s := sim.New()
	k := NewKernel(s, 1)
	k.EnableTimeSlice(0, 200)
	sem := k.NewSemaphore("never", 0)
	k.CreateTask("stuck", 0, 1, 0, func(c *TaskCtx) {
		sem.Pend(c)
	})
	end := s.Run() // must return
	if end == 0 {
		t.Error("simulation did not advance")
	}
	if len(k.Deadlocked()) != 1 {
		t.Errorf("Deadlocked = %v", k.Deadlocked())
	}
}

func TestBarrierReleasesAllTogether(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 4)
	bar := k.NewBarrier("phase", 4)
	var releases []sim.Cycles
	for pe := 0; pe < 4; pe++ {
		pe := pe
		k.CreateTask("w", pe, 1, 0, func(c *TaskCtx) {
			c.Compute(sim.Cycles(1000 * (pe + 1))) // staggered arrival
			bar.Wait(c)
			releases = append(releases, c.Now())
		})
	}
	s.Run()
	if len(releases) != 4 {
		t.Fatalf("releases = %v", releases)
	}
	// Nobody passes before the slowest arrival (~4000 cycles).
	for _, r := range releases {
		if r < 4000 {
			t.Errorf("released at %d, before last arrival", r)
		}
	}
	if bar.Rounds != 1 {
		t.Errorf("Rounds = %d", bar.Rounds)
	}
}

func TestBarrierReusableAcrossRounds(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	bar := k.NewBarrier("loop", 2)
	counts := make([]int, 2)
	for pe := 0; pe < 2; pe++ {
		pe := pe
		k.CreateTask("w", pe, 1, 0, func(c *TaskCtx) {
			for round := 0; round < 5; round++ {
				c.Compute(sim.Cycles(100 * (pe + 1)))
				bar.Wait(c)
				counts[pe]++
			}
		})
	}
	s.Run()
	if counts[0] != 5 || counts[1] != 5 {
		t.Errorf("counts = %v", counts)
	}
	if bar.Rounds != 5 {
		t.Errorf("Rounds = %d, want 5", bar.Rounds)
	}
	if !s.AllDone() {
		t.Errorf("blocked: %v", s.Blocked())
	}
}

func TestBarrierPanicsOnZero(t *testing.T) {
	mustPanicExtras(t, func() { NewKernel(sim.New(), 1).NewBarrier("x", 0) })
}

func TestCPUReport(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	k.CreateTask("a", 0, 1, 0, func(c *TaskCtx) { c.Compute(500) })
	k.CreateTask("b", 1, 1, 0, func(c *TaskCtx) { c.Compute(700) })
	s.Run()
	tasks, peBusy := k.CPUReport()
	if len(tasks) != 2 || len(peBusy) != 2 {
		t.Fatalf("report sizes: %d tasks, %d PEs", len(tasks), len(peBusy))
	}
	if tasks[0].Name != "a" || tasks[0].State != StateDone {
		t.Errorf("task row: %+v", tasks[0])
	}
	if peBusy[0] < 500 || peBusy[1] < 700 {
		t.Errorf("peBusy = %v", peBusy)
	}
	if peBusy[0] > 1000 || peBusy[1] > 1200 {
		t.Errorf("peBusy overcounted: %v", peBusy)
	}
}
