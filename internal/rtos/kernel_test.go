package rtos

import (
	"testing"

	"deltartos/internal/sim"
)

func TestSingleTaskRuns(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	var ran bool
	k.CreateTask("t1", 0, 1, 0, func(c *TaskCtx) {
		c.Compute(100)
		ran = true
	})
	s.Run()
	if !ran {
		t.Fatal("task did not run")
	}
	tk := k.Tasks()[0]
	if tk.State() != StateDone {
		t.Errorf("state = %v", tk.State())
	}
	if _, ok := tk.Finished(); !ok {
		t.Error("Finished not recorded")
	}
	if tk.CPUCycles < 100 {
		t.Errorf("CPUCycles = %d, want >= 100", tk.CPUCycles)
	}
}

func TestNewKernelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewKernel(sim.New(), 0)
}

func TestCreateTaskBadPE(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	k := NewKernel(sim.New(), 1)
	k.CreateTask("bad", 5, 1, 0, func(c *TaskCtx) {})
}

func TestPriorityPreemption(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	var order []string
	var highStart sim.Cycles
	k.CreateTask("low", 0, 5, 0, func(c *TaskCtx) {
		c.Compute(10000)
		order = append(order, "low")
	})
	k.CreateTask("high", 0, 1, 2000, func(c *TaskCtx) {
		highStart = c.Now()
		c.Compute(500)
		order = append(order, "high")
	})
	s.Run()
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Fatalf("order = %v", order)
	}
	// High arrived at 2000 and must start promptly (context switch only).
	if highStart < 2000 || highStart > 2000+2*sim.ContextSwitchCycles {
		t.Errorf("high started at %d", highStart)
	}
	if k.Tasks()[0].Preemptions != 1 {
		t.Errorf("low preemptions = %d", k.Tasks()[0].Preemptions)
	}
	if k.ContextSwitches < 3 {
		t.Errorf("ContextSwitches = %d", k.ContextSwitches)
	}
}

func TestPreemptedTaskResumesWithRemainingWork(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	var lowEnd, highEnd sim.Cycles
	k.CreateTask("low", 0, 5, 0, func(c *TaskCtx) {
		c.Compute(1000)
		lowEnd = c.Now()
	})
	k.CreateTask("high", 0, 1, 300, func(c *TaskCtx) {
		c.Compute(200)
		highEnd = c.Now()
	})
	s.Run()
	if highEnd < 500 {
		t.Errorf("high ended at %d", highEnd)
	}
	// low: 300 pre-preemption + 700 after high, plus switches.
	if lowEnd < 1200 || lowEnd > 1200+4*sim.ContextSwitchCycles {
		t.Errorf("low ended at %d", lowEnd)
	}
}

func TestEqualPriorityFIFONoPreemption(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	var order []string
	k.CreateTask("a", 0, 3, 0, func(c *TaskCtx) {
		c.Compute(500)
		order = append(order, "a")
	})
	k.CreateTask("b", 0, 3, 100, func(c *TaskCtx) {
		c.Compute(100)
		order = append(order, "b")
	})
	s.Run()
	if len(order) != 2 || order[0] != "a" {
		t.Fatalf("equal priority must not preempt: %v", order)
	}
}

func TestSleepFreesPE(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	var lowRan bool
	var highWake sim.Cycles
	k.CreateTask("high", 0, 1, 0, func(c *TaskCtx) {
		c.Sleep(5000)
		highWake = c.Now()
	})
	k.CreateTask("low", 0, 5, 0, func(c *TaskCtx) {
		c.Compute(1000)
		lowRan = true
	})
	s.Run()
	if !lowRan {
		t.Error("low never ran while high slept")
	}
	if highWake < 5000 || highWake > 5400 {
		t.Errorf("high woke at %d", highWake)
	}
}

func TestSleepUntil(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	var at sim.Cycles
	k.CreateTask("t", 0, 1, 0, func(c *TaskCtx) {
		c.SleepUntil(777)
		c.SleepUntil(5) // already past: no-op
		at = c.Now()
	})
	s.Run()
	if at < 777 || at > 900 {
		t.Errorf("woke at %d", at)
	}
}

func TestTwoPEsRunInParallel(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	var end0, end1 sim.Cycles
	k.CreateTask("pe0", 0, 1, 0, func(c *TaskCtx) { c.Compute(1000); end0 = c.Now() })
	k.CreateTask("pe1", 1, 1, 0, func(c *TaskCtx) { c.Compute(1000); end1 = c.Now() })
	s.Run()
	// Both finish at ~1000+ctx, not serialized to 2000.
	limit := sim.Cycles(1000 + 2*sim.ContextSwitchCycles)
	if end0 > limit || end1 > limit {
		t.Errorf("PEs serialized: %d, %d", end0, end1)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() sim.Cycles {
		s := sim.New()
		k := NewKernel(s, 2)
		q := k.NewQueue("s", 1)
		k.CreateTask("a", 0, 2, 0, func(c *TaskCtx) {
			c.Compute(100)
			q.Send(c, 1)
			c.Compute(50)
		})
		k.CreateTask("b", 1, 1, 0, func(c *TaskCtx) {
			q.Recv(c)
			c.Compute(400)
		})
		k.CreateTask("d", 0, 1, 120, func(c *TaskCtx) {
			c.Compute(75)
		})
		return s.Run()
	}
	first := run()
	for i := 0; i < 30; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d ended at %d, first at %d", i, got, first)
		}
	}
}

func TestTraceEventsEmitted(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	var events []TraceEvent
	k.TraceFn = func(ev TraceEvent) { events = append(events, ev) }
	k.CreateTask("a", 0, 2, 0, func(c *TaskCtx) { c.Compute(10) })
	s.Run()
	var sawDispatch, sawExit bool
	for _, ev := range events {
		if ev.What == "dispatch" {
			sawDispatch = true
		}
		if ev.What == "exit" {
			sawExit = true
		}
	}
	if !sawDispatch || !sawExit {
		t.Errorf("trace missing events: %+v", events)
	}
}

func TestBusAccessFromTask(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	k.CreateTask("a", 0, 1, 0, func(c *TaskCtx) {
		c.BusRead(4)
		c.BusWrite(2)
	})
	s.Run()
	if s.Bus.Transactions != 2 {
		t.Errorf("bus transactions = %d", s.Bus.Transactions)
	}
}

func TestRunOnDeviceFreesPE(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	dev := s.NewDevice("IDCT")
	var lowRan bool
	var highDone sim.Cycles
	k.CreateTask("high", 0, 1, 0, func(c *TaskCtx) {
		c.RunOn(dev, 10000)
		highDone = c.Now()
	})
	k.CreateTask("low", 0, 5, 0, func(c *TaskCtx) {
		c.Compute(500)
		lowRan = true
	})
	s.Run()
	if !lowRan {
		t.Error("PE idle during device wait")
	}
	if highDone < 10000 {
		t.Errorf("device wait ended early: %d", highDone)
	}
	if dev.Jobs != 1 {
		t.Errorf("device jobs = %d", dev.Jobs)
	}
}

func TestDeadlockedReporting(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	m1 := k.NewMutex("m1")
	m2 := k.NewMutex("m2")
	k.CreateTask("a", 0, 1, 0, func(c *TaskCtx) {
		m1.Lock(c)
		c.Compute(1000)
		m2.Lock(c) // deadlock
		m2.Unlock(c)
		m1.Unlock(c)
	})
	k.CreateTask("b", 1, 1, 0, func(c *TaskCtx) {
		m2.Lock(c)
		c.Compute(1000)
		m1.Lock(c) // deadlock
		m1.Unlock(c)
		m2.Unlock(c)
	})
	s.Run()
	dead := k.Deadlocked()
	if len(dead) != 2 {
		t.Errorf("Deadlocked = %v", dead)
	}
}

func TestTaskStateString(t *testing.T) {
	for st, want := range map[TaskState]string{
		StateDormant: "dormant", StateReady: "ready", StateRunning: "running",
		StateBlocked: "blocked", StateSleeping: "sleeping",
		StateDone: "done", StateKilled: "killed",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q", int(st), st.String())
		}
	}
	if TaskState(42).String() == "" {
		t.Error("unknown state should render")
	}
}
