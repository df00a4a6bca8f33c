package fault

import (
	"reflect"
	"testing"

	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/socdmmu"
	"deltartos/internal/soclc"
	"deltartos/internal/trace"
)

// kills counts the tasks a traced run killed, by recovery or by a crash
// fault.
func kills(tr *trace.Recorder) uint64 {
	c := tr.Counters()
	return c["count.sched.kill"] + c["count.sched.fault:crash"]
}

func TestTaskCrashUnwindsMidBody(t *testing.T) {
	s := sim.New()
	tr := trace.NewRecorder("crash")
	s.Rec = tr
	k := rtos.NewKernel(s, 1)
	reached := false
	victim := k.CreateTask("a", 0, 1, 0, func(c *rtos.TaskCtx) {
		c.Compute(100)
		c.Compute(100) // the crash is armed before this chunk starts
		reached = true
	})
	NewPlan(1).Add(Fault{Kind: TaskCrash, Task: "a", At: 50}).Attach(k, nil, nil, nil)
	s.Run()
	if reached {
		t.Error("crashed task ran past the fault point")
	}
	if victim.State() != rtos.StateKilled {
		t.Errorf("state = %v, want killed", victim.State())
	}
	if n := kills(tr); n != 1 {
		t.Errorf("kills = %d, want 1", n)
	}
}

func TestOverrunStretchesCompute(t *testing.T) {
	run := func(plan *Plan) sim.Cycles {
		s := sim.New()
		k := rtos.NewKernel(s, 1)
		var finished sim.Cycles
		k.CreateTask("a", 0, 1, 0, func(c *rtos.TaskCtx) {
			c.Compute(1000)
			finished = c.Now()
		})
		if plan != nil {
			plan.Attach(k, nil, nil, nil)
		}
		s.Run()
		return finished
	}
	clean := run(nil)
	faulty := run(NewPlan(1).Add(Fault{Kind: ComputeOverrun, Task: "a", At: 0, Extra: 250}))
	if faulty != clean+250 {
		t.Errorf("overrun end = %d, want %d", faulty, clean+250)
	}
}

func TestHangThenWatchdogRestartCompletes(t *testing.T) {
	s := sim.New()
	k := rtos.NewKernel(s, 1)
	runs := 0
	task := k.CreateTask("a", 0, 1, 0, func(c *rtos.TaskCtx) {
		runs++
		c.Compute(200) // hangs here on the first run
		c.Compute(200)
	})
	plan := NewPlan(1).Add(Fault{Kind: TaskHang, Task: "a", At: 50})
	plan.Attach(k, nil, nil, nil)
	rec := NewRecovery(k, plan, nil, nil, RestartOnce, 2000, 8)
	rec.WatchAll()
	s.Run()
	if runs != 2 {
		t.Errorf("body ran %d times, want 2 (hang then restart)", runs)
	}
	if _, done := task.Finished(); !done {
		t.Error("restarted task did not complete")
	}
	if rec.Recoveries != 1 || rec.Restarted != 1 {
		t.Errorf("recoveries=%d restarted=%d, want 1/1", rec.Recoveries, rec.Restarted)
	}
	if len(rec.Latencies) != 1 || rec.Latencies[0] == 0 {
		t.Errorf("latencies = %v, want one nonzero entry", rec.Latencies)
	}
	if task.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", task.Restarts)
	}
}

// buildLockScenario: "low" takes lock 0 and loses the release; "hi" then
// blocks on it forever unless recovery reclaims from the corpse.
func buildLockScenario(t *testing.T, seed uint64) (*sim.Sim, *rtos.Kernel, *soclc.SoftwareLocks, *Plan, *rtos.Task, *rtos.Task) {
	t.Helper()
	s := sim.New()
	k := rtos.NewKernel(s, 2)
	sl := soclc.NewSoftwareLocks(k, 1)
	low := k.CreateTask("low", 0, 5, 0, func(c *rtos.TaskCtx) {
		sl.Acquire(c, 0)
		c.Compute(100)
		sl.Release(c, 0) // dropped by the plan
	})
	hi := k.CreateTask("hi", 1, 1, 500, func(c *rtos.TaskCtx) {
		sl.Acquire(c, 0)
		c.Compute(100)
		sl.Release(c, 0)
	})
	plan := NewPlan(seed).Add(Fault{Kind: LostRelease, Task: "low", Lock: AnyLock, At: 0})
	plan.Attach(k, sl, nil, nil)
	return s, k, sl, plan, low, hi
}

func TestLostReleaseCorpseReclaim(t *testing.T) {
	s, k, sl, plan, low, hi := buildLockScenario(t, 7)
	tr := trace.NewRecorder("corpse")
	s.Rec = tr
	rec := NewRecovery(k, plan, sl, nil, RestartOnce, 5000, 8)
	rec.WatchAll()
	s.Run()
	if _, done := low.Finished(); !done {
		t.Fatal("low did not finish")
	}
	if _, done := hi.Finished(); !done {
		t.Error("hi never got the lock: corpse reclaim failed")
	}
	// The corpse was done, not killed: recovery must not have killed anyone.
	if n := kills(tr); n != 0 {
		t.Errorf("kills = %d, want 0 (reclaim-only recovery)", n)
	}
	if rec.ReclaimedLocks != 1 {
		t.Errorf("ReclaimedLocks = %d, want 1", rec.ReclaimedLocks)
	}
	if sl.Owner(0) != nil && sl.Owner(0) != hi {
		t.Errorf("lock 0 still owned by %v", sl.Owner(0))
	}
	if len(plan.Fired()) != 1 {
		t.Errorf("fired = %v, want the lost release", plan.Fired())
	}
}

func TestLostReleaseWithoutRecoveryWedges(t *testing.T) {
	s, k, _, _, _, hi := buildLockScenario(t, 7)
	s.Run()
	if _, done := hi.Finished(); done {
		t.Fatal("hi finished despite the lost release and no recovery")
	}
	dead := k.Deadlocked()
	if len(dead) != 1 || dead[0] != "hi" {
		t.Errorf("Deadlocked = %v, want [hi]", dead)
	}
}

func TestLeakedBlockReclaim(t *testing.T) {
	s := sim.New()
	k := rtos.NewKernel(s, 1)
	u, err := socdmmu.New(socdmmu.Config{TotalBytes: 256 << 10, BlockBytes: 64 << 10, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	k.CreateTask("a", 0, 1, 0, func(c *rtos.TaskCtx) {
		addr, err := u.Alloc(c, 64<<10)
		if err != nil {
			t.Error(err)
			return
		}
		if err := u.Free(c, addr); err != nil {
			t.Errorf("dropped free must look successful: %v", err)
		}
	})
	plan := NewPlan(3).Add(Fault{Kind: LeakedBlock, Task: "a", At: 0})
	plan.Attach(k, nil, u, nil)
	s.Run()
	if plan.Pending() != 0 {
		t.Fatal("leak fault did not fire")
	}
	live := u.Live()
	if len(live) != 1 || !u.Leaked(live[0]) {
		t.Fatalf("leak not attributable: live=%v", live)
	}
	// A recovery pass over the owner reclaims the leak.
	rec := NewRecovery(k, plan, nil, u, Abandon, 0, 0)
	rec.reclaim(k.Tasks()[0])
	if got := u.Live(); len(got) != 0 {
		t.Errorf("blocks leaked after reclaim: %v", got)
	}
	if rec.ReclaimedBlocks != 1 {
		t.Errorf("ReclaimedBlocks = %d, want 1", rec.ReclaimedBlocks)
	}
}

func TestMisuseToleratedUnderPlan(t *testing.T) {
	s := sim.New()
	k := rtos.NewKernel(s, 1)
	sl := soclc.NewSoftwareLocks(k, 1)
	plan := NewPlan(1)
	plan.Attach(k, sl, nil, nil)
	k.CreateTask("a", 0, 1, 0, func(c *rtos.TaskCtx) {
		sl.Release(c, 0) // release of a free lock: misuse, tolerated
	})
	s.Run()
	if plan.Tolerated != 1 {
		t.Errorf("Tolerated = %d, want 1", plan.Tolerated)
	}
	if !s.AllDone() {
		t.Error("task did not survive the tolerated misuse")
	}
}

func TestBusStallDelaysTraffic(t *testing.T) {
	run := func(stall bool) sim.Cycles {
		s := sim.New()
		k := rtos.NewKernel(s, 1)
		var end sim.Cycles
		k.CreateTask("a", 0, 1, 0, func(c *rtos.TaskCtx) {
			c.Compute(100)
			c.BusRead(4)
			end = c.Now()
		})
		if stall {
			NewPlan(1).Add(Fault{Kind: BusStall, At: 90, Extra: 300}).Attach(k, nil, nil, nil)
		}
		s.Run()
		return end
	}
	clean, stalled := run(false), run(true)
	if stalled <= clean {
		t.Errorf("bus stall had no effect: clean=%d stalled=%d", clean, stalled)
	}
}

func TestRandomizeDeterministicPerSeed(t *testing.T) {
	prof := Profile{Tasks: []string{"a", "b", "c"}, Devices: []string{"IDCT"}, Horizon: 100000}
	kinds := []Kind{LostRelease, TaskCrash, TaskHang, ComputeOverrun, SpuriousIRQ, BusStall, LeakedBlock}
	p1 := NewPlan(42).Randomize(10, kinds, prof)
	p2 := NewPlan(42).Randomize(10, kinds, prof)
	if !reflect.DeepEqual(p1.faults, p2.faults) {
		t.Error("same seed produced different plans")
	}
	p3 := NewPlan(43).Randomize(10, kinds, prof)
	if reflect.DeepEqual(p1.faults, p3.faults) {
		t.Error("different seeds produced identical plans")
	}
	if p1.Len() != 10 {
		t.Errorf("Len = %d, want 10", p1.Len())
	}
}

func TestWatchdogKickAndStop(t *testing.T) {
	s := sim.New()
	tr := trace.NewRecorder("wdt")
	s.Rec = tr
	k := rtos.NewKernel(s, 1)
	expiries := 0
	tk := k.CreateTask("a", 0, 1, 0, func(c *rtos.TaskCtx) {
		c.Park("forever")
	})
	w := k.Watch(tk, 100, func(w *rtos.Watchdog, p *sim.Proc) {
		expiries++
		if expiries == 1 {
			w.Kick(p.Now() + 100) // one more chance
		} else {
			k.Kill(w.Task())
		}
	})
	s.Run()
	if expiries != 2 {
		t.Errorf("expiries = %d, want 2", expiries)
	}
	if tk.State() != rtos.StateKilled {
		t.Errorf("state = %v, want killed", tk.State())
	}
	w.Stop()
	if n := tr.Counters()["count.sched.wdt:expire"]; n != 2 {
		t.Errorf("sched.wdt:expire events = %d, want 2", n)
	}
}
