package rtos

import (
	"testing"

	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

// schedCycle returns the cycle of task's first scheduler event named name
// at or after cycle from.
func schedCycle(t *testing.T, rec *trace.Recorder, task, name string, from uint64) uint64 {
	t.Helper()
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindSched && ev.Proc == task && ev.Name == name && ev.Cycle >= from {
			return ev.Cycle
		}
	}
	t.Fatalf("no %s event of %s at or after cycle %d", name, task, from)
	return 0
}

// checkBlock compares a task's three block.* counters with the expected
// episode count, total and longest blocked cycles; a zero max must be
// absent from the registry.
func checkBlock(t *testing.T, c map[string]uint64, task string, count, cycles, max uint64) {
	t.Helper()
	if got := c["block.count."+task]; got != count {
		t.Errorf("block.count.%s = %d, want %d", task, got, count)
	}
	if got := c["block.cycles."+task]; got != cycles {
		t.Errorf("block.cycles.%s = %d, want %d", task, got, cycles)
	}
	got, ok := c["block.max."+task]
	if max == 0 && ok {
		t.Errorf("block.max.%s = %d present, want absent (no episode lasted a cycle)", task, got)
	}
	if max != 0 && got != max {
		t.Errorf("block.max.%s = %d, want %d", task, got, max)
	}
}

// A queue receiver blocked on an empty queue is charged exactly the cycles
// from its block to the send that wakes it (its idle PE dispatches it at
// once), as one episode.
func TestBlockEpisodeQueueRecvWokenBySend(t *testing.T) {
	s := sim.New()
	rec := trace.NewRecorder("recv")
	s.Rec = rec
	k := NewKernel(s, 2)
	q := k.NewQueue("q", 1)
	k.CreateTask("tx", 0, 1, 0, func(c *TaskCtx) {
		c.Compute(5000)
		q.Send(c, 1)
	})
	k.CreateTask("rx", 1, 1, 0, func(c *TaskCtx) { q.Recv(c) })
	s.Run()

	from := schedCycle(t, rec, "rx", "sched.block:queue-recv:q", 0)
	to := schedCycle(t, rec, "rx", "sched.dispatch", from+1)
	if to < 5000 {
		t.Fatalf("rx dispatched at %d, before the send at cycle 5000 or later", to)
	}
	checkBlock(t, rec.Counters(), "rx", 1, to-from, to-from)
	if _, ok := rec.Counters()["block.count.tx"]; ok {
		t.Error("the sender never blocked but has a block.count counter")
	}
}

// A task killed while blocked has its episode closed at the kill.
func TestBlockEpisodeEndsAtKill(t *testing.T) {
	s := sim.New()
	rec := trace.NewRecorder("kill")
	s.Rec = rec
	k := NewKernel(s, 1)
	q := k.NewQueue("never", 1)
	victim := k.CreateTask("victim", 0, 1, 0, func(c *TaskCtx) { q.Recv(c) })
	s.Spawn("killer", -1, func(p *sim.Proc) {
		p.Delay(3000)
		k.Kill(victim)
	})
	s.Run()

	if victim.State() != StateKilled {
		t.Fatalf("victim state %v, want killed", victim.State())
	}
	from := schedCycle(t, rec, "victim", "sched.block:queue-recv:never", 0)
	to := schedCycle(t, rec, "victim", "sched.kill", from)
	if to != 3000 {
		t.Fatalf("kill traced at %d, want 3000", to)
	}
	checkBlock(t, rec.Counters(), "victim", 1, to-from, to-from)
}

// Neither an injected-fault park ("fault:…") nor a device wait (RunOn)
// opens an episode: the task gets no block.* counters at all.
func TestBlockEpisodeSkipsFaultParksAndDeviceWaits(t *testing.T) {
	s := sim.New()
	rec := trace.NewRecorder("skip")
	s.Rec = rec
	k := NewKernel(s, 1)
	dev := s.NewDevice("IDCT")
	tk := k.CreateTask("t", 0, 1, 0, func(c *TaskCtx) {
		c.RunOn(dev, 2000)
		c.Park("fault:test")
	})
	s.Spawn("unparker", -1, func(p *sim.Proc) {
		p.Delay(10000)
		k.Unpark(tk)
	})
	s.Run()

	if _, ok := tk.Finished(); !ok {
		t.Fatal("task did not finish")
	}
	schedCycle(t, rec, "t", "sched.block:IDCT", 0)
	schedCycle(t, rec, "t", "sched.block:fault:test", 0)
	checkBlock(t, rec.Counters(), "t", 0, 0, 0)
	if _, ok := rec.Counters()["block.cycles.t"]; ok {
		t.Error("a task with no episode has a block.cycles counter")
	}
}

// An episode that ends in the cycle it began counts, but a task whose every
// episode lasted zero cycles has no block.max counter.
func TestBlockEpisodeZeroLengthHasNoMax(t *testing.T) {
	s := sim.New()
	rec := trace.NewRecorder("zero")
	s.Rec = rec
	k := NewKernel(s, 1)
	gate := s.NewSignal("gate")
	tk := k.CreateTask("t", 0, 1, 0, func(c *TaskCtx) {
		c.Compute(100)
		gate.WakeAll() // the waker runs later in this same cycle
		c.Park("gate")
	})
	s.Spawn("waker", -1, func(p *sim.Proc) {
		gate.Wait(p)
		k.Unpark(tk)
	})
	s.Run()

	if _, ok := tk.Finished(); !ok {
		t.Fatal("task did not finish")
	}
	c := rec.Counters()
	if _, ok := c["block.cycles.t"]; !ok {
		t.Error("block.cycles.t absent, want present with value 0")
	}
	checkBlock(t, c, "t", 1, 0, 0)
}
