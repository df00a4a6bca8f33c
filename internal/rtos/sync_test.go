package rtos

import (
	"strings"
	"testing"

	"deltartos/internal/sim"
)

func TestSemaphorePendPost(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	sem := k.NewSemaphore("s", 0)
	var gotAt sim.Cycles
	k.CreateTask("consumer", 0, 1, 0, func(c *TaskCtx) {
		sem.Pend(c)
		gotAt = c.Now()
	})
	k.CreateTask("producer", 1, 1, 0, func(c *TaskCtx) {
		c.Compute(2000)
		sem.Post(c)
	})
	s.Run()
	if gotAt < 2000 {
		t.Errorf("consumer unblocked at %d", gotAt)
	}
	if sem.Count() != 0 {
		t.Errorf("count = %d", sem.Count())
	}
	if sem.Blocks != 1 {
		t.Errorf("Blocks = %d", sem.Blocks)
	}
}

func TestSemaphoreInitialCount(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	sem := k.NewSemaphore("s", 2)
	var blocked bool
	k.CreateTask("a", 0, 1, 0, func(c *TaskCtx) {
		sem.Pend(c)
		sem.Pend(c)
		blocked = sem.TryPend(c)
	})
	s.Run()
	if blocked {
		t.Error("TryPend on empty semaphore succeeded")
	}
}

func TestSemaphoreNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewKernel(sim.New(), 1).NewSemaphore("x", -1)
}

func TestSemaphoreWakesHighestPriority(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 3)
	sem := k.NewSemaphore("s", 0)
	var order []string
	mk := func(name string, pe, prio int) {
		k.CreateTask(name, pe, prio, 0, func(c *TaskCtx) {
			sem.Pend(c)
			order = append(order, name)
		})
	}
	mk("low", 0, 5)
	mk("high", 1, 1)
	k.CreateTask("poster", 2, 3, 1000, func(c *TaskCtx) {
		sem.Post(c)
		c.Compute(500)
		sem.Post(c)
	})
	s.Run()
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Errorf("wake order = %v", order)
	}
}

func TestSemaphorePostFromISR(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	sem := k.NewSemaphore("irq", 0)
	var gotAt sim.Cycles
	k.CreateTask("handler", 0, 1, 0, func(c *TaskCtx) {
		sem.Pend(c)
		gotAt = c.Now()
	})
	s.Spawn("device", -1, func(p *sim.Proc) {
		p.Delay(1234)
		sem.PostFromISR()
	})
	s.Run()
	if gotAt < 1234 {
		t.Errorf("handler woke at %d", gotAt)
	}
}

func TestMutexBasicExclusion(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	m := k.NewMutex("m", ProtoNone, 0)
	inCS := 0
	maxCS := 0
	body := func(c *TaskCtx) {
		for i := 0; i < 3; i++ {
			m.Lock(c)
			inCS++
			if inCS > maxCS {
				maxCS = inCS
			}
			c.Compute(100)
			inCS--
			m.Unlock(c)
			c.Compute(50)
		}
	}
	k.CreateTask("a", 0, 1, 0, body)
	k.CreateTask("b", 1, 1, 0, body)
	s.Run()
	if maxCS != 1 {
		t.Errorf("mutual exclusion violated: max occupancy %d", maxCS)
	}
	if m.Acquires != 6 {
		t.Errorf("Acquires = %d", m.Acquires)
	}
}

func TestMutexHandoffToHighestPriority(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 3)
	m := k.NewMutex("m", ProtoNone, 0)
	var order []string
	k.CreateTask("owner", 0, 3, 0, func(c *TaskCtx) {
		m.Lock(c)
		c.Compute(2000)
		m.Unlock(c)
	})
	k.CreateTask("low", 1, 5, 100, func(c *TaskCtx) {
		m.Lock(c)
		order = append(order, "low")
		m.Unlock(c)
	})
	k.CreateTask("high", 2, 1, 200, func(c *TaskCtx) {
		m.Lock(c)
		order = append(order, "high")
		m.Unlock(c)
	})
	s.Run()
	if len(order) != 2 || order[0] != "high" {
		t.Errorf("hand-off order = %v", order)
	}
}

func TestMutexRelockPanics(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	m := k.NewMutex("m", ProtoNone, 0)
	var recovered interface{}
	k.CreateTask("a", 0, 1, 0, func(c *TaskCtx) {
		defer func() { recovered = recover() }()
		m.Lock(c)
		m.Lock(c)
	})
	s.Run()
	if recovered == nil {
		t.Error("re-lock did not panic")
	}
}

func TestMutexWrongUnlockPanics(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	m := k.NewMutex("m", ProtoNone, 0)
	var recovered interface{}
	k.CreateTask("a", 0, 1, 0, func(c *TaskCtx) {
		defer func() { recovered = recover() }()
		m.Unlock(c)
	})
	s.Run()
	if recovered == nil {
		t.Error("unlock by non-owner did not panic")
	}
}

// Classic bounded priority inversion: low holds the lock, high blocks on it,
// medium must NOT run in between when priority inheritance is on.
func TestPriorityInheritanceBoundsInversion(t *testing.T) {
	runWith := func(proto LockProtocol) (medBeforeHigh bool) {
		s := sim.New()
		k := NewKernel(s, 1)
		m := k.NewMutex("m", proto, 1)
		var highDone, medDone sim.Cycles
		k.CreateTask("low", 0, 5, 0, func(c *TaskCtx) {
			m.Lock(c)
			c.Compute(10000) // long critical section
			m.Unlock(c)
		})
		k.CreateTask("high", 0, 1, 1000, func(c *TaskCtx) {
			m.Lock(c)
			c.Compute(100)
			m.Unlock(c)
			highDone = c.Now()
		})
		k.CreateTask("med", 0, 3, 2000, func(c *TaskCtx) {
			c.Compute(8000)
			medDone = c.Now()
		})
		s.Run()
		return medDone < highDone
	}
	if runWith(ProtoInherit) {
		t.Error("with PI, medium pre-empted the inherited low task (unbounded inversion)")
	}
	if !runWith(ProtoNone) {
		t.Error("without PI, medium should finish before high (inversion present) — check scenario")
	}
}

// IPCP: the lock holder is raised to the ceiling immediately on acquisition,
// so an arriving mid-priority task cannot preempt it (Figure 20's behaviour).
func TestImmediateCeilingBlocksPreemption(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 1)
	m := k.NewMutex("m", ProtoCeiling, 1)
	var order []string
	k.CreateTask("t3", 0, 3, 0, func(c *TaskCtx) {
		m.Lock(c)
		c.Compute(5000)
		m.Unlock(c)
		order = append(order, "t3-cs-done")
	})
	k.CreateTask("t2", 0, 2, 1000, func(c *TaskCtx) {
		c.Compute(100)
		order = append(order, "t2")
	})
	s.Run()
	if len(order) != 2 || order[0] != "t3-cs-done" {
		t.Errorf("IPCP order = %v (t2 preempted the ceiling-raised CS)", order)
	}
}

func TestMutexLatencyDelayInstrumentation(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	m := k.NewMutex("m", ProtoInherit, 1)
	k.CreateTask("a", 0, 2, 0, func(c *TaskCtx) {
		m.Lock(c)
		c.Compute(3000)
		m.Unlock(c)
	})
	k.CreateTask("b", 1, 1, 500, func(c *TaskCtx) {
		m.Lock(c)
		m.Unlock(c)
	})
	s.Run()
	if m.AvgLatency() <= 0 {
		t.Errorf("AvgLatency = %v", m.AvgLatency())
	}
	if m.AvgDelay() <= m.AvgLatency() {
		t.Errorf("AvgDelay (%v) should exceed AvgLatency (%v)", m.AvgDelay(), m.AvgLatency())
	}
	if m.Contended != 1 {
		t.Errorf("Contended = %d", m.Contended)
	}
}

func TestMutexNoStatsWhenUnused(t *testing.T) {
	k := NewKernel(sim.New(), 1)
	m := k.NewMutex("m", ProtoNone, 0)
	if m.AvgLatency() != 0 || m.AvgDelay() != 0 {
		t.Error("unused mutex reports nonzero averages")
	}
}

// Transitive priority inheritance: t1 blocks on L2 held by t2, which is
// itself blocked on L1 held by t3 — t3 must inherit t1's priority, or the
// chain stays inverted.
func TestPriorityInheritanceTransitiveChain(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 3)
	l1 := k.NewMutex("L1", ProtoInherit, 1)
	l2 := k.NewMutex("L2", ProtoInherit, 1)
	var t3Prio int
	var probed bool
	k.CreateTask("t3-low", 0, 5, 0, func(c *TaskCtx) {
		l1.Lock(c)
		c.Compute(20000) // long CS; the probe below samples during it
		l1.Unlock(c)
	})
	k.CreateTask("t2-mid", 1, 3, 500, func(c *TaskCtx) {
		l2.Lock(c)
		l1.Lock(c) // blocks on t3
		l1.Unlock(c)
		l2.Unlock(c)
	})
	k.CreateTask("t1-high", 2, 1, 1000, func(c *TaskCtx) {
		l2.Lock(c) // blocks on t2, which is blocked on t3
		l2.Unlock(c)
	})
	k.CreateTask("probe", 0, 0, 3000, func(c *TaskCtx) {
		// Sample t3's effective priority mid-chain (probe outranks all).
		for _, task := range k.Tasks() {
			if task.Name == "t3-low" {
				t3Prio = task.CurPrio
				probed = true
			}
		}
	})
	s.Run()
	if !probed {
		t.Fatal("probe did not run")
	}
	if t3Prio != 1 {
		t.Errorf("t3 effective priority = %d during chain, want 1 (transitive inheritance)", t3Prio)
	}
	if !s.AllDone() {
		t.Errorf("blocked: %v", s.Blocked())
	}
}

func TestWaitQueue(t *testing.T) {
	task := func(name string, prio int) *Task { return &Task{Name: name, CurPrio: prio} }
	a, b, c, d, e := task("a", 2), task("b", 1), task("c", 2), task("d", 3), task("e", 1)
	absent := task("absent", 1)
	names := func(q *WaitQueue) string {
		var out []string
		for _, t := range q.tasks {
			out = append(out, t.Name)
		}
		return strings.Join(out, ",")
	}
	fill := func() *WaitQueue {
		var q WaitQueue
		for _, t := range []*Task{a, b, c, d, e} {
			q.Push(t)
		}
		return &q
	}
	if got := names(fill()); got != "b,e,a,c,d" {
		t.Fatalf("push order = %s, want b,e,a,c,d (priority, FIFO within a priority)", got)
	}
	for _, tc := range []struct {
		name   string
		remove *Task
		found  bool
		want   string
	}{
		{"head", b, true, "e,a,c,d"},
		{"middle", a, true, "b,e,c,d"},
		{"tail", d, true, "b,e,a,c"},
		{"absent", absent, false, "b,e,a,c,d"},
	} {
		t.Run("remove "+tc.name, func(t *testing.T) {
			q := fill()
			if got := q.Remove(tc.remove); got != tc.found {
				t.Errorf("Remove(%s) = %v, want %v", tc.remove.Name, got, tc.found)
			}
			if got := names(q); got != tc.want {
				t.Errorf("after Remove(%s): %s, want %s", tc.remove.Name, got, tc.want)
			}
			if q.Has(tc.remove) {
				t.Errorf("Has(%s) after Remove", tc.remove.Name)
			}
			if q.Len() != strings.Count(tc.want, ",")+1 {
				t.Errorf("Len = %d, want %d", q.Len(), strings.Count(tc.want, ",")+1)
			}
		})
	}
	q := fill()
	var popped []string
	for q.Len() > 0 {
		popped = append(popped, q.Pop().Name)
	}
	if got := strings.Join(popped, ","); got != "b,e,a,c,d" {
		t.Errorf("pop order = %s, want b,e,a,c,d", got)
	}
	if got := q.Pop(); got != nil {
		t.Errorf("Pop on empty = %s, want nil", got.Name)
	}
	if q.Has(a) || q.Remove(a) {
		t.Error("empty queue reports a member")
	}
}
