package rtos

// Tests for the IPC robustness layer: deadline-bounded operations,
// capacity-0 rendezvous queues, kill-while-blocked purge semantics (no
// leaked slots, no stranded wakes), wait-for peers and the IPC deadlock
// core, and the retry/backoff policy.

import (
	"testing"

	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

// traced attaches a fresh recorder to s, whose ipc.<op>.<endpoint>
// counters the tests read.
func traced(s *sim.Sim) *trace.Recorder {
	r := trace.NewRecorder("ipc")
	s.Rec = r
	return r
}

func TestQueueRecvTimeout(t *testing.T) {
	s := sim.New()
	tr := traced(s)
	k := NewKernel(s, 2)
	m := k.NewQueue("m", 1)
	var gotFirst, gotSecond bool
	var firstElapsed sim.Cycles
	k.CreateTask("rx", 0, 1, 0, func(c *TaskCtx) {
		start := c.Now()
		_, gotFirst = m.RecvTimeout(c, 2000)
		firstElapsed = c.Now() - start
		v, ok := m.RecvTimeout(c, 50000)
		gotSecond = ok && v == 42
	})
	k.CreateTask("tx", 1, 1, 0, func(c *TaskCtx) {
		c.Compute(8000)
		m.Send(c, 42)
	})
	s.Run()
	if gotFirst {
		t.Error("first recv should have timed out")
	}
	if firstElapsed < 2000 || firstElapsed > 3000 {
		t.Errorf("timeout elapsed %d, want ~2000", firstElapsed)
	}
	if !gotSecond {
		t.Error("second recv should have delivered 42")
	}
	if n := tr.Counters()["ipc.timeout.m"]; n != 1 {
		t.Errorf("ipc.timeout.m = %d, want 1", n)
	}
}

func TestQueueRendezvous(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	q := k.NewQueue("rv", 0)
	var sentAt, recvAt sim.Cycles
	var got interface{}
	k.CreateTask("tx", 0, 1, 0, func(c *TaskCtx) {
		q.Send(c, "hello")
		sentAt = c.Now()
	})
	k.CreateTask("rx", 1, 1, 0, func(c *TaskCtx) {
		c.Compute(5000)
		got = q.Recv(c)
		recvAt = c.Now()
	})
	s.Run()
	if got != "hello" {
		t.Fatalf("got %v", got)
	}
	// The sender must have blocked until the rendezvous at ~5000.
	if sentAt < 5000 {
		t.Errorf("sender returned at %d, before the rendezvous", sentAt)
	}
	if sentAt > recvAt+500 {
		t.Errorf("sender released at %d, long after recv at %d", sentAt, recvAt)
	}
}

func TestQueueRendezvousSendTimeoutWithdrawsOffer(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	q := k.NewQueue("rv", 0)
	var sendOK, recvOK bool
	k.CreateTask("tx", 0, 1, 0, func(c *TaskCtx) {
		sendOK = q.SendTimeout(c, "stale", 1000)
	})
	k.CreateTask("rx", 1, 1, 0, func(c *TaskCtx) {
		c.Compute(5000)
		_, recvOK = q.RecvTimeout(c, 1000)
	})
	s.Run()
	if sendOK {
		t.Error("send should have timed out")
	}
	if recvOK {
		t.Error("recv found a withdrawn offer")
	}
}

func TestQueueSendTimeoutWhenFull(t *testing.T) {
	s := sim.New()
	tr := traced(s)
	k := NewKernel(s, 1)
	q := k.NewQueue("q", 1)
	var ok1, ok2 bool
	k.CreateTask("tx", 0, 1, 0, func(c *TaskCtx) {
		ok1 = q.SendTimeout(c, 1, 1000)
		ok2 = q.SendTimeout(c, 2, 1000)
	})
	s.Run()
	if !ok1 || ok2 {
		t.Errorf("ok1=%v ok2=%v, want true/false", ok1, ok2)
	}
	if n := tr.Counters()["ipc.timeout.q"]; n != 1 {
		t.Errorf("ipc.timeout.q = %d, want 1", n)
	}
}

func TestEventWaitTimeout(t *testing.T) {
	s := sim.New()
	tr := traced(s)
	k := NewKernel(s, 2)
	e := k.NewEventFlags("ev")
	var ok1, ok2 bool
	k.CreateTask("w", 0, 1, 0, func(c *TaskCtx) {
		_, ok1 = e.WaitTimeout(c, 0b11, true, 1000)
		_, ok2 = e.WaitTimeout(c, 0b11, true, 50000)
	})
	k.CreateTask("set", 1, 1, 0, func(c *TaskCtx) {
		c.Compute(4000)
		e.Set(c, 0b01)
		c.Compute(4000)
		e.Set(c, 0b10)
	})
	s.Run()
	if ok1 {
		t.Error("first wait should have timed out")
	}
	if !ok2 {
		t.Error("second wait should have been satisfied")
	}
	if n := tr.Counters()["ipc.timeout.ev"]; n != 1 {
		t.Errorf("ipc.timeout.ev = %d, want 1", n)
	}
}

// Full-queue sender ordering: when space frees, the highest-priority blocked
// sender delivers first.
func TestFullQueueSenderPriorityOrdering(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 3)
	q := k.NewQueue("q", 1)
	var order []interface{}
	k.CreateTask("fill", 0, 1, 0, func(c *TaskCtx) {
		q.Send(c, "seed")
	})
	k.CreateTask("lo", 1, 5, 100, func(c *TaskCtx) {
		q.Send(c, "lo")
	})
	k.CreateTask("hi", 2, 2, 200, func(c *TaskCtx) {
		q.Send(c, "hi")
	})
	k.CreateTask("rx", 0, 9, 2000, func(c *TaskCtx) {
		for i := 0; i < 3; i++ {
			order = append(order, q.Recv(c))
			c.Compute(500)
		}
	})
	s.Run()
	if len(order) != 3 || order[0] != "seed" || order[1] != "hi" || order[2] != "lo" {
		t.Errorf("drain order %v, want [seed hi lo]", order)
	}
}

// FIFO fairness within a priority level: equal-priority readers are served
// in blocking order even when both wakes land in the same cycle.
func TestQueueReaderFIFOWithinPriority(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 3)
	q := k.NewQueue("q", 4)
	var r1got, r2got interface{}
	k.CreateTask("r1", 0, 5, 0, func(c *TaskCtx) {
		r1got = q.Recv(c)
	})
	k.CreateTask("r2", 1, 5, 50, func(c *TaskCtx) {
		r2got = q.Recv(c)
	})
	k.CreateTask("tx", 2, 1, 2000, func(c *TaskCtx) {
		q.Send(c, "first")
		q.Send(c, "second")
	})
	s.Run()
	if r1got != "first" || r2got != "second" {
		t.Errorf("r1=%v r2=%v, want first/second (FIFO within priority)", r1got, r2got)
	}
}

// A reader that was already woken for a hand-off and then killed before
// running must not strand the message: the purge re-issues the wake to the
// next blocked reader.
func TestQueueKillWokenReaderRewakes(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 3)
	m := k.NewQueue("m", 1)
	var r2got interface{}
	r1 := k.CreateTask("r1", 0, 4, 0, func(c *TaskCtx) {
		m.Recv(c)
		t.Error("r1 ran to completion; kill raced wrong")
	})
	// busy hogs r1's PE from cycle 1000 so the woken r1 stays Ready.
	k.CreateTask("busy", 0, 1, 1000, func(c *TaskCtx) {
		c.Compute(30000)
	})
	k.CreateTask("r2", 1, 5, 0, func(c *TaskCtx) {
		r2got = m.Recv(c)
	})
	k.CreateTask("tx", 2, 5, 2000, func(c *TaskCtx) {
		m.Send(c, 42)
	})
	s.Spawn("killer", -1, func(p *sim.Proc) {
		p.Delay(4000) // after the send woke r1, while busy still runs
		k.Kill(r1)
	})
	s.Run()
	if r2got != 42 {
		t.Errorf("r2 got %v, want 42 (stranded message)", r2got)
	}
	if r1.State() != StateKilled {
		t.Errorf("r1 state %v, want killed", r1.State())
	}
}

// The writer-side analogue: a sender woken for freed space then killed must
// not strand the slot while other senders sleep.
func TestQueueKillWokenWriterRewakes(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 4)
	q := k.NewQueue("q", 1)
	var w2sent bool
	k.CreateTask("fill", 3, 1, 0, func(c *TaskCtx) {
		q.Send(c, "seed")
	})
	w1 := k.CreateTask("w1", 0, 4, 100, func(c *TaskCtx) {
		q.Send(c, "w1")
		t.Error("w1 ran to completion; kill raced wrong")
	})
	k.CreateTask("busy", 0, 1, 1000, func(c *TaskCtx) {
		c.Compute(30000)
	})
	k.CreateTask("w2", 1, 5, 100, func(c *TaskCtx) {
		q.Send(c, "w2")
		w2sent = true
	})
	k.CreateTask("rx", 2, 5, 2000, func(c *TaskCtx) {
		q.Recv(c) // frees the slot, wakes w1
	})
	s.Spawn("killer", -1, func(p *sim.Proc) {
		p.Delay(4000)
		k.Kill(w1)
	})
	s.Run()
	if !w2sent {
		t.Error("w2 never delivered: freed slot was stranded")
	}
	if w1.State() != StateKilled {
		t.Errorf("w1 state %v, want killed", w1.State())
	}
}

// A killed rendezvous sender's pending offer is withdrawn, never delivered.
func TestQueueKillRendezvousSenderWithdrawsOffer(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	q := k.NewQueue("rv", 0)
	var recvOK bool
	tx := k.CreateTask("tx", 0, 1, 0, func(c *TaskCtx) {
		q.Send(c, "stale")
	})
	k.CreateTask("rx", 1, 1, 0, func(c *TaskCtx) {
		c.Compute(5000)
		_, recvOK = q.RecvTimeout(c, 2000)
	})
	s.Spawn("killer", -1, func(p *sim.Proc) {
		p.Delay(2000)
		k.Kill(tx)
	})
	s.Run()
	if recvOK {
		t.Error("receiver took a killed sender's offer")
	}
	if tx.State() != StateKilled {
		t.Errorf("tx state %v, want killed", tx.State())
	}
}

// A killed event waiter leaves no dangling wait entry: later Sets neither
// wake it nor leak.
func TestEventKillWaiterNoLeak(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	e := k.NewEventFlags("ev")
	var otherWoke bool
	w := k.CreateTask("w", 0, 1, 0, func(c *TaskCtx) {
		e.Wait(c, 0b01, false)
		t.Error("killed waiter ran to completion")
	})
	k.CreateTask("w2", 1, 1, 0, func(c *TaskCtx) {
		e.Wait(c, 0b01, false)
		otherWoke = true
	})
	k.CreateTask("set", 1, 2, 5000, func(c *TaskCtx) {
		e.Set(c, 0b01)
	})
	s.Spawn("killer", -1, func(p *sim.Proc) {
		p.Delay(2000)
		k.Kill(w)
	})
	s.Run()
	if !otherWoke {
		t.Error("surviving waiter never woke")
	}
	if len(e.waits) != 0 {
		t.Errorf("%d wait entries leaked", len(e.waits))
	}
	if w.State() != StateKilled {
		t.Errorf("w state %v, want killed", w.State())
	}
}

// Two tasks cross-blocked on each other's single-slot queues form an IPC
// deadlock core; WaitPeers exposes the cycle.
func TestIPCDeadlockCoreQueueCycle(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	ma := k.NewQueue("ma", 1)
	mb := k.NewQueue("mb", 1)
	ta := k.CreateTask("a", 0, 1, 0, func(c *TaskCtx) {
		ma.Recv(c)
		mb.Send(c, 1)
	})
	tb := k.CreateTask("b", 1, 1, 0, func(c *TaskCtx) {
		mb.Recv(c)
		ma.Send(c, 2)
	})
	// Declare the (source-visible) topology so the wait-for graph sees the
	// senders that never got to send.
	ma.BindSender(tb)
	mb.BindSender(ta)
	s.Run()
	core := k.IPCDeadlockCore()
	if len(core) != 2 || core[0] != "a" || core[1] != "b" {
		t.Fatalf("core = %v, want [a b]", core)
	}
	peers := k.WaitPeers(ta)
	if len(peers) != 1 || peers[0] != tb {
		t.Errorf("WaitPeers(a) = %v, want [b]", names(peers))
	}
	if got := k.IPCWaitsOn(ta); got != "queue:ma" {
		t.Errorf("IPCWaitsOn(a) = %q", got)
	}
}

func names(ts []*Task) []string {
	var out []string
	for _, t := range ts {
		out = append(out, t.Name)
	}
	return out
}

// A receiver whose sender is merely late (sleeping) is rescuable — not core.
// A receiver with no live sender is core even without a cycle (starvation).
func TestIPCDeadlockCoreRescuable(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 3)
	q := k.NewQueue("q", 1)
	orphan := k.NewQueue("orphan", 1)
	k.CreateTask("rx", 0, 1, 0, func(c *TaskCtx) {
		q.Recv(c)
	})
	tx := k.CreateTask("tx", 1, 1, 0, func(c *TaskCtx) {
		c.Sleep(5000)
		q.Send(c, 1)
	})
	starved := k.CreateTask("starved", 2, 1, 0, func(c *TaskCtx) {
		orphan.Recv(c)
	})
	q.BindSender(tx)
	_ = starved
	// Snapshot mid-run, while tx sleeps and rx blocks.
	s.Spawn("probe", -1, func(p *sim.Proc) {
		p.Delay(2000)
		core := k.IPCDeadlockCore()
		if len(core) != 1 || core[0] != "starved" {
			t.Errorf("mid-run core = %v, want [starved]", core)
		}
	})
	s.Run()
	core := k.IPCDeadlockCore()
	if len(core) != 1 || core[0] != "starved" {
		t.Errorf("final core = %v, want [starved]", core)
	}
}

// Mixed lock+IPC cycle: A holds a mutex and blocks receiving from B; B
// blocks on the mutex.  The fixpoint must see through the mutex edge.
func TestIPCDeadlockCoreMixedLockIPC(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	mu := k.NewMutex("mu")
	q := k.NewQueue("q", 1)
	var ta, tb *Task
	ta = k.CreateTask("a", 0, 1, 0, func(c *TaskCtx) {
		mu.Lock(c)
		q.Recv(c) // waits for b, who waits for the mutex
		mu.Unlock(c)
	})
	tb = k.CreateTask("b", 1, 2, 100, func(c *TaskCtx) {
		mu.Lock(c)
		mu.Unlock(c)
		q.Send(c, 1)
	})
	q.BindSender(tb)
	s.Run()
	core := k.IPCDeadlockCore()
	if len(core) != 1 || core[0] != "a" {
		t.Errorf("core = %v, want [a] (b is lock-blocked, not IPC-blocked)", core)
	}
	if peers := k.WaitPeers(tb); len(peers) != 1 || peers[0] != ta {
		t.Errorf("WaitPeers(b) = %v, want [a]", names(peers))
	}
}

func TestRetryPolicyRecvSucceedsOnRetry(t *testing.T) {
	s := sim.New()
	tr := traced(s)
	k := NewKernel(s, 2)
	q := k.NewQueue("q", 1)
	pol := RetryPolicy{Attempts: 3, Timeout: 2000, Backoff: 500}
	var got interface{}
	var ok bool
	k.CreateTask("rx", 0, 1, 0, func(c *TaskCtx) {
		got, ok = q.RecvRetry(c, pol)
	})
	k.CreateTask("tx", 1, 1, 0, func(c *TaskCtx) {
		c.Compute(3500) // first attempt times out at ~2000, second catches it
		q.Send(c, 7)
	})
	s.Run()
	if !ok || got != 7 {
		t.Errorf("got %v ok=%v, want 7 true", got, ok)
	}
	if n := tr.Counters()["ipc.timeout.q"]; n != 1 {
		t.Errorf("ipc.timeout.q = %d, want 1 (one failed attempt)", n)
	}
}

func TestRetryPolicyExhaustion(t *testing.T) {
	s := sim.New()
	tr := traced(s)
	k := NewKernel(s, 1)
	q := k.NewQueue("q", 1)
	pol := RetryPolicy{Attempts: 3, Timeout: 1000, Backoff: 400}
	var ok bool
	var elapsed sim.Cycles
	k.CreateTask("rx", 0, 1, 0, func(c *TaskCtx) {
		start := c.Now()
		_, ok = q.RecvRetry(c, pol)
		elapsed = c.Now() - start
	})
	s.Run()
	if ok {
		t.Error("retry should have exhausted")
	}
	// 3 bounded attempts (~1000 each) + backoffs 400 and 800.
	min := sim.Cycles(3*1000 + 400 + 800)
	if elapsed < min || elapsed > min+2000 {
		t.Errorf("elapsed %d, want ~%d", elapsed, min)
	}
	if n := tr.Counters()["ipc.timeout.q"]; n != 3 {
		t.Errorf("ipc.timeout.q = %d, want 3", n)
	}
}

// IPC trace events and per-endpoint counters, and their absence when
// tracing is off.
func TestIPCTraceCounters(t *testing.T) {
	s := sim.New()
	rec := trace.NewRecorder("ipc")
	s.Rec = rec
	k := NewKernel(s, 2)
	q := k.NewQueue("q", 1)
	k.CreateTask("tx", 0, 1, 0, func(c *TaskCtx) {
		q.Send(c, 1)
		q.Send(c, 2) // blocks: capacity 1
	})
	k.CreateTask("rx", 1, 1, 0, func(c *TaskCtx) {
		c.Compute(3000)
		q.Recv(c)
		q.Recv(c)
	})
	s.Run()
	c := rec.Counters()
	if got := c["ipc.send.q"]; got != 2 {
		t.Errorf("ipc.send.q = %d, want 2", got)
	}
	if got := c["ipc.recv.q"]; got != 2 {
		t.Errorf("ipc.recv.q = %d, want 2", got)
	}
	if got := c["count.ipc.block"]; got == 0 {
		t.Error("no ipc.block events recorded for the full-queue wait")
	}
	found := false
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindIPC && ev.Name == "ipc.send" && ev.Verdict == "q" {
			found = true
			break
		}
	}
	if !found {
		t.Error("no KindIPC ipc.send event in the stream")
	}
}

// Same-seed determinism: an IPC-heavy scenario with timeouts and a
// rendezvous runs byte-identically.
func TestIPCDeterminism(t *testing.T) {
	run := func() (sim.Cycles, uint64, uint64) {
		s := sim.New()
		tr := traced(s)
		k := NewKernel(s, 3)
		q := k.NewQueue("q", 2)
		rv := k.NewQueue("rv", 0)
		e := k.NewEventFlags("ev")
		k.CreateTask("p", 0, 1, 0, func(c *TaskCtx) {
			for i := 0; i < 5; i++ {
				q.SendTimeout(c, i, 800)
				c.Compute(300)
			}
			rv.Send(c, "done")
			e.Set(c, 1)
		})
		k.CreateTask("m", 1, 2, 0, func(c *TaskCtx) {
			for {
				v, ok := q.RecvTimeout(c, 1500)
				if !ok {
					break
				}
				c.Compute(400 + sim.Cycles(v.(int))*10)
			}
			e.Set(c, 2)
		})
		k.CreateTask("z", 2, 3, 0, func(c *TaskCtx) {
			rv.Recv(c)
			e.WaitTimeout(c, 0b11, true, 40000)
		})
		s.Run()
		c := tr.Counters()
		return s.Now(), c["ipc.send.q"], c["ipc.timeout.q"]
	}
	aT, aS, aTO := run()
	bT, bS, bTO := run()
	if aT != bT || aS != bS || aTO != bTO {
		t.Errorf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", aT, aS, aTO, bT, bS, bTO)
	}
}
