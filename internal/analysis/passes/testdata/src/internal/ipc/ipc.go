// Package ipc is golden testdata for the ipc pass: a miniature copy of the
// kernel's message-passing surfaces plus scenarios with and without
// wedgeable topologies.
package ipc

type TaskCtx struct{}

func (c *TaskCtx) Compute(cycles int) {}

type Kernel struct{}

func (k *Kernel) CreateTask(name string, pe, prio, delay int, fn func(c *TaskCtx)) {}
func (k *Kernel) Spawn(name string, prio int, fn func(c *TaskCtx))                 {}
func (k *Kernel) NewQueue(name string, capacity int) *Queue                        { return nil }
func (k *Kernel) NewEventFlags(name string) *EventFlags                            { return nil }

type RetryPolicy struct{ Attempts, Timeout, Backoff int }

type Queue struct{}

func (q *Queue) Send(c *TaskCtx, v int)                          {}
func (q *Queue) SendTimeout(c *TaskCtx, v, d int) bool           { return true }
func (q *Queue) SendRetry(c *TaskCtx, v int, p RetryPolicy) bool { return true }
func (q *Queue) Recv(c *TaskCtx) int                             { return 0 }
func (q *Queue) RecvTimeout(c *TaskCtx, d int) (int, bool)       { return 0, true }
func (q *Queue) RecvRetry(c *TaskCtx, p RetryPolicy) (int, bool) { return 0, true }
func (q *Queue) TryRecv(c *TaskCtx) (int, bool)                  { return 0, true }

type EventFlags struct{}

func (e *EventFlags) Set(c *TaskCtx, bits uint32)                               {}
func (e *EventFlags) Wait(c *TaskCtx, bits uint32, all bool) uint32             { return 0 }
func (e *EventFlags) WaitTimeout(c *TaskCtx, bits uint32, all bool, d int) bool { return true }
func (e *EventFlags) WaitRetry(c *TaskCtx, bits uint32, all bool, p RetryPolicy) bool {
	return true
}

// CrossRecvCycle's two tasks each block receiving the message the other
// would only send afterwards: the classic head-to-head IPC deadlock.
func CrossRecvCycle(k *Kernel) {
	ma := k.NewQueue("ma", 1)
	mb := k.NewQueue("mb", 1)
	k.CreateTask("a", 0, 1, 0, func(c *TaskCtx) {
		ma.Recv(c) // want `potential IPC deadlock: tasks of CrossRecvCycle form a blocking send/recv cycle: a -> b -> a`
		mb.Send(c, 1)
	})
	k.CreateTask("b", 1, 1, 0, func(c *TaskCtx) {
		mb.Recv(c)
		ma.Send(c, 2)
	})
}

// UnmatchedRecv blocks on a queue no other task ever sends to: starvation
// by construction.
func UnmatchedRecv(k *Kernel) {
	q := k.NewQueue("orphan", 4)
	feed := k.NewQueue("feed", 4)
	k.CreateTask("starved", 0, 1, 0, func(c *TaskCtx) {
		q.Recv(c) // want `task starved: blocking recv on orphan has no counterparty among the tasks of UnmatchedRecv`
	})
	k.CreateTask("feeder", 1, 1, 0, func(c *TaskCtx) {
		feed.Send(c, 1)
	})
	k.CreateTask("eater", 1, 2, 0, func(c *TaskCtx) {
		feed.Recv(c)
	})
}

// MatchedPipeline is a clean buffered producer/consumer chain: buffered
// sends are assumed eventually drained, so nothing is reported.
func MatchedPipeline(k *Kernel) {
	q1 := k.NewQueue("stage1", 2)
	q2 := k.NewQueue("stage2", 2)
	k.CreateTask("produce", 0, 1, 0, func(c *TaskCtx) {
		q1.Send(c, 1)
	})
	k.CreateTask("transform", 1, 1, 0, func(c *TaskCtx) {
		v := q1.Recv(c)
		q2.Send(c, v)
	})
	k.CreateTask("consume", 2, 1, 0, func(c *TaskCtx) {
		q2.Recv(c)
	})
}

// RendezvousCycle's capacity-0 queues make every send a rendezvous: two
// tasks sending to each other first can never pair up.
func RendezvousCycle(k *Kernel) {
	r1 := k.NewQueue("rv1", 0)
	r2 := k.NewQueue("rv2", 0)
	k.CreateTask("left", 0, 1, 0, func(c *TaskCtx) {
		r1.Send(c, 1) // want `potential IPC deadlock: tasks of RendezvousCycle form a blocking send/recv cycle: left -> right -> left`
		r2.Recv(c)
	})
	k.CreateTask("right", 1, 1, 0, func(c *TaskCtx) {
		r2.Send(c, 2)
		r1.Recv(c)
	})
}

// CascadeMonitor waits on an event only flagged tasks would set: the wedge
// propagates to it even though its own topology is sound.
func CascadeMonitor(k *Kernel) {
	ma := k.NewQueue("cma", 1)
	mb := k.NewQueue("cmb", 1)
	done := k.NewEventFlags("cdone")
	k.CreateTask("a", 0, 1, 0, func(c *TaskCtx) {
		ma.Recv(c) // want `potential IPC deadlock: tasks of CascadeMonitor form a blocking send/recv cycle: a -> b -> a`
		mb.Send(c, 1)
		done.Set(c, 1)
	})
	k.CreateTask("b", 1, 1, 0, func(c *TaskCtx) {
		mb.Recv(c)
		ma.Send(c, 2)
		done.Set(c, 2)
	})
	k.CreateTask("mon", 2, 5, 0, func(c *TaskCtx) {
		done.Wait(c, 3, true) // want `task mon: blocking event wait on cdone waits only on already-flagged tasks \(a, b\)`
	})
}

// BoundedVariants uses only timeout/retry/try operations, which can never
// block forever: no edges, no reports, even on the cross topology.
func BoundedVariants(k *Kernel) {
	ma := k.NewQueue("bma", 1)
	mb := k.NewQueue("bmb", 1)
	pol := RetryPolicy{Attempts: 3, Timeout: 1000, Backoff: 100}
	k.CreateTask("a", 0, 1, 0, func(c *TaskCtx) {
		ma.RecvTimeout(c, 1000)
		mb.Send(c, 1)
	})
	k.CreateTask("b", 1, 1, 0, func(c *TaskCtx) {
		mb.RecvRetry(c, pol)
		ma.Send(c, 2)
	})
}

// MatchedEvents pairs a blocking wait with a live setter: clean.
func MatchedEvents(k *Kernel) {
	done := k.NewEventFlags("mdone")
	k.CreateTask("worker", 0, 1, 0, func(c *TaskCtx) {
		c.Compute(100)
		done.Set(c, 1)
	})
	k.CreateTask("waiter", 1, 2, 0, func(c *TaskCtx) {
		done.Wait(c, 1, true)
	})
}

// HelperInlining routes the blocking ops through a locally-bound closure:
// the walker must inline it to see the cycle.
func HelperInlining(k *Kernel) {
	ma := k.NewQueue("hma", 1)
	mb := k.NewQueue("hmb", 1)
	swap := func(c *TaskCtx, in, out *Queue) {
		in.Recv(c) // want `potential IPC deadlock: tasks of HelperInlining form a blocking send/recv cycle: ha -> hb -> ha`
		out.Send(c, 1)
	}
	k.CreateTask("ha", 0, 1, 0, func(c *TaskCtx) {
		swap(c, ma, mb)
	})
	k.CreateTask("hb", 1, 1, 0, func(c *TaskCtx) {
		swap(c, mb, ma)
	})
}

// ExpectedFragile carries the directive: the cycle is intentional, so the
// pass stays silent but still records it in its result (the chaos-campaign
// cross-check consumes it).
//
//deltalint:ipc-expected golden test of the suppression directive
func ExpectedFragile(k *Kernel) {
	ma := k.NewQueue("ema", 1)
	mb := k.NewQueue("emb", 1)
	k.CreateTask("ea", 0, 1, 0, func(c *TaskCtx) {
		ma.Recv(c)
		mb.Send(c, 1)
	})
	k.CreateTask("eb", 1, 1, 0, func(c *TaskCtx) {
		mb.Recv(c)
		ma.Send(c, 2)
	})
}

// SelfFeeder seeds and drains its own queue: a self-send satisfies the
// recv, so nothing is reported and no edge is created.
func SelfFeeder(k *Kernel) {
	q := k.NewQueue("selfq", 1)
	k.CreateTask("loop", 0, 1, 0, func(c *TaskCtx) {
		q.Send(c, 0)
		for i := 0; i < 4; i++ {
			q.Recv(c)
			q.Send(c, i)
		}
	})
}

// DuplicateWaitEdges: a blocks on two queues only b feeds, so it has two
// wait edges to b, and b blocks on a's queue.  The one ring a -> b -> a is
// reported once, not once per parallel edge.
func DuplicateWaitEdges(k *Kernel) {
	q1 := k.NewQueue("dq1", 1)
	q2 := k.NewQueue("dq2", 1)
	back := k.NewQueue("dback", 1)
	k.CreateTask("a", 0, 1, 0, func(c *TaskCtx) {
		q1.Recv(c) // want `potential IPC deadlock: tasks of DuplicateWaitEdges form a blocking send/recv cycle: a -> b -> a`
		q2.Recv(c)
		back.Send(c, 1)
	})
	k.CreateTask("b", 1, 1, 0, func(c *TaskCtx) {
		back.Recv(c)
		q1.Send(c, 1)
		q2.Send(c, 2)
	})
}

// DynamicNames creates its two ring tasks under names it computes, so each
// takes a label unique in the scope, DynamicNames#<n> by creation order, and
// neither takes the scope's own name.  The spawned proc is one of the
// scope's tasks too: as the only sender on feed it is the counterparty of
// the first ring task's receive, which is therefore not unmatched.
func DynamicNames(k *Kernel, name func(i int) string) {
	feed := k.NewQueue("feed", 1)
	ab := k.NewQueue("ab", 1)
	ba := k.NewQueue("ba", 1)
	k.CreateTask(name(0), 0, 1, 0, func(c *TaskCtx) {
		ab.Recv(c) // want `potential IPC deadlock: tasks of DynamicNames form a blocking send/recv cycle: DynamicNames#0 -> DynamicNames#1 -> DynamicNames#0`
		feed.Recv(c)
		ba.Send(c, 1)
	})
	k.CreateTask(name(1), 1, 1, 0, func(c *TaskCtx) {
		ba.Recv(c)
		ab.Send(c, 2)
	})
	k.Spawn(name(2), 2, func(c *TaskCtx) {
		feed.Send(c, 3)
	})
}
