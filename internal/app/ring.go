package app

import (
	"deltartos/internal/rtos"
	"deltartos/internal/sim"
)

// The producer/consumer ring: four tasks joined by four capacity-1 queues,
// each seeding one token and then circulating tokens for ringIters rounds
// (recv from its own queue, compute, send to the next), with a monitor
// waiting on a completion event group.  Fault-free the ring always drains —
// every queue sees ringIters+1 sends against ringIters recvs plus one slot
// of capacity — but each token lost to a message fault thins the circulation
// until, with all four gone, every task wedges in its recv.  The timeout
// variant bounds every operation and re-mints lost tokens, so it degrades
// instead of wedging.  The blocking variant is the runtime half of the
// deltalint ipc pass cross-check: the pass must flag every task the wedge
// can capture.
const (
	ringIters   = 6    // circulation rounds per task
	ringWork    = 800  // compute between recv and send
	ringTimeout = 4000 // per-attempt bound in the timeout variant
	ringBackoff = 500  // base retry backoff
	ringRetries = 4    // attempts per bounded operation
)

// RingTaskNames lists the ring scenario's tasks (fault.Profile targets).
var RingTaskNames = []string{"ring0", "ring1", "ring2", "ring3", "ringmon"}

// RingEndpointNames lists the ring's queues (fault.Profile endpoints).
var RingEndpointNames = []string{"ring.q0", "ring.q1", "ring.q2", "ring.q3"}

// RingWorld is a built-but-not-run ring scenario.
type RingWorld struct {
	S    *sim.Sim
	K    *rtos.Kernel
	Done *rtos.EventFlags

	// Completed counts ring tasks that finished all their rounds.
	//deltalint:race-expected statistics counter; increments are atomic in the discrete-event model
	Completed int
	// Regenerated counts tokens the timeout variant re-minted after a
	// bounded recv exhausted its retries (a lost-token symptom).
	//deltalint:race-expected statistics counter; increments are atomic in the discrete-event model
	Regenerated int
	// SendFailures counts bounded sends that exhausted their retries.
	//deltalint:race-expected statistics counter; increments are atomic in the discrete-event model
	SendFailures int
}

// BuildRingScenario constructs the fully-blocking ring on a 4-PE MPSoC
// without running it.  Every recv, send and event wait is unbounded, so the
// scenario is deliberately fragile: drop enough tokens and the ring — and
// the monitor behind it — wedges irreducibly.
//
//deltalint:ipc-expected the blocking ring is a send/recv cycle: message loss can wedge it
func BuildRingScenario(opts ...Option) *RingWorld {
	s := newScenarioSim(opts)
	k := rtos.NewKernel(s, 4)
	q0 := k.NewQueue("ring.q0", 1)
	q1 := k.NewQueue("ring.q1", 1)
	q2 := k.NewQueue("ring.q2", 1)
	q3 := k.NewQueue("ring.q3", 1)
	done := k.NewEventFlags("ring.done")
	w := &RingWorld{S: s, K: k, Done: done}

	t0 := k.CreateTask("ring0", 0, 1, 0, func(c *rtos.TaskCtx) {
		q0.Send(c, 0) // seed token
		for i := 0; i < ringIters; i++ {
			q0.Recv(c)
			c.Compute(ringWork)
			q1.Send(c, 0)
		}
		w.Completed++
		recordTaskAccess(c, "w.Completed", true)
		done.Set(c, 1<<0)
	})
	t1 := k.CreateTask("ring1", 1, 1, 0, func(c *rtos.TaskCtx) {
		q1.Send(c, 1)
		for i := 0; i < ringIters; i++ {
			q1.Recv(c)
			c.Compute(ringWork)
			q2.Send(c, 1)
		}
		w.Completed++
		recordTaskAccess(c, "w.Completed", true)
		done.Set(c, 1<<1)
	})
	t2 := k.CreateTask("ring2", 2, 1, 0, func(c *rtos.TaskCtx) {
		q2.Send(c, 2)
		for i := 0; i < ringIters; i++ {
			q2.Recv(c)
			c.Compute(ringWork)
			q3.Send(c, 2)
		}
		w.Completed++
		recordTaskAccess(c, "w.Completed", true)
		done.Set(c, 1<<2)
	})
	t3 := k.CreateTask("ring3", 3, 1, 0, func(c *rtos.TaskCtx) {
		q3.Send(c, 3)
		for i := 0; i < ringIters; i++ {
			q3.Recv(c)
			c.Compute(ringWork)
			q0.Send(c, 3)
		}
		w.Completed++
		recordTaskAccess(c, "w.Completed", true)
		done.Set(c, 1<<3)
	})
	k.CreateTask("ringmon", 0, 5, 0, func(c *rtos.TaskCtx) {
		done.Wait(c, 0b1111, true)
	})

	// Declare the source-visible topology so the wait-for graph knows each
	// endpoint's counterparties even for sends that never executed.
	q0.BindSender(t3)
	q1.BindSender(t0)
	q2.BindSender(t1)
	q3.BindSender(t2)
	done.BindSetter(t0)
	done.BindSetter(t1)
	done.BindSetter(t2)
	done.BindSetter(t3)
	return w
}

// BuildRingTimeoutScenario constructs the degradation-hardened ring: the
// same topology, but every operation is bounded by a retry policy and a
// recv that exhausts its retries re-mints the token it evidently lost.  No
// operation blocks forever, so message faults cost throughput, never
// liveness.
func BuildRingTimeoutScenario(opts ...Option) *RingWorld {
	s := newScenarioSim(opts)
	k := rtos.NewKernel(s, 4)
	q0 := k.NewQueue("ring.q0", 1)
	q1 := k.NewQueue("ring.q1", 1)
	q2 := k.NewQueue("ring.q2", 1)
	q3 := k.NewQueue("ring.q3", 1)
	done := k.NewEventFlags("ring.done")
	w := &RingWorld{S: s, K: k, Done: done}
	pol := rtos.RetryPolicy{Attempts: ringRetries, Timeout: ringTimeout, Backoff: ringBackoff}

	stage := func(c *rtos.TaskCtx, token int, in, out *rtos.Queue, bit uint32) {
		in.SendRetry(c, token, pol) // seed token
		for i := 0; i < ringIters; i++ {
			if _, ok := in.RecvRetry(c, pol); !ok {
				// The token is gone (dropped, or stuck behind a jam): mint a
				// replacement instead of waiting for one that may never come.
				w.Regenerated++
				recordTaskAccess(c, "w.Regenerated", true)
			}
			c.Compute(ringWork)
			if !out.SendRetry(c, token, pol) {
				w.SendFailures++
				recordTaskAccess(c, "w.SendFailures", true)
			}
		}
		w.Completed++
		recordTaskAccess(c, "w.Completed", true)
		done.Set(c, bit)
	}
	k.CreateTask("ring0", 0, 1, 0, func(c *rtos.TaskCtx) { stage(c, 0, q0, q1, 1<<0) })
	k.CreateTask("ring1", 1, 1, 0, func(c *rtos.TaskCtx) { stage(c, 1, q1, q2, 1<<1) })
	k.CreateTask("ring2", 2, 1, 0, func(c *rtos.TaskCtx) { stage(c, 2, q2, q3, 1<<2) })
	k.CreateTask("ring3", 3, 1, 0, func(c *rtos.TaskCtx) { stage(c, 3, q3, q0, 1<<3) })
	k.CreateTask("ringmon", 0, 5, 0, func(c *rtos.TaskCtx) {
		done.WaitRetry(c, 0b1111, true, rtos.RetryPolicy{
			Attempts: ringRetries * 8, Timeout: ringTimeout, Backoff: ringBackoff,
		})
	})
	return w
}
