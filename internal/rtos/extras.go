package rtos

// This file holds the Atalanta v0.3 barrier service (the parallel SPLASH
// radix sort's phase barrier).

// Barrier synchronizes n tasks: each Wait blocks until all n arrive, then
// every waiter is released (sense-reversing, reusable).  Its waiters stay in
// arrival order, not in a WaitQueue: the release readies them in that order.
type Barrier struct {
	k       *Kernel
	Name    string
	n       int
	arrived int
	gen     int
	waiters []*Task
	// Instrumentation.
	Rounds int
}

// NewBarrier creates a barrier for n participants.
func (k *Kernel) NewBarrier(name string, n int) *Barrier {
	if n <= 0 {
		panic("rtos: barrier needs at least one participant")
	}
	b := &Barrier{k: k, Name: name, n: n}
	k.syncObjs = append(k.syncObjs, b)
	return b
}

// purgeTask drops a killed task's pending arrival so the remaining
// participants are not counted against a corpse (Kernel.Kill).  Note the
// barrier still expects n participants on future rounds.
func (b *Barrier) purgeTask(t *Task) {
	for i, w := range b.waiters {
		if w == t {
			b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
			b.arrived--
			return
		}
	}
}

// Wait blocks the calling task until all participants have arrived.
func (b *Barrier) Wait(c *TaskCtx) {
	c.serviceOverhead(3)
	b.arrived++
	if b.arrived == b.n {
		// Last arrival: release everyone and reset.
		b.arrived = 0
		b.gen++
		b.Rounds++
		for _, t := range b.waiters {
			b.k.makeReady(t)
		}
		b.waiters = nil
		return
	}
	t := c.t
	gen := b.gen
	b.waiters = append(b.waiters, t)
	b.k.blockCurrent(t, "barrier:"+b.Name)
	for t.state == StateBlocked && b.gen == gen {
		t.sig.Wait(c.p)
	}
	c.ensureRunning()
}
