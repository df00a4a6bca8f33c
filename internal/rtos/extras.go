package rtos

import (
	"fmt"

	"deltartos/internal/sim"
)

// This file holds the remaining Atalanta v0.3 services: time-sliced
// round-robin scheduling and barriers.

// EnableTimeSlice turns on round-robin time slicing for pe: a running task
// that exhausts `quantum` cycles while an equal-priority task is ready is
// rotated to the back of its priority class.  Atalanta's round-robin
// scheduling mode (Section 2.1).
func (k *Kernel) EnableTimeSlice(pe int, quantum sim.Cycles) {
	if pe < 0 || pe >= k.numPE {
		panic(fmt.Sprintf("rtos: invalid PE %d", pe))
	}
	if quantum == 0 {
		panic("rtos: zero quantum")
	}
	k.S.Spawn(fmt.Sprintf("slicer.pe%d", pe), -1, func(p *sim.Proc) {
		for {
			p.Delay(quantum)
			if !k.aliveForSlicing(pe) {
				return // nothing left to slice; let the simulation drain
			}
			k.rotate(pe)
		}
	})
}

// aliveForSlicing reports whether any task on pe could still use the CPU
// (running, ready, sleeping or not yet started).  When every task is done
// or blocked indefinitely the slicer retires so the event queue can drain.
func (k *Kernel) aliveForSlicing(pe int) bool {
	for _, t := range k.tasks {
		if t.PE != pe {
			continue
		}
		//deltalint:partial set-membership test; the other states cannot become runnable by themselves
		switch t.state {
		case StateRunning, StateReady, StateSleeping, StateDormant:
			return true
		}
	}
	return false
}

// rotate performs one round-robin rotation on pe if an equal-priority task
// is waiting.
func (k *Kernel) rotate(pe int) {
	cur := k.current[pe]
	if cur == nil {
		return
	}
	q := k.ready[pe]
	if len(q) == 0 || q[0].CurPrio != cur.CurPrio {
		return
	}
	next := q[0]
	k.ready[pe] = q[1:]
	cur.state = StateReady
	k.readyInsert(cur, false)
	k.trace(pe, cur.Name, "timeslice")
	k.current[pe] = next
	next.state = StateRunning
	next.needCtx = true
	k.ContextSwitches++
	k.trace(pe, next.Name, "dispatch")
	if cur.sleeping {
		cur.sig.WakeAll()
	}
	next.sig.WakeAll()
}

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

// TaskReport is one row of the kernel's CPU accounting summary.
type TaskReport struct {
	Name        string
	PE          int
	State       TaskState
	CPUCycles   sim.Cycles
	Preemptions int
}

// CPUReport returns per-task CPU accounting in creation order, plus the
// per-PE busy totals — the utilization view a design-space exploration run
// inspects after a simulation.
func (k *Kernel) CPUReport() (tasks []TaskReport, peBusy []sim.Cycles) {
	peBusy = make([]sim.Cycles, k.numPE)
	for _, t := range k.tasks {
		tasks = append(tasks, TaskReport{
			Name: t.Name, PE: t.PE, State: t.state,
			CPUCycles: t.CPUCycles, Preemptions: t.Preemptions,
		})
		peBusy[t.PE] += t.CPUCycles
	}
	return tasks, peBusy
}
