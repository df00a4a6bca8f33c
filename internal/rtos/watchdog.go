package rtos

import (
	"fmt"

	"deltartos/internal/sim"
)

// Watchdog is a per-task deadline timer built on the simulator's timeout
// machinery: a timer proc sleeps until the (absolute) deadline and, if the
// watched task has not completed and the timer was neither kicked nor
// stopped, fires the expiry handler.  Recovery policies use the handler to
// kill the wedged task and reclaim its resources.
type Watchdog struct {
	k        *Kernel
	t        *Task
	deadline sim.Cycles // absolute expiry time
	gen      int        // re-arm generation guard (Kick/Stop invalidation)
	stopped  bool
	onExpire func(w *Watchdog, p *sim.Proc)
}

// Watch arms a watchdog for t expiring at the absolute time deadline.
// onExpire runs in the timer's own simulation proc (not a task context), so
// it may call Kernel.Kill, reclaim resources, and charge recovery time via
// p.Delay.  A watchdog whose task has completed when the deadline passes
// expires silently; a killed task's watchdog still fires, so the handler can
// reclaim whatever the corpse holds.
func (k *Kernel) Watch(t *Task, deadline sim.Cycles, onExpire func(w *Watchdog, p *sim.Proc)) *Watchdog {
	w := &Watchdog{k: k, t: t, deadline: deadline, onExpire: onExpire}
	w.arm()
	return w
}

// Task returns the watched task.
func (w *Watchdog) Task() *Task { return w.t }

func (w *Watchdog) arm() {
	w.gen++
	g := w.gen
	k := w.k
	k.S.Spawn(fmt.Sprintf("wdt.%s.%d", w.t.Name, g), -1, func(p *sim.Proc) {
		if w.deadline > p.Now() {
			p.Delay(w.deadline - p.Now())
		}
		if w.gen != g || w.stopped {
			return // kicked or stopped while sleeping
		}
		if w.t.state == StateDone {
			return // completed in time; nothing to watch any more
		}
		// A Killed task still expires: its corpse may hold locks or memory
		// blocks that only the expiry handler's reclaim path can free.
		k.trace(w.t.PE, w.t.Name, "wdt:expire")
		if w.onExpire != nil {
			w.onExpire(w, p)
		}
	})
}

// Kick re-arms the watchdog with a new absolute deadline, invalidating the
// pending timer.
func (w *Watchdog) Kick(deadline sim.Cycles) {
	if w.stopped {
		return
	}
	w.deadline = deadline
	w.arm()
}

// Stop disarms the watchdog permanently.
func (w *Watchdog) Stop() {
	w.stopped = true
	w.gen++
}
