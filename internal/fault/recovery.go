package fault

// Recovery: watchdog-driven victim selection, kill, reclaim and restart.
// The counterpart of the plan — faults make tasks wedge, recovery makes the
// system degrade instead of dying.

import (
	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/socdmmu"
	"deltartos/internal/soclc"
	"deltartos/internal/trace"
)

// Policy selects what happens to a victim after its resources are
// reclaimed.
type Policy int

// Policies.
const (
	// RestartOnce revives each victim at most once; a second kill abandons
	// it.
	RestartOnce Policy = iota
	// Abandon never restarts victims.
	Abandon
)

// RecoveryOverheadCycles is the fixed cost of one recovery action: victim
// TCB teardown, lock-table walk and allocation-table walk, charged on the
// watchdog's timer context.
const RecoveryOverheadCycles = 120

// Recovery drives watchdog-based deadlock/hang recovery for one kernel.
type Recovery struct {
	k      *rtos.Kernel
	plan   *Plan         // may be nil: recovery works without injection
	locks  soclc.Manager // may be nil
	mem    *socdmmu.Unit
	policy Policy
	budget sim.Cycles // per-task watchdog budget
	max    int        // recovery cap before giving up (0 = unlimited)

	watchdogs []*rtos.Watchdog

	// Instrumentation.
	Recoveries      int
	Restarted       int
	Abandoned       int
	ReclaimedLocks  int
	ReclaimedShorts int
	ReclaimedBlocks int
	Latencies       []sim.Cycles // fault-to-reclaimed, one per recovery
	GaveUp          bool         // recovery cap hit; run reported wedged
}

// NewRecovery builds a recovery harness.  plan, locks and mem are each
// optional.  budget is the per-task watchdog allowance; max caps the number
// of recovery actions (0 = unlimited).
func NewRecovery(k *rtos.Kernel, plan *Plan, locks soclc.Manager, mem *socdmmu.Unit, policy Policy, budget sim.Cycles, max int) *Recovery {
	return &Recovery{k: k, plan: plan, locks: locks, mem: mem, policy: policy, budget: budget, max: max}
}

// WatchAll arms one watchdog per existing task, each expiring budget cycles
// from now.  Call after task creation, before the simulation runs.
func (r *Recovery) WatchAll() {
	deadline := r.k.S.Now() + r.budget
	for _, t := range r.k.Tasks() {
		r.watchdogs = append(r.watchdogs, r.k.Watch(t, deadline, r.onExpire))
	}
}

// onExpire is the watchdog expiry handler: select a victim, recover, re-arm.
func (r *Recovery) onExpire(w *rtos.Watchdog, pr *sim.Proc) {
	if r.max > 0 && r.Recoveries >= r.max {
		r.GaveUp = true
		return
	}
	if t := w.Task(); t.State() == rtos.StateKilled {
		// The task died outside any recovery action (a crash fault killed
		// it directly).  Its corpse may wedge nobody — so no waiter's chain
		// ever reaches it — yet still hold locks or allocation blocks.
		// Reclaim them here and retire the watchdog; a corpse needs no
		// further deadline.
		if r.holdingCount(t) > 0 {
			r.Recoveries++
			r.traceFault(pr.Now(), "recover.reclaim", t.Name)
			pr.Delay(RecoveryOverheadCycles)
			base := r.recoveryBase(pr)
			r.reclaim(t)
			r.finish(pr, base)
		}
		w.Stop()
		return
	}
	r.Recover(pr, w.Task())
	// Every surviving task gets a fresh budget: the recovery perturbed the
	// schedule, so stale deadlines would trigger cascade kills.
	for _, wd := range r.watchdogs {
		wd.Kick(pr.Now() + r.budget)
	}
}

// holdingCount is the number of resources (long locks + allocation blocks)
// t still owns — nonzero means a corpse worth reclaiming.
func (r *Recovery) holdingCount(t *rtos.Task) int {
	n := 0
	if r.locks != nil {
		n += len(r.locks.Holdings(t))
	}
	if r.mem != nil {
		for _, addr := range r.mem.Live() {
			if r.mem.Tag(addr) == t.Name {
				n++
			}
		}
	}
	return n
}

// recoveryBase is the reference time recovery latency is measured from: the
// earliest unacknowledged fault, else now.
func (r *Recovery) recoveryBase(pr *sim.Proc) sim.Cycles {
	if r.plan != nil {
		if ft, ok := r.plan.oldestUnacked(); ok {
			return ft
		}
	}
	return pr.Now()
}

// waitChain walks the mixed wait-for graph from t: the lock manager's
// holder edges plus the kernel's IPC endpoint edges (blocked receiver ->
// senders, blocked sender -> receivers, event waiter -> setters).  BFS with
// deterministic push order; t is always first.
func (r *Recovery) waitChain(t *rtos.Task) []*rtos.Task {
	chain := []*rtos.Task{t}
	seen := map[*rtos.Task]bool{t: true}
	for i := 0; i < len(chain); i++ {
		cur := chain[i]
		var next []*rtos.Task
		if r.locks != nil {
			next = append(next, r.locks.WaitChain(cur)...)
		}
		next = append(next, r.k.WaitPeers(cur)...)
		for _, p := range next {
			if !seen[p] {
				seen[p] = true
				chain = append(chain, p)
			}
		}
	}
	return chain
}

// selectVictim picks the lowest-priority live task on the suspect's mixed
// wait-for chain (the suspect itself when it isn't waiting on anything).
func (r *Recovery) selectVictim(suspect *rtos.Task) *rtos.Task {
	chain := r.waitChain(suspect)
	victim := suspect
	for _, t := range chain {
		//deltalint:partial dead tasks are skipped; every live state is a victim candidate
		switch t.State() {
		case rtos.StateDone, rtos.StateKilled:
			continue
		}
		if t.CurPrio > victim.CurPrio {
			victim = t
		}
	}
	return victim
}

// reclaim force-releases everything t holds across the lock system and the
// allocator.
func (r *Recovery) reclaim(t *rtos.Task) {
	if r.locks != nil {
		longs, shorts := r.locks.ReclaimOwnedBy(t)
		r.ReclaimedLocks += len(longs)
		r.ReclaimedShorts += len(shorts)
	}
	if r.mem != nil {
		r.ReclaimedBlocks += len(r.mem.ReclaimOwnedBy(t.Name))
	}
}

// Recover runs one recovery action against the suspect's wait-for chain.
// If the chain leads to a corpse — a task that completed or was already
// killed while still holding locks (the lost-release shape) — the corpse's
// resources are reclaimed without killing anyone.  Otherwise the selected
// live victim is killed, its resources reclaimed, and it is restarted or
// abandoned per policy.  Runs on any non-task proc (a watchdog timer, a
// detection monitor).
func (r *Recovery) Recover(pr *sim.Proc, suspect *rtos.Task) {
	base := r.recoveryBase(pr)
	for _, t := range r.waitChain(suspect) {
		st := t.State()
		if (st == rtos.StateDone || st == rtos.StateKilled) && r.holdingCount(t) > 0 {
			r.Recoveries++
			r.traceFault(pr.Now(), "recover.reclaim", t.Name)
			pr.Delay(RecoveryOverheadCycles)
			r.reclaim(t)
			r.finish(pr, base)
			return
		}
	}
	victim := r.selectVictim(suspect)
	r.Recoveries++
	r.traceFault(pr.Now(), "recover.kill", victim.Name)
	r.k.Kill(victim)
	pr.Delay(RecoveryOverheadCycles)
	r.reclaim(victim)
	r.finish(pr, base)
	if r.policy == RestartOnce && victim.Restarts < 1 {
		if err := r.k.Restart(victim); err == nil {
			r.Restarted++
			r.traceFault(pr.Now(), "recover.restart", victim.Name)
			return
		}
	}
	r.Abandoned++
	r.traceFault(pr.Now(), "recover.abandon", victim.Name)
}

// finish books the recovery latency and acknowledges the faults it covered.
func (r *Recovery) finish(pr *sim.Proc, base sim.Cycles) {
	if r.plan != nil {
		r.plan.ackFired(pr.Now())
	}
	r.Latencies = append(r.Latencies, pr.Now()-base)
}

// MeanLatency returns the average fault-to-reclaimed latency in cycles.
func (r *Recovery) MeanLatency() float64 {
	if len(r.Latencies) == 0 {
		return 0
	}
	var sum sim.Cycles
	for _, l := range r.Latencies {
		sum += l
	}
	return float64(sum) / float64(len(r.Latencies))
}

func (r *Recovery) traceFault(now sim.Cycles, name, verdict string) {
	if rec := r.k.S.Rec; rec != nil {
		rec.Record(trace.Event{
			Cycle: now, PE: -1, Proc: "recovery",
			Kind: trace.KindFault, Name: name, Arg: -1, Verdict: verdict,
		})
	}
}
