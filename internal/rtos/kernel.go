// Package rtos implements an Atalanta-like shared-memory multiprocessor RTOS
// kernel (Sun, Blough & Mooney, GIT-CC-02-19) on top of the MPSoC simulator:
// the software half of every configured system in Table 3.
//
// Like Atalanta v0.3, the kernel code and all kernel structures live in
// shared L2 memory: every processing element executes the same kernel and
// every kernel service pays for its shared-memory accesses over the bus.
// Supported services are the part of the paper's Section 2.1 list that its
// experiments use: task creation, preemptive priority scheduling (FIFO
// within a priority level), plain mutexes, message queues (a capacity-1
// queue is the mailbox), event flags, barriers, and interrupt-driven device
// waits.
// The lock priority protocols (software priority inheritance and the
// SoCLC's IPCP) live in package soclc and re-rank tasks through
// Kernel.SetTaskPriority.
//
// Priorities: smaller number = more important ("task_1 has priority 1, the
// highest" in Section 5.5).
package rtos

import (
	"fmt"
	"strings"

	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

// TaskState enumerates the TCB states.
type TaskState int

// Task states.
const (
	StateDormant TaskState = iota
	StateReady
	StateRunning
	StateBlocked
	StateSleeping
	StateDone
	// StateKilled is a task terminated by Kernel.Kill (watchdog or deadlock
	// recovery) before its body completed.  A killed task can be revived
	// with Kernel.Restart.
	StateKilled
)

func (st TaskState) String() string {
	switch st {
	case StateDormant:
		return "dormant"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateSleeping:
		return "sleeping"
	case StateDone:
		return "done"
	case StateKilled:
		return "killed"
	}
	return fmt.Sprintf("TaskState(%d)", int(st))
}

// Task is a task control block.
type Task struct {
	k        *Kernel
	ID       int
	Name     string
	PE       int
	BasePrio int
	CurPrio  int // may be raised by the soclc lock protocols (SetTaskPriority)
	state    TaskState

	proc     *sim.Proc
	sig      *sim.Signal // the task's private wake channel
	body     func(c *TaskCtx)
	startAt  sim.Cycles
	gen      uint64 // sleep-timer generation guard
	sleeping bool   // parked inside an interruptible Compute chunk
	needCtx  bool   // charge a context switch on next resume
	killed   bool   // unwind at the next scheduling point (Kernel.Kill)

	// Instrumentation.
	FinishedAt    sim.Cycles
	finishedValid bool
	blockedOn     string
	Restarts      int        // times the task was revived after a kill
	KilledAt      sim.Cycles // time of the most recent kill
	blockStart    sim.Cycles // start of the open attributed blocking episode
	blockAttrib   bool       // a blocking episode is open (recorder attached)
}

// State returns the task's current scheduling state.
func (t *Task) State() TaskState { return t.state }

// BlockedOn names the object the task is blocked on ("" when not blocked).
func (t *Task) BlockedOn() string { return t.blockedOn }

// Finished reports whether the task body ran to completion, and when.
func (t *Task) Finished() (sim.Cycles, bool) { return t.FinishedAt, t.finishedValid }

// Kernel is the shared RTOS instance.
type Kernel struct {
	S     *sim.Sim
	numPE int

	current []*Task   // per-PE running task
	ready   [][]*Task // per-PE ready queue, priority order then FIFO
	tasks   []*Task

	misuseFn func(error) bool
	finj     FaultInjector
	ipcInj   IPCInjector
	syncObjs []waitPurger

	// TraceFn, when set, receives the scheduling events (Figure 20-style
	// execution traces): the same KindSched events the simulation's
	// recorder takes.
	TraceFn func(ev trace.Event)
}

// NewKernel builds a kernel for numPE processing elements.
func NewKernel(s *sim.Sim, numPE int) *Kernel {
	if numPE <= 0 {
		panic("rtos: need at least one PE")
	}
	return &Kernel{
		S:       s,
		numPE:   numPE,
		current: make([]*Task, numPE),
		ready:   make([][]*Task, numPE),
	}
}

// Tasks returns all created tasks.
func (k *Kernel) Tasks() []*Task { return k.tasks }

// trace emits the scheduling event "sched.<what>" of task on pe to TraceFn
// and to the recorder, whichever is attached.
func (k *Kernel) trace(pe int, task, what string) {
	r := k.S.Rec
	if r == nil && k.TraceFn == nil {
		return
	}
	ev := trace.Event{
		Cycle: k.S.Now(), PE: pe, Proc: task,
		Kind: trace.KindSched, Name: "sched." + what, Arg: -1,
	}
	if k.TraceFn != nil {
		k.TraceFn(ev)
	}
	if r != nil {
		r.Record(ev)
	}
}

// CreateTask registers a task pinned to a PE with a base priority, starting
// at sim time startAt.  Smaller prio = more important.
func (k *Kernel) CreateTask(name string, pe, prio int, startAt sim.Cycles, body func(c *TaskCtx)) *Task {
	if pe < 0 || pe >= k.numPE {
		panic(fmt.Sprintf("rtos: task %q pinned to invalid PE %d", name, pe))
	}
	t := &Task{
		k: k, ID: len(k.tasks), Name: name, PE: pe,
		BasePrio: prio, CurPrio: prio,
		state: StateDormant, startAt: startAt, body: body,
	}
	k.tasks = append(k.tasks, t)
	t.sig = k.S.NewSignal("task." + name)
	k.spawnTaskProc(t, t.startAt)
	return t
}

// taskKill is the panic sentinel that unwinds a killed task's body back to
// the spawn wrapper (Go's substitute for the context teardown a real kernel
// performs when it deletes a TCB).
type taskKill struct{ t *Task }

// spawnTaskProc starts (or re-starts) the simulation proc that runs t's
// body, unwinding cleanly if the task is killed mid-flight.
func (k *Kernel) spawnTaskProc(t *Task, delay sim.Cycles) {
	t.proc = k.S.Spawn("task."+t.Name, t.PE, func(p *sim.Proc) {
		if delay > 0 {
			p.Delay(delay)
		}
		defer func() {
			if r := recover(); r != nil {
				ks, ok := r.(taskKill)
				if !ok || ks.t != t {
					panic(r)
				}
				k.finishKill(t)
			}
		}()
		k.makeReady(t)
		c := &TaskCtx{k: k, t: t, p: p}
		c.ensureRunning()
		t.body(c)
		k.exitTask(t)
	})
}

// readyInsert places t into its PE's ready queue in priority order, FIFO
// within equal priority.  front inserts ahead of equal priorities (used for
// preempted tasks, which resume before their equals).
func (k *Kernel) readyInsert(t *Task, front bool) {
	q := k.ready[t.PE]
	i := 0
	for i < len(q) {
		if q[i].CurPrio > t.CurPrio || (front && q[i].CurPrio == t.CurPrio) {
			break
		}
		i++
	}
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = t
	k.ready[t.PE] = q
}

func (k *Kernel) readyRemove(t *Task) {
	q := k.ready[t.PE]
	for i, x := range q {
		if x == t {
			k.ready[t.PE] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// makeReady moves a dormant/blocked/sleeping task to ready and reschedules
// its PE (preempting if the task outranks the current one).
func (k *Kernel) makeReady(t *Task) {
	if t.state == StateReady || t.state == StateRunning || t.state == StateDone || t.state == StateKilled {
		return
	}
	k.endBlockEpisode(t)
	t.state = StateReady
	t.blockedOn = ""
	pe := t.PE
	cur := k.current[pe]
	if cur == nil {
		k.dispatch(pe, t)
		return
	}
	if t.CurPrio < cur.CurPrio {
		k.preempt(pe, t)
		return
	}
	k.readyInsert(t, false)
}

// dispatch makes t the running task of pe and wakes it.
func (k *Kernel) dispatch(pe int, t *Task) {
	k.current[pe] = t
	t.state = StateRunning
	t.needCtx = true
	k.trace(pe, t.Name, "dispatch")
	t.sig.WakeAll()
}

// preempt replaces pe's current task with t.
func (k *Kernel) preempt(pe int, t *Task) {
	old := k.current[pe]
	old.state = StateReady
	k.readyInsert(old, true)
	k.trace(pe, old.Name, "preempt")
	k.current[pe] = t
	t.state = StateRunning
	t.needCtx = true
	k.trace(pe, t.Name, "dispatch")
	// Interrupt old's compute chunk so it stops accumulating CPU time, then
	// start the new task.
	if old.sleeping {
		old.sig.WakeAll()
	}
	t.sig.WakeAll()
}

// reschedule releases pe from its current task and dispatches the best ready
// task, if any.
func (k *Kernel) reschedule(pe int) {
	k.current[pe] = nil
	q := k.ready[pe]
	if len(q) == 0 {
		return
	}
	t := q[0]
	k.ready[pe] = q[1:]
	k.dispatch(pe, t)
}

// exitTask terminates the current task.
func (k *Kernel) exitTask(t *Task) {
	t.state = StateDone
	t.FinishedAt = k.S.Now()
	t.finishedValid = true
	k.trace(t.PE, t.Name, "exit")
	if k.current[t.PE] == t {
		k.reschedule(t.PE)
	}
}

// vacate takes t off its PE into state st, tracing what, and dispatches the
// next ready task.  A task preempted between its service's bus charges and
// the point where it leaves the CPU arrives here Ready: it is dropped from
// the ready queue, or it would be dispatched again while away.
func (k *Kernel) vacate(t *Task, st TaskState, what string) {
	if t.state == StateReady {
		k.readyRemove(t)
	}
	t.state = st
	k.trace(t.PE, t.Name, what)
	if k.current[t.PE] == t {
		k.reschedule(t.PE)
	}
}

// blockCurrent parks the PE's current task (state Blocked, on `what`) and
// dispatches the next ready task.  Must be called from t's own context.
func (k *Kernel) blockCurrent(t *Task, what string) {
	t.blockedOn = what
	// Open a blocking episode for the static↔runtime cross-check: it is
	// recorded as one block event when the task leaves the blocked state.
	// Injected faults ("fault:…") are excluded — they model hardware
	// failure, not resource contention, and the static bound does not
	// cover them.
	if r := k.S.Rec; r != nil && !strings.HasPrefix(what, "fault:") {
		t.blockAttrib = true
		t.blockStart = k.S.Now()
	}
	k.vacate(t, StateBlocked, "block:"+what)
}

// endBlockEpisode closes an open blocking episode as one KindBlock event,
// from which the recorder's fold derives the per-task blocking counters.
// The event bypasses TraceFn: it is not a scheduling event.
func (k *Kernel) endBlockEpisode(t *Task) {
	if !t.blockAttrib {
		return
	}
	t.blockAttrib = false
	r := k.S.Rec
	if r == nil {
		return
	}
	r.Record(trace.Event{
		Cycle: t.blockStart, Dur: k.S.Now() - t.blockStart, PE: t.PE, Proc: t.Name,
		Kind: trace.KindBlock, Name: "task.blocked", Arg: -1, Verdict: t.blockedOn,
	})
}

// setPriority changes a task's effective priority, repositioning it in the
// ready queue or triggering preemption as needed (the soclc priority
// inheritance and ceiling protocols use this through SetTaskPriority).
func (k *Kernel) setPriority(t *Task, prio int) {
	if t.CurPrio == prio {
		return
	}
	t.CurPrio = prio
	//deltalint:partial only queued or running tasks re-rank now; others are ranked on wakeup
	switch t.state {
	case StateReady:
		k.readyRemove(t)
		k.readyInsert(t, false)
		// A raised ready task may now outrank its PE's current task.
		cur := k.current[t.PE]
		if cur != nil && t.CurPrio < cur.CurPrio {
			k.readyRemove(t)
			k.preempt(t.PE, t)
		}
	case StateRunning:
		// A lowered running task may have to yield to a ready one.
		q := k.ready[t.PE]
		if len(q) > 0 && q[0].CurPrio < t.CurPrio {
			next := q[0]
			k.ready[t.PE] = q[1:]
			k.preempt(t.PE, next)
		}
	}
}

// Deadlocked returns the names of tasks blocked when the simulation drained.
func (k *Kernel) Deadlocked() []string {
	var out []string
	for _, t := range k.tasks {
		if t.state == StateBlocked {
			out = append(out, t.Name)
		}
	}
	return out
}

// SetMisusePolicy installs the handler consulted when a synchronization or
// memory service detects API misuse (unlocking an unowned mutex, freeing a
// free lock, ...).  The handler returns true to tolerate the misuse as a
// survivable fault event (the service becomes a no-op) or false to fall back
// to the default panic.  A fault-injection harness installs a tolerant
// policy; with no policy attached, misuse keeps panicking — it is genuine
// programmer error.
func (k *Kernel) SetMisusePolicy(fn func(error) bool) { k.misuseFn = fn }

// Misuse reports a detected API misuse to the installed policy and returns
// whether it was tolerated.  With no policy installed it returns false (the
// caller should panic).
func (k *Kernel) Misuse(err error) bool {
	if k.misuseFn == nil {
		return false
	}
	return k.misuseFn(err)
}

// FaultInjector is consulted at task scheduling points when a fault plan is
// attached: it can crash a task, hang it, or stretch its compute chunks.
// All methods must be deterministic functions of their arguments and the
// injector's own (seeded) state.
type FaultInjector interface {
	// CrashNow reports whether t must crash (be killed mid-body) now.
	CrashNow(t *Task, now sim.Cycles) bool
	// HangNow reports whether t must hang (park forever, holding whatever
	// it holds) now.
	HangNow(t *Task, now sim.Cycles) bool
	// OverrunExtra returns extra cycles to add to a compute chunk of n
	// cycles starting now (0 = no fault).
	OverrunExtra(t *Task, n, now sim.Cycles) sim.Cycles
}

// SetFaultInjector attaches a fault injector to the kernel (nil detaches).
func (k *Kernel) SetFaultInjector(fi FaultInjector) { k.finj = fi }

// waitPurger is implemented by kernel sync objects that keep waiter queues;
// Kill uses it to drop a victim from every queue it may sit in.
type waitPurger interface {
	purgeTask(t *Task)
}

// Kill terminates a task from outside its own context (watchdog expiry or
// deadlock recovery).  The task unwinds at its next scheduling point: it is
// woken if blocked or sleeping, removed from kernel sync-object
// wait queues, and its state becomes StateKilled.  Resources held through
// external managers (SoCLC locks, SoCDMMU blocks) are NOT released here —
// recovery reclaims them explicitly.  Reports whether the task was alive.
// Must not be called from the victim's own task context.
func (k *Kernel) Kill(t *Task) bool {
	//deltalint:partial guard clause; every live state falls through to the kill path
	switch t.state {
	case StateDone, StateKilled:
		return false
	}
	t.killed = true
	k.trace(t.PE, t.Name, "kill")
	for _, o := range k.syncObjs {
		o.purgeTask(t)
	}
	//deltalint:partial dormant and ready tasks unwind when next dispatched
	switch t.state {
	case StateBlocked, StateSleeping:
		k.makeReady(t) // wake it so the unwind can run
	case StateRunning:
		if t.sleeping {
			t.sig.WakeAll() // interrupt the compute chunk
		}
	}
	// Dormant and ready tasks unwind when next dispatched.
	return true
}

// finishKill completes a kill from inside the victim's unwound proc.
func (k *Kernel) finishKill(t *Task) {
	k.endBlockEpisode(t)
	t.state = StateKilled
	t.blockedOn = ""
	t.sleeping = false
	t.KilledAt = k.S.Now()
	k.trace(t.PE, t.Name, "killed")
	k.readyRemove(t)
	if k.current[t.PE] == t {
		k.reschedule(t.PE)
	}
}

// Restart revives a killed (or completed) task: the TCB is reset to its base
// priority and the body re-runs from the beginning at the current time.  The
// recovery policy uses this to give a victim another attempt after its
// resources were reclaimed.
func (k *Kernel) Restart(t *Task) error {
	if t.state != StateKilled && t.state != StateDone {
		return fmt.Errorf("rtos: restarting task %s in state %v", t.Name, t.state)
	}
	t.killed = false
	t.state = StateDormant
	t.finishedValid = false
	t.needCtx = false
	t.sleeping = false
	t.blockedOn = ""
	t.blockAttrib = false
	t.CurPrio = t.BasePrio
	t.gen++
	t.Restarts++
	t.sig = k.S.NewSignal(fmt.Sprintf("task.%s.r%d", t.Name, t.Restarts))
	k.trace(t.PE, t.Name, "restart")
	k.spawnTaskProc(t, 0)
	return nil
}

// TaskCtx is the view a task body has of the kernel.
type TaskCtx struct {
	k *Kernel
	t *Task
	p *sim.Proc
}

// Task returns the TCB.
func (c *TaskCtx) Task() *Task { return c.t }

// Kernel returns the owning kernel.
func (c *TaskCtx) Kernel() *Kernel { return c.k }

// Proc returns the underlying simulation proc.
func (c *TaskCtx) Proc() *sim.Proc { return c.p }

// Now returns the current time.
func (c *TaskCtx) Now() sim.Cycles { return c.p.Now() }

// ensureRunning parks the task until the scheduler has selected it, then
// charges any pending context-switch cost.  The check re-runs after the
// context-switch delay: a preemption may land inside it.
func (c *TaskCtx) ensureRunning() {
	t := c.t
	for {
		if t.killed {
			panic(taskKill{t})
		}
		if c.k.current[t.PE] == t {
			if !t.needCtx {
				return
			}
			t.needCtx = false
			c.p.Delay(sim.ContextSwitchCycles)
			continue
		}
		t.sig.Wait(c.p)
	}
}

// Compute consumes n cycles of CPU time, preemptibly: if a higher-priority
// task takes the PE mid-chunk, the remainder is executed after the task is
// re-dispatched.
func (c *TaskCtx) Compute(n sim.Cycles) {
	t := c.t
	remaining := n + c.checkFaults(n)
	for remaining > 0 {
		c.ensureRunning()
		start := c.p.Now()
		t.gen++
		g := t.gen
		rem := remaining
		c.k.S.Spawn(fmt.Sprintf("tmr.%s.%d", t.Name, g), -1, func(tp *sim.Proc) {
			tp.Delay(rem)
			if t.gen == g && t.sleeping {
				t.sig.WakeAll()
			}
		})
		t.sleeping = true
		t.sig.Wait(c.p)
		t.sleeping = false
		elapsed := c.p.Now() - start
		if elapsed > remaining {
			elapsed = remaining
		}
		remaining -= elapsed
	}
}

// checkFaults consults the attached fault injector at the top of a compute
// chunk of n cycles.  It may crash the task (unwind via taskKill), hang it
// (park on "fault:hang" until recovery kills it), or return extra cycles to
// stretch the chunk.  Returns 0 with no injector attached.
func (c *TaskCtx) checkFaults(n sim.Cycles) sim.Cycles {
	fi := c.k.finj
	if fi == nil {
		return 0
	}
	t := c.t
	now := c.p.Now()
	if fi.CrashNow(t, now) {
		t.killed = true
		c.k.trace(t.PE, t.Name, "fault:crash")
		for _, o := range c.k.syncObjs {
			o.purgeTask(t)
		}
		panic(taskKill{t})
	}
	if fi.HangNow(t, now) {
		c.k.trace(t.PE, t.Name, "fault:hang")
		// Only Kernel.Kill releases a hung task; ensureRunning unwinds it
		// right after Park returns.
		c.Park("fault:hang")
	}
	return fi.OverrunExtra(t, n, now)
}

// BusRead performs a words-long read over the shared bus.
func (c *TaskCtx) BusRead(words int) {
	c.ensureRunning()
	c.k.S.Bus.Read(c.p, words)
}

// BusWrite performs a words-long write over the shared bus.
func (c *TaskCtx) BusWrite(words int) {
	c.ensureRunning()
	c.k.S.Bus.Write(c.p, words)
}

// Sleep blocks the task for dt cycles, freeing the PE.
func (c *TaskCtx) Sleep(dt sim.Cycles) {
	c.serviceOverhead(2)
	t := c.t
	c.k.vacate(t, StateSleeping, "sleep")
	t.gen++
	g := t.gen
	c.k.S.Spawn(fmt.Sprintf("slp.%s.%d", t.Name, g), -1, func(tp *sim.Proc) {
		tp.Delay(dt)
		if t.gen == g && t.state == StateSleeping {
			c.k.makeReady(t)
		}
	})
	c.ensureRunning()
}

// SleepUntil blocks until the given absolute time (no-op if already past).
func (c *TaskCtx) SleepUntil(deadline sim.Cycles) {
	now := c.p.Now()
	if deadline <= now {
		return
	}
	c.Sleep(deadline - now)
}

// serviceOverhead charges the fixed cost of a kernel service: trap entry,
// the kernel spin-lock word (one bus RMW), `words` accesses to kernel
// structures in shared memory, and exit.
func (c *TaskCtx) serviceOverhead(words int) {
	c.ensureRunning()
	entry := c.p.Now()
	cost := sim.Cycles(sim.KernelEntryCycles + sim.KernelExitCycles + sim.SpinLockProbeCycles)
	c.p.Delay(cost)
	c.k.S.Bus.Transact(c.p, 1) // kernel spin-lock RMW
	if words > 0 {
		c.k.S.Bus.Transact(c.p, words)
	}
	if r := c.k.S.Rec; r != nil {
		r.Record(trace.Event{
			Cycle: entry, Dur: c.p.Now() - entry,
			PE: c.t.PE, Proc: c.t.Name,
			Kind: trace.KindService, Name: "kernel.service", Words: words, Arg: -1,
		})
	}
}

// Park blocks the calling task until some other context calls Unpark on it.
// `what` names the object waited on (visible in Deadlocked / BlockedOn).
// Hardware RTOS components (SoCLC, SoCDMMU, DAU drivers) build their blocking
// primitives from Park/Unpark.
func (c *TaskCtx) Park(what string) { c.parkOn(nil, what) }

// waitList is where a parked task waits to be picked for a wakeup: a
// WaitQueue, or an event group's FIFO registration (eventWait).
type waitList interface {
	Push(t *Task)
	Remove(t *Task) bool
}

// parkOn is the one park path: it queues the task on l (nil: on no list),
// blocks it as `what` until it is made ready, and leaves l again before
// waiting for the CPU — a hand-off wake already popped the task, a timeout or
// kill wake left it queued, and a queued task that is not blocked would
// swallow the next hand-off.
func (c *TaskCtx) parkOn(l waitList, what string) {
	t := c.t
	if l != nil {
		l.Push(t)
	}
	c.k.blockCurrent(t, what)
	for t.state == StateBlocked {
		t.sig.Wait(c.p)
	}
	if l != nil {
		l.Remove(t)
	}
	c.ensureRunning()
}

// Unpark moves a parked task back to ready (callable from any context,
// including non-task simulation procs such as interrupt handlers).
func (k *Kernel) Unpark(t *Task) {
	k.makeReady(t)
}

// SetTaskPriority changes a task's effective priority (the hook the priority
// inheritance and ceiling protocols use).
func (k *Kernel) SetTaskPriority(t *Task, prio int) {
	k.setPriority(t, prio)
}

// ChargeService charges the calling task the fixed cost of one kernel
// service accessing `words` words of kernel structures in shared memory.
func (c *TaskCtx) ChargeService(words int) {
	c.serviceOverhead(words)
}

// SetEffectivePriority overrides the calling task's effective priority and
// returns the previous value.  Short-critical-section code masks preemption
// this way (the spin-lock discipline: a task holding a spin lock must not be
// preempted by a spinner on its own PE), restoring the old priority after.
func (c *TaskCtx) SetEffectivePriority(prio int) int {
	old := c.t.CurPrio
	c.k.setPriority(c.t, prio)
	c.ensureRunning()
	return old
}

// ChargeSharedAccesses charges n scattered single-word accesses to kernel
// structures in shared memory: each is its own bus transaction (3 cycles)
// plus the per-access instruction overhead of compiled kernel code.  This is
// the cost shape of structure walks (lock queues, TCB chains), as opposed to
// the burst transfer ChargeService models.
func (c *TaskCtx) ChargeSharedAccesses(n int) {
	c.ensureRunning()
	for i := 0; i < n; i++ {
		c.p.Delay(sim.SWAccessOverheadCycles)
		c.k.S.Bus.Transact(c.p, 1)
	}
}

// ChargeCompute charges raw CPU cycles without preemption windows (short
// non-preemptible code such as interrupt-masked wrapper instructions).
func (c *TaskCtx) ChargeCompute(n sim.Cycles) {
	c.ensureRunning()
	c.p.Delay(n)
}

// RunOn runs a device job of the given duration, blocking the task (and
// freeing the PE) until the device raises its completion interrupt.
func (c *TaskCtx) RunOn(d *sim.Device, duration sim.Cycles) {
	c.ensureRunning()
	done := d.Start(c.p, duration)
	t := c.t
	t.blockedOn = d.Name
	c.k.vacate(t, StateBlocked, "block:"+d.Name)
	c.k.S.Spawn("isr."+d.Name+"."+t.Name, -1, func(tp *sim.Proc) {
		done.Wait(tp)
		tp.Delay(sim.InterruptEntryCycles)
		c.k.makeReady(t)
	})
	c.ensureRunning()
}
