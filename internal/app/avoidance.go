package app

import (
	"fmt"

	"deltartos/internal/daa"
	"deltartos/internal/dau"
	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

// decisionVerdict labels a DAA request decision for trace events.
func decisionVerdict(d daa.Decision) string {
	switch d {
	case daa.Granted:
		return "granted"
	case daa.Pending:
		return "pending"
	case daa.PendingOwnerAsked:
		return "pending-owner-asked"
	case daa.GiveUpRequested:
		return "giveup"
	}
	return "unknown"
}

// recordAvoid books one avoidance-backend invocation spanning the cost just
// charged (the invocation ends at now).
func recordAvoid(r *trace.Recorder, name string, now, cost sim.Cycles, pe int, proc string, q int, verdict string) {
	if r == nil {
		return
	}
	r.Record(trace.Event{
		Cycle: now - cost, Dur: cost,
		PE: pe, Proc: proc,
		Kind: trace.KindDetect, Name: name, Arg: int64(q), Verdict: verdict,
	})
}

// AvoidanceBackend abstracts WHERE the deadlock avoidance algorithm runs:
// DAA in software on the invoking PE (RTOS3) or the DAU hardware unit
// (RTOS4).  Both wrap identical algorithm logic; only the cost differs.
type AvoidanceBackend interface {
	Name() string
	SetPriority(p, prio int)
	// RequestOp performs a request event and returns the decision, the
	// process asked to act (-1 if none) and the algorithm cost in cycles.
	RequestOp(p, q int) (daa.RequestResult, sim.Cycles)
	// ReleaseOp performs a release event and returns who was granted the
	// resource (-1 none) plus the algorithm cost.
	ReleaseOp(p, q int) (daa.ReleaseResult, sim.Cycles)
	Holder(q int) int
	Held(p int) []int
	Deadlocked() bool
	// Invocations, TotalCost and Average read the backend's Meter.
	Invocations() int
	TotalCost() sim.Cycles
	Average() float64
}

// avoider is what the two DAA-backed backends share: the Avoider's view of
// holdings, priorities and deadlock.  They differ only in what running the
// algorithm costs.
type avoider struct{ av *daa.Avoider }

// SetPriority implements AvoidanceBackend.
func (b avoider) SetPriority(p, prio int) { b.av.SetPriority(p, daa.Priority(prio)) }

// Holder implements AvoidanceBackend.
func (b avoider) Holder(q int) int { return b.av.Holder(q) }

// Held implements AvoidanceBackend.
func (b avoider) Held(p int) []int { return b.av.Graph().HeldBy(p) }

// Deadlocked implements AvoidanceBackend.
func (b avoider) Deadlocked() bool { return b.av.Deadlocked() }

// fixed software overhead per DAA invocation beyond detection: argument
// marshalling, case dispatch, queue bookkeeping in shared memory.
const daaSoftwareOverhead = 230

// SoftwareAvoidance is DAA in software (RTOS3).
type SoftwareAvoidance struct {
	Meter
	avoider
}

// NewSoftwareAvoidance builds the RTOS3 backend.
func NewSoftwareAvoidance(procs, resources int) (*SoftwareAvoidance, error) {
	av, err := daa.New(daa.Config{Procs: procs, Resources: resources})
	if err != nil {
		return nil, err
	}
	return &SoftwareAvoidance{avoider: avoider{av}}, nil
}

// Name implements AvoidanceBackend.
func (b *SoftwareAvoidance) Name() string { return "DAA in software" }

// charge books the detection work the Avoider did since before.
func (b *SoftwareAvoidance) charge(before daa.Stats) sim.Cycles {
	after := b.av.Stats()
	det := after.Detection
	det.CellReads -= before.Detection.CellReads
	det.CellWrites -= before.Detection.CellWrites
	det.Ops -= before.Detection.Ops
	return b.add(sim.SoftwareDetectCycles(det) + daaSoftwareOverhead)
}

// RequestOp implements AvoidanceBackend.
func (b *SoftwareAvoidance) RequestOp(p, q int) (daa.RequestResult, sim.Cycles) {
	before := b.av.Stats()
	res, err := b.av.Request(p, q)
	if err != nil {
		panic("app: " + err.Error())
	}
	return res, b.charge(before)
}

// ReleaseOp implements AvoidanceBackend.
func (b *SoftwareAvoidance) ReleaseOp(p, q int) (daa.ReleaseResult, sim.Cycles) {
	before := b.av.Stats()
	res, err := b.av.Release(p, q)
	if err != nil {
		panic("app: " + err.Error())
	}
	return res, b.charge(before)
}

// HardwareAvoidance is the DAU (RTOS4).
type HardwareAvoidance struct {
	Meter
	avoider
	u *dau.Unit
}

// NewHardwareAvoidance builds the RTOS4 backend.
func NewHardwareAvoidance(procs, resources int) (*HardwareAvoidance, error) {
	u, err := dau.New(dau.Config{Procs: procs, Resources: resources})
	if err != nil {
		return nil, err
	}
	return &HardwareAvoidance{avoider: avoider{u.Avoider()}, u: u}, nil
}

// Name implements AvoidanceBackend.
func (b *HardwareAvoidance) Name() string { return "DAU (hardware)" }

// RequestOp implements AvoidanceBackend.
func (b *HardwareAvoidance) RequestOp(p, q int) (daa.RequestResult, sim.Cycles) {
	st, steps, err := b.u.Request(p, q)
	if err != nil {
		panic("app: " + err.Error())
	}
	res := daa.RequestResult{RDl: st.RDl, Livelock: st.Livelock, AskedProcess: st.WhichProcess}
	switch {
	case st.Successful:
		res.Decision = daa.Granted
	case st.GiveUp:
		res.Decision = daa.GiveUpRequested
	case st.Pending && st.RDl:
		res.Decision = daa.PendingOwnerAsked
	default:
		res.Decision = daa.Pending
		res.AskedProcess = -1
	}
	return res, b.add(sim.DAUInvokeCycles(steps))
}

// ReleaseOp implements AvoidanceBackend.
func (b *HardwareAvoidance) ReleaseOp(p, q int) (daa.ReleaseResult, sim.Cycles) {
	st, steps, err := b.u.Release(p, q)
	if err != nil {
		panic("app: " + err.Error())
	}
	return daa.ReleaseResult{GrantedTo: st.GrantedTo, GDl: st.GDl}, b.add(sim.DAUInvokeCycles(steps))
}

// AvoidanceWorld plumbs an avoidance backend into the running tasks:
// blocking requests, grant wakeups, and give-up compliance performed by the
// RTOS mechanism of Assumption 3.
type AvoidanceWorld struct {
	S       *sim.Sim
	K       *rtos.Kernel
	B       AvoidanceBackend
	tasks   []*rtos.Task
	devices []*sim.Device
	// GiveUps counts give-up compliance actions.
	GiveUps int
}

// NewAvoidanceWorld builds a 4-PE world with the standard devices.
func NewAvoidanceWorld(b AvoidanceBackend, opts ...sim.Option) *AvoidanceWorld {
	s := sim.New(opts...)
	return &AvoidanceWorld{
		S: s, K: rtos.NewKernel(s, 4), B: b, devices: sim.StandardDevices(s),
		tasks: make([]*rtos.Task, 4),
	}
}

// taskName resolves process p's task name, falling back to the invoking
// context (releases always run on behalf of some process, but the giveup
// compliance loop issues them from the complying task's own context).
func (w *AvoidanceWorld) taskName(p int, fallback string) string {
	if p >= 0 && p < len(w.tasks) && w.tasks[p] != nil {
		return w.tasks[p].Name
	}
	return fallback
}

// Device returns resource q's device.
func (w *AvoidanceWorld) Device(q int) *sim.Device { return w.devices[q] }

// Request asks for q on behalf of p, blocking until granted.  If the
// avoider demands a give-up from p, the resources are released (flowing to
// safe waiters) and the request retried — the compliance loop of the
// scenario applications.
func (w *AvoidanceWorld) Request(c *rtos.TaskCtx, p, q int) {
	if !w.ask(c, p, q) {
		w.await(c, p, q, "avoid")
	}
}

// RequestPair asks for two resources in one batch (the "p3 requests IDCT
// and WI simultaneously" pattern of Tables 4/6): both request events are
// issued while the process is still running, then the process blocks until
// it holds both.
func (w *AvoidanceWorld) RequestPair(c *rtos.TaskCtx, p, qa, qb int) {
	grantedA := w.ask(c, p, qa)
	grantedB := w.ask(c, p, qb)
	if !grantedA {
		w.await(c, p, qa, "avoid")
	}
	if !grantedB {
		w.await(c, p, qb, "avoid")
	}
}

// ask runs p's request event for q until the avoider grants or queues
// it, and reports whether it granted.  A give-up demand is complied with:
// release everything held (each release may hand the resource to a
// waiter), back off, retry.  A request the avoider queued by asking q's
// owner to give it up starts that give-up.
func (w *AvoidanceWorld) ask(c *rtos.TaskCtx, p, q int) bool {
	for {
		res, cost := w.B.RequestOp(p, q)
		c.ChargeCompute(cost)
		recordAvoid(w.S.Rec, "avoid.request", c.Now(), cost, c.Task().PE, c.Task().Name, q, decisionVerdict(res.Decision))
		//deltalint:partial a plain Pending needs no action before the wait
		switch res.Decision {
		case daa.Granted:
			recordTaskRes(c, "res.acquire", q, c.Task().Name)
			return true
		case daa.GiveUpRequested:
			w.GiveUps++
			for _, h := range w.B.Held(p) {
				w.Release(c, p, h)
			}
			c.Compute(150) // checkpoint/restart cost before retrying
			continue
		case daa.PendingOwnerAsked:
			w.askOwner(res.AskedProcess, q)
		}
		return false
	}
}

// await parks task p until the avoider has granted it q.
func (w *AvoidanceWorld) await(c *rtos.TaskCtx, p, q int, why string) {
	for w.B.Holder(q) != p {
		c.Park(fmt.Sprintf("%s:%s", why, w.devices[q].Name))
	}
	recordTaskRes(c, "res.acquire", q, c.Task().Name)
}

// Release frees q held by p and wakes whoever the avoider granted it to.
func (w *AvoidanceWorld) Release(c *rtos.TaskCtx, p, q int) {
	res, cost := w.B.ReleaseOp(p, q)
	recordTaskRes(c, "res.release", q, w.taskName(p, c.Task().Name))
	c.ChargeCompute(cost)
	w.handOver(res, "avoid.release", c.Now(), cost, c.Task().PE, c.Task().Name, q)
}

// handOver books a release of q whose cost ends at now — "free", or
// "handoff" when the avoider granted q on — and wakes every process the
// release granted a resource to.
func (w *AvoidanceWorld) handOver(res daa.ReleaseResult, name string, now, cost sim.Cycles, pe int, proc string, q int) {
	verdict := "free"
	if res.GrantedTo >= 0 {
		verdict = "handoff"
	}
	recordAvoid(w.S.Rec, name, now, cost, pe, proc, q, verdict)
	w.wake(res.GrantedTo)
	for _, g := range res.AlsoGranted {
		w.wake(g)
	}
}

// wake readies process p's task (p < 0 or a process with no task: nothing).
func (w *AvoidanceWorld) wake(p int) {
	if p >= 0 && w.tasks[p] != nil {
		w.K.Unpark(w.tasks[p])
	}
}

// askOwner models the DAU/RTOS asking process `owner` to give up resource q
// (Assumption 3): after an interrupt-and-handler delay, the owner's
// resources are released on its behalf; the owner re-requests the resource
// later from its own control flow.
func (w *AvoidanceWorld) askOwner(owner, q int) {
	if owner < 0 {
		return
	}
	w.GiveUps++
	w.S.Spawn(fmt.Sprintf("giveup.p%d.q%d", owner+1, q+1), -1, func(p *sim.Proc) {
		p.Delay(sim.InterruptEntryCycles + 60) // ISR + checkpoint
		if w.B.Holder(q) != owner {
			return // already released
		}
		res, cost := w.B.ReleaseOp(owner, q)
		recordRes(w.S.Rec, "res.release", p.Now(), p.PE, p.Name, q, w.taskName(owner, p.Name))
		p.Delay(cost)
		w.handOver(res, "avoid.giveup", p.Now(), cost, p.PE, p.Name, q)
		// The owner will need the resource again: queue its re-request.
		rr, cost2 := w.B.RequestOp(owner, q)
		p.Delay(cost2)
		recordAvoid(w.S.Rec, "avoid.request", p.Now(), cost2, p.PE, p.Name, q, decisionVerdict(rr.Decision))
		if rr.Decision == daa.Granted {
			w.wake(owner)
		}
	})
}

// WaitRegranted parks task p until it holds q again (used by a process that
// was asked to give q up and whose re-request was queued by askOwner).
func (w *AvoidanceWorld) WaitRegranted(c *rtos.TaskCtx, p, q int) {
	w.await(c, p, q, "regrant")
}

// AvoidanceResult is one column of Table 7 or Table 9.
type AvoidanceResult struct {
	Mechanism    string
	Invocations  int
	AvgAlgCycles float64
	AppCycles    sim.Cycles
	GDlAvoided   bool
	RDlAvoided   bool
	Completed    bool
}

// RunGrantDeadlockScenario executes Application Example I (Table 6 /
// Figure 16): the sequence that would end in grant deadlock, completed
// safely by the avoider.  Returns the Table 7 measurements.
//
//deltalint:deadlock-expected the scenario exists to exercise G-dl avoidance
func RunGrantDeadlockScenario(b AvoidanceBackend, opts ...sim.Option) AvoidanceResult {
	w := NewAvoidanceWorld(b, opts...)
	defer w.S.Close()
	for p := 0; p < 4; p++ {
		b.SetPriority(p, p+1)
	}
	done := make([]bool, 4)

	// p1: video capture + IDCT over one frame (t1..t4).
	w.tasks[0] = w.K.CreateTask("p1", 0, 1, 0, func(c *rtos.TaskCtx) {
		w.RequestPair(c, 0, resVI, resIDCT) // t1: q1, q2 granted
		c.RunOn(w.Device(resVI), viReceiveCycles)
		c.RunOn(w.Device(resIDCT), sim.IDCTFrameCycles)
		w.Release(c, 0, resVI)   // t4
		w.Release(c, 0, resIDCT) // t4/t5: DAU detects potential G-dl here
		done[0] = true
		recordTaskAccess(c, "done[0]", true)
	})
	// p3: frame conversion + wireless send (t2, t6).
	w.tasks[2] = w.K.CreateTask("p3", 2, 3, p3RequestAt, func(c *rtos.TaskCtx) {
		w.RequestPair(c, 2, resIDCT, resWI) // t2: q4 granted, q2 pends
		c.RunOn(w.Device(resIDCT), 1600)
		c.RunOn(w.Device(resWI), 1200)
		w.Release(c, 2, resIDCT) // t6
		w.Release(c, 2, resWI)   // t6
		done[2] = true
		recordTaskAccess(c, "done[2]", true)
	})
	// p2: competing pipeline (t3, t7, t8).
	w.tasks[1] = w.K.CreateTask("p2", 1, 2, p2RequestAt, func(c *rtos.TaskCtx) {
		w.RequestPair(c, 1, resIDCT, resWI) // t3: both pend
		c.RunOn(w.Device(resIDCT), 1600)
		c.RunOn(w.Device(resWI), 1200)
		w.Release(c, 1, resIDCT) // t8
		w.Release(c, 1, resWI)
		done[1] = true
		recordTaskAccess(c, "done[1]", true)
	})

	w.S.Run()
	res, avoided := w.result(done)
	res.GDlAvoided = avoided
	return res
}

// RunRequestDeadlockScenario executes Application Example II (Table 8 /
// Figure 17): the sequence that would end in request deadlock.  Returns the
// Table 9 measurements.
//
//deltalint:deadlock-expected the scenario exists to exercise R-dl avoidance
func RunRequestDeadlockScenario(b AvoidanceBackend, opts ...sim.Option) AvoidanceResult {
	w := NewAvoidanceWorld(b, opts...)
	defer w.S.Close()
	for p := 0; p < 4; p++ {
		b.SetPriority(p, p+1)
	}
	done := make([]bool, 4)

	// p1 needs q1 (VI) and q2 (IDCT).
	w.tasks[0] = w.K.CreateTask("p1", 0, 1, 0, func(c *rtos.TaskCtx) {
		w.Request(c, 0, resVI) // t1
		c.RunOn(w.Device(resVI), 5200)
		w.Request(c, 0, resIDCT) // t6: R-dl detected; p2 asked to give up q2
		c.RunOn(w.Device(resVI), 2800)
		c.RunOn(w.Device(resIDCT), sim.IDCTFrameCycles)
		w.Release(c, 0, resVI)   // t8
		w.Release(c, 0, resIDCT) // t8
		done[0] = true
		recordTaskAccess(c, "done[0]", true)
	})
	// p2 needs q2 (IDCT) and q3 (DSP).
	w.tasks[1] = w.K.CreateTask("p2", 1, 2, 900, func(c *rtos.TaskCtx) {
		w.Request(c, 1, resIDCT) // t2
		c.Compute(2600)
		w.Request(c, 1, resDSP) // t4: pends
		// t6/t7: while blocked, p2 is asked to give up the IDCT; the RTOS
		// mechanism releases it and re-requests it on p2's behalf.
		w.WaitRegranted(c, 1, resIDCT) // back when p1 finishes (t8)
		c.RunOn(w.Device(resIDCT), 2400)
		c.RunOn(w.Device(resDSP), 2400)
		w.Release(c, 1, resIDCT) // t10
		w.Release(c, 1, resDSP)
		done[1] = true
		recordTaskAccess(c, "done[1]", true)
	})
	// p3 needs q3 (DSP) and q1 (VI).
	w.tasks[2] = w.K.CreateTask("p3", 2, 3, 1800, func(c *rtos.TaskCtx) {
		w.Request(c, 2, resDSP) // t3
		c.Compute(2600)
		w.Request(c, 2, resVI) // t5: pends
		c.RunOn(w.Device(resDSP), 2400)
		c.RunOn(w.Device(resVI), 2400)
		w.Release(c, 2, resVI)  // t9
		w.Release(c, 2, resDSP) // t9
		done[2] = true
		recordTaskAccess(c, "done[2]", true)
	})

	w.S.Run()
	res, avoided := w.result(done)
	res.RDlAvoided = avoided
	return res
}

// result measures a finished run of the three-pipeline scenarios.  The
// deadlock counts as avoided iff every pipeline completed and the system
// never deadlocked.
func (w *AvoidanceWorld) result(done []bool) (res AvoidanceResult, avoided bool) {
	completed := done[0] && done[1] && done[2]
	return AvoidanceResult{
		Mechanism:    w.B.Name(),
		Invocations:  w.B.Invocations(),
		AvgAlgCycles: w.B.Average(),
		AppCycles:    lastFinish(w.K),
		Completed:    completed,
	}, completed && !w.B.Deadlocked()
}

func lastFinish(k *rtos.Kernel) sim.Cycles {
	var last sim.Cycles
	for _, t := range k.Tasks() {
		if ft, ok := t.Finished(); ok && ft > last {
			last = ft
		}
	}
	return last
}
