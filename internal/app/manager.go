// Package app implements the paper's evaluation applications on top of the
// simulated MPSoC: the Jini-inspired deadlock-detection scenario (Tables
// 4–5), the grant-deadlock and request-deadlock avoidance scenarios (Tables
// 6–9), the robot control application (Table 10, Figures 18–20) and the
// SPLASH-2-style LU/FFT/RADIX benchmarks (Tables 11–12).
package app

import (
	"fmt"

	"deltartos/internal/ddu"
	"deltartos/internal/pdda"
	"deltartos/internal/rag"
	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

// recordDetect books one detector invocation with the recorder, spanning the
// cost just charged (the invocation ends at c.Now()).
func recordDetect(c *rtos.TaskCtx, name string, cost sim.Cycles, steps int, deadlock bool) {
	r := c.Kernel().S.Rec
	if r == nil {
		return
	}
	verdict := "clear"
	if deadlock {
		verdict = "deadlock"
	}
	r.Record(trace.Event{
		Cycle: c.Now() - cost, Dur: cost,
		PE: c.Task().PE, Proc: c.Task().Name,
		Kind: trace.KindDetect, Name: name, Words: steps, Arg: -1, Verdict: verdict,
	})
}

// Meter counts a backend's invocations and the algorithm cycles they cost:
// the two numbers Tables 5, 7 and 9 compare per mechanism.  Every detection
// and avoidance backend embeds one, so a scenario reads its measurements
// the same way whichever side of the partition the service runs on.
type Meter struct {
	calls int
	total sim.Cycles
}

// add books one invocation of the given cost and returns the cost.
func (m *Meter) add(cost sim.Cycles) sim.Cycles {
	m.calls++
	m.total += cost
	return cost
}

// Invocations returns how many times the backend ran.
func (m *Meter) Invocations() int { return m.calls }

// TotalCost returns the cycles charged over all invocations.
func (m *Meter) TotalCost() sim.Cycles { return m.total }

// Average returns the mean per-invocation cost (0 before the first).
func (m *Meter) Average() float64 {
	if m.calls == 0 {
		return 0
	}
	return float64(m.total) / float64(m.calls)
}

// Detector abstracts WHERE deadlock detection runs: software PDDA on the
// requesting PE (RTOS1) or the DDU hardware unit (RTOS2).
type Detector interface {
	// Invoke runs detection over the RAG from task context c, charging the
	// caller whatever the mechanism costs, and returns the verdict plus the
	// cycles charged (the per-invocation "algorithm run time" of Table 5).
	Invoke(c *rtos.TaskCtx, g *rag.Graph) (deadlock bool, cost sim.Cycles)
	// Size is the system the mechanism is built for.  Its cost depends on
	// the M·N it scans, so the resource manager sizes its graph to at
	// least this.
	Size() (procs, resources int)
	// Name labels the mechanism in reports.
	Name() string
	// Invocations, TotalCost and Average read the backend's Meter.
	Invocations() int
	TotalCost() sim.Cycles
	Average() float64
}

// SoftwareDetector runs PDDA in software: every matrix cell access is an
// uncached shared-memory access from the invoking PE.  It is built for a
// compiled-in system maximum (the paper's RTOS1 scans the full 5x5 matrix
// regardless of how many processes are live), which the resource manager
// sizes its graph to.
type SoftwareDetector struct {
	Meter
	procs, resources int
	sc               pdda.Scratch
}

// NewSoftwareDetector sizes PDDA for a system of at most procs processes
// and resources resources.
func NewSoftwareDetector(procs, resources int) *SoftwareDetector {
	return &SoftwareDetector{procs: procs, resources: resources}
}

// Name implements Detector.
func (d *SoftwareDetector) Name() string { return "PDDA in software" }

// Size implements Detector.
func (d *SoftwareDetector) Size() (procs, resources int) { return d.procs, d.resources }

// Invoke implements Detector: PDDA scans g at g's own size.
func (d *SoftwareDetector) Invoke(c *rtos.TaskCtx, g *rag.Graph) (bool, sim.Cycles) {
	dead, st := pdda.DetectGraphInto(&d.sc, g)
	cost := d.add(sim.SoftwareDetectCycles(st))
	c.ChargeCompute(cost)
	recordDetect(c, "detect.invoke", cost, st.Iterations, dead)
	return dead, cost
}

// HardwareDetector drives a DDU: the RAG is kept in the unit by the
// resource manager (one bus write per edge change, already part of the event
// cost), so detection itself is a start plus a status read.  The unit scans
// the manager's graph, which is the unit's size, in place.
type HardwareDetector struct {
	Meter
	Unit *ddu.Unit
}

// NewHardwareDetector sizes a DDU for the scenario.
func NewHardwareDetector(procs, resources int) (*HardwareDetector, error) {
	u, err := ddu.New(ddu.Config{Procs: procs, Resources: resources})
	if err != nil {
		return nil, err
	}
	return &HardwareDetector{Unit: u}, nil
}

// Name implements Detector.
func (d *HardwareDetector) Name() string { return "DDU (hardware)" }

// Size implements Detector.
func (d *HardwareDetector) Size() (procs, resources int) {
	cfg := d.Unit.Config()
	return cfg.Procs, cfg.Resources
}

// Invoke implements Detector.
func (d *HardwareDetector) Invoke(c *rtos.TaskCtx, g *rag.Graph) (bool, sim.Cycles) {
	res, err := d.Unit.DetectGraph(g)
	if err != nil {
		panic("app: ddu size mismatch: " + err.Error())
	}
	cost := d.add(sim.DDUInvokeCycles(res.Steps))
	c.ChargeCompute(cost)
	recordDetect(c, "detect.invoke", cost, res.Steps, res.Deadlock)
	return res.Deadlock, cost
}

// ResourceManager is the RTOS resource-allocation service of RTOS1/RTOS2:
// it tracks the RAG, grants free resources immediately, queues requests for
// busy ones by priority, and invokes deadlock detection on every allocation
// event.  It performs NO avoidance — that is the point of the detection
// experiment: the system is allowed to reach deadlock, and the question is
// how quickly it is noticed.
type ResourceManager struct {
	k       *rtos.Kernel
	det     Detector
	g       *rag.Graph
	prio    []int // process priority (lower = higher)
	waiters map[int][]*waiter
	devices []*sim.Device
	// mu is the global allocation-service lock of the shared-memory RTOS:
	// operations from different PEs serialize, and software detection runs
	// inside the critical section (what stretches Table 5's software column).
	mu *rtos.Mutex
	// DeadlockAt is the time detection first reported a deadlock (0 if
	// never); DeadlockSeen reports whether it fired.
	DeadlockAt   sim.Cycles
	DeadlockSeen bool
	// DeadlockedProcs and DeadlockedResources latch the irreducible core of
	// the RAG at the first positive detection: the processes the reduction
	// cannot clear and every resource they hold or wait for.  Both ascending;
	// nil when no deadlock was seen.  The static lockorder cross-check
	// compares these against the compile-time cycle report.
	DeadlockedProcs     []int
	DeadlockedResources []int
	// Events counts allocation events (requests, grants, releases).
	Events int
}

type waiter struct {
	proc int
	t    *rtos.Task
}

// lock and unlock bracket every manager operation with the service lock.
func (rm *ResourceManager) lock(c *rtos.TaskCtx) { rm.mu.Lock(c) }

func (rm *ResourceManager) unlock(c *rtos.TaskCtx) { rm.mu.Unlock(c) }

// NewResourceManager builds the service for n processes and the given
// resource devices.  Its graph takes the detector's size where that is
// larger (Table 5 runs a 4-process scenario on a 5x5 DDU), so the detector
// scans the M·N it is built for; the spare processes and resources hold no
// edge.
func NewResourceManager(k *rtos.Kernel, det Detector, procs int, devices []*sim.Device) *ResourceManager {
	dp, dr := det.Size()
	return &ResourceManager{
		k:       k,
		det:     det,
		g:       rag.NewGraph(max(len(devices), dr), max(procs, dp)),
		prio:    make([]int, procs),
		waiters: map[int][]*waiter{},
		devices: devices,
		mu:      k.NewMutex("alloc-svc"),
	}
}

// SetPriority assigns process p's priority.
func (rm *ResourceManager) SetPriority(p, prio int) { rm.prio[p] = prio }

// Graph exposes the tracked RAG.
func (rm *ResourceManager) Graph() *rag.Graph { return rm.g }

// Device returns resource q's device.
func (rm *ResourceManager) Device(q int) *sim.Device { return rm.devices[q] }

// serviceCost charges the fixed allocation-service path (kernel entry, RAG
// update in shared memory, and — for RTOS2 — the DDU matrix-cell write).
func (rm *ResourceManager) serviceCost(c *rtos.TaskCtx) {
	c.ChargeService(6)
}

// detect invokes the configured detector and latches the first deadlock.
func (rm *ResourceManager) detect(c *rtos.TaskCtx) bool {
	dead, _ := rm.det.Invoke(c, rm.g)
	if dead && !rm.DeadlockSeen {
		rm.DeadlockSeen = true
		rm.DeadlockAt = c.Now()
		rm.DeadlockedProcs = rm.g.DeadlockedProcesses()
		m, _ := rm.g.Size()
		inCore := make([]bool, m)
		for _, p := range rm.DeadlockedProcs {
			for _, s := range rm.g.HeldBy(p) {
				inCore[s] = true
			}
			for _, s := range rm.g.RequestedBy(p) {
				inCore[s] = true
			}
		}
		for s, in := range inCore {
			if in {
				rm.DeadlockedResources = append(rm.DeadlockedResources, s)
			}
		}
	}
	return dead
}

// ask is one request event of p for q: a free resource is granted at once,
// a busy one gets a request edge, and detection runs on the event either
// way.  It reports whether q was granted.
func (rm *ResourceManager) ask(c *rtos.TaskCtx, p, q int) bool {
	rm.Events++
	rm.serviceCost(c)
	granted := rm.g.Holder(q) == -1
	if granted {
		if err := rm.g.SetGrant(q, p); err != nil {
			panic("app: " + err.Error())
		}
		recordTaskRes(c, "res.acquire", q, c.Task().Name)
	} else {
		rm.g.AddRequest(q, p)
	}
	rm.detect(c)
	return granted
}

// enqueue queues the calling task, as process p, for a grant of q.
func (rm *ResourceManager) enqueue(c *rtos.TaskCtx, p, q int) {
	rm.waiters[q] = insertWaiter(rm.waiters[q], &waiter{proc: p, t: c.Task()}, rm.prio)
}

// Request asks for resource q on behalf of process p (running in task
// context c).  It blocks until the resource is granted.  Detection runs on
// every request event, as the experiment prescribes.
func (rm *ResourceManager) Request(c *rtos.TaskCtx, p, q int) {
	rm.lock(c)
	if rm.ask(c, p, q) {
		rm.unlock(c)
		return
	}
	rm.enqueue(c, p, q)
	rm.unlock(c)
	c.Park(fmt.Sprintf("res:%s", rm.devices[q].Name))
}

// RequestBoth asks for two resources in one service call (the paper's
// processes request pairs like "IDCT and WI" simultaneously).  Whatever is
// free is granted; the rest pends.  The call returns once both are held.
func (rm *ResourceManager) RequestBoth(c *rtos.TaskCtx, p, q1, q2 int) {
	// Issue both request edges first (the batch is one event each), then
	// block for the pending ones in order.
	rm.lock(c)
	var pendings []int
	for _, q := range []int{q1, q2} {
		if !rm.ask(c, p, q) {
			pendings = append(pendings, q)
		}
	}
	for _, q := range pendings {
		if rm.g.Holder(q) != p {
			rm.enqueue(c, p, q)
		}
	}
	rm.unlock(c)
	for _, q := range pendings {
		for rm.g.Holder(q) != p {
			c.Park(fmt.Sprintf("res:%s", rm.devices[q].Name))
		}
	}
}

// Release frees resource q held by p, hands it to the highest-priority
// waiter, and runs detection on the resulting state.
func (rm *ResourceManager) Release(c *rtos.TaskCtx, p, q int) {
	rm.lock(c)
	rm.Events++
	rm.serviceCost(c)
	if err := rm.g.Release(q, p); err != nil {
		panic("app: " + err.Error())
	}
	recordTaskRes(c, "res.release", q, c.Task().Name)
	ws := rm.waiters[q]
	if len(ws) == 0 {
		rm.detect(c)
		rm.unlock(c)
		return
	}
	w := ws[0]
	rm.waiters[q] = ws[1:]
	if err := rm.g.SetGrant(q, w.proc); err != nil {
		panic("app: " + err.Error())
	}
	recordTaskRes(c, "res.acquire", q, w.t.Name)
	// The grant event triggers detection — this is the event that catches
	// the grant deadlock of the detection scenario.
	rm.detect(c)
	rm.unlock(c)
	rm.k.Unpark(w.t)
}

func insertWaiter(ws []*waiter, w *waiter, prio []int) []*waiter {
	i := 0
	for i < len(ws) && prio[ws[i].proc] <= prio[w.proc] {
		i++
	}
	ws = append(ws, nil)
	copy(ws[i+1:], ws[i:])
	ws[i] = w
	return ws
}
