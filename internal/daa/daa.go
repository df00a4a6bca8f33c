// Package daa implements the Deadlock Avoidance Algorithm of Lee & Mooney
// (Algorithm 3, Section 4.3.1): a priority-aware request/release arbiter that
// consults deadlock detection before committing any edge, distinguishing
// request deadlock (R-dl, Definition 4) from grant deadlock (G-dl,
// Definition 5), and resolving livelock by asking a process to give up
// resources.
//
// The same algorithm backs two components: the software implementation
// ("DAA in software", RTOS3 of Table 3) whose instrumented operation counts
// the simulator turns into bus cycles, and the hardware DAU (package dau)
// which embeds it behind command/status registers.
//
// The avoider probes its tracked graph in place: it applies the tentative
// edge to the graph, runs detection and, if the edge is refused, undoes it
// exactly, so a probe copies nothing.  The undo restores what the edge
// replaced: a waiter's request edge after a refused grant, and a request
// edge the requester already had after a refused request.
package daa

import (
	"fmt"

	"deltartos/internal/pdda"
	"deltartos/internal/rag"
)

// Priority is a process priority: smaller values are MORE important (the
// paper's "p1 highest" convention).
type Priority int

// HigherThan reports whether p is strictly more important than q.
func (p Priority) HigherThan(q Priority) bool { return p < q }

// Decision is the outcome of a request event (lines 2–15 of Algorithm 3).
type Decision int

// Request outcomes.
const (
	// Granted: the resource was free and is now granted (line 4).
	Granted Decision = iota
	// Pending: the resource is busy but no R-dl arises; the request waits
	// (line 13).
	Pending
	// PendingOwnerAsked: the request would cause R-dl and the requester
	// outranks the owner; the request is pending and the owner is asked to
	// release the resource (lines 7–8).
	PendingOwnerAsked
	// GiveUpRequested: the request would cause R-dl and the requester does
	// not outrank the owner; the requester is asked to give up the
	// resources it already holds (line 10). The request is NOT queued.
	GiveUpRequested
)

func (d Decision) String() string {
	switch d {
	case Granted:
		return "granted"
	case Pending:
		return "pending"
	case PendingOwnerAsked:
		return "pending-owner-asked"
	case GiveUpRequested:
		return "give-up-requested"
	}
	return fmt.Sprintf("Decision(%d)", int(d))
}

// RequestResult reports a request event's outcome, including R-dl/livelock
// status bits (mirrored into the DAU status register).
type RequestResult struct {
	Decision Decision
	RDl      bool // the request would have caused request deadlock
	Livelock bool // livelock threshold reached while avoiding R-dl
	// AskedProcess is the process asked to release/give up resources:
	// the owner for PendingOwnerAsked, the requester for GiveUpRequested,
	// -1 otherwise.
	AskedProcess int
}

// ReleaseResult reports a release event's outcome (lines 16–25).
type ReleaseResult struct {
	// GrantedTo is the process the freed resource was handed to, or -1 if no
	// process was waiting (line 24) or no waiter could be granted safely.
	GrantedTo int
	// GDl is set when granting to the highest-priority waiter would have
	// caused grant deadlock, so a lower-priority waiter was selected instead
	// (lines 18–19).
	GDl bool
	// SkippedWaiters lists waiters bypassed because granting to them would
	// deadlock, in the order they were considered.
	SkippedWaiters []int
	// AlsoGranted lists processes granted OTHER resources as a side effect
	// of this release.  The DAA/DAU never populate it (a release hands off
	// at most the freed resource), but claims-based backends such as the
	// Banker's algorithm retry every pending request after a release: a
	// request refused as unsafe can become safe when an unrelated resource
	// frees up.
	AlsoGranted []int
}

// Stats instruments the software implementation.
type Stats struct {
	Requests       int
	Releases       int
	Detections     int        // deadlock detection invocations
	Detection      pdda.Stats // accumulated detection work
	GrantScans     int        // waiter candidates examined on release
	RdlEvents      int
	GdlEvents      int
	LivelockEvents int
}

// Invocations returns the number of avoidance algorithm invocations (every
// request and release invokes the algorithm once — the counting used by
// Tables 7 and 9).
func (s Stats) Invocations() int { return s.Requests + s.Releases }

// Config tunes the avoider.
type Config struct {
	Procs     int
	Resources int
	// LivelockThreshold is the number of consecutive GiveUpRequested
	// answers for the same (process, resource) pair after which the avoider
	// declares livelock and escalates by asking the owner to release
	// instead.  Zero means the default of 3.
	LivelockThreshold int
}

// DefaultLivelockThreshold is used when Config.LivelockThreshold is zero.
const DefaultLivelockThreshold = 3

// Avoider is the DAA state machine: the tracked RAG, static process
// priorities, and livelock counters.
type Avoider struct {
	cfg      Config
	g        *rag.Graph
	psc      pdda.Scratch
	prio     []Priority
	deny     map[[2]int]int // consecutive give-up answers per (proc, res); absent is 0
	waiters  []int          // Release's requester buffer, reused per event
	stats    Stats
	detector func(*rag.Graph) bool
}

// SetDetector overrides the deadlock detector used to vet edges.  The
// default is software PDDA; the hardware DAU injects its embedded DDU here so
// detection work is charged to the hardware step counter instead.  The
// detector receives the tracked graph with the tentative edge applied, and
// must not keep or modify it.
func (a *Avoider) SetDetector(d func(*rag.Graph) bool) { a.detector = d }

// New creates an avoider with all processes at equal priority 0.
func New(cfg Config) (*Avoider, error) {
	if cfg.Procs <= 0 || cfg.Resources <= 0 {
		return nil, fmt.Errorf("daa: invalid size %d procs x %d resources", cfg.Procs, cfg.Resources)
	}
	if cfg.LivelockThreshold == 0 {
		cfg.LivelockThreshold = DefaultLivelockThreshold
	}
	if cfg.LivelockThreshold < 0 {
		return nil, fmt.Errorf("daa: negative livelock threshold")
	}
	return &Avoider{
		cfg:  cfg,
		g:    rag.NewGraph(cfg.Resources, cfg.Procs),
		prio: make([]Priority, cfg.Procs),
		deny: make(map[[2]int]int),
	}, nil
}

// SetPriority sets process p's static priority.
func (a *Avoider) SetPriority(p int, prio Priority) {
	a.prio[p] = prio
}

// Graph exposes the tracked RAG for inspection.
func (a *Avoider) Graph() *rag.Graph { return a.g }

// Stats returns accumulated instrumentation.
func (a *Avoider) Stats() Stats { return a.stats }

// Holder returns the current owner of resource q, or -1.
func (a *Avoider) Holder(q int) int { return a.g.Holder(q) }

// detect runs deadlock detection on the tracked graph, charging stats.
func (a *Avoider) detect() bool {
	a.stats.Detections++
	if a.detector != nil {
		return a.detector(a.g)
	}
	dead, st := pdda.DetectGraphInto(&a.psc, a.g)
	a.stats.Detection.Add(st)
	return dead
}

// Request processes a request event (case "a request" of Algorithm 3).
func (a *Avoider) Request(p, q int) (RequestResult, error) {
	if err := a.checkIDs(p, q); err != nil {
		return RequestResult{}, err
	}
	a.stats.Requests++
	res := RequestResult{AskedProcess: -1}

	owner := a.g.Holder(q)
	if owner == p {
		return res, fmt.Errorf("daa: p%d already holds q%d", p+1, q+1)
	}
	if owner == -1 {
		// Lines 3-4: resource available, grant immediately — unless the
		// grant itself would close a cycle (possible when the requester
		// already has pending request edges and other processes wait on q,
		// e.g. after a release left q free because every waiter was unsafe).
		// The DAU always vets the edge on its internal matrix before
		// committing it.  The grant replaces any request edge p had for q.
		if err := a.g.SetGrant(q, p); err != nil {
			return res, err
		}
		if a.detect() {
			// Granting now would deadlock; undo the grant and park the
			// request instead, which also restores an edge p already had.
			// A request edge to a free resource can never close a cycle
			// (the free resource has no outgoing grant edge).
			if err := a.g.Release(q, p); err != nil {
				return res, err
			}
			a.stats.GdlEvents++
			a.g.AddRequest(q, p)
			res.Decision = Pending
			return res, nil
		}
		delete(a.deny, [2]int{p, q})
		res.Decision = Granted
		return res, nil
	}

	// Line 5: would the request cause R-dl?  Tentatively add the edge and
	// run detection, exactly as the DAU does on its internal matrix.  Every
	// outcome but a give-up keeps the edge.
	had := a.g.Requesting(q, p)
	a.g.AddRequest(q, p)
	if a.detect() {
		a.stats.RdlEvents++
		res.RDl = true
		if a.prio[p].HigherThan(a.prio[owner]) {
			// Lines 6-8: requester outranks owner — queue the request and
			// ask the owner to release.
			res.Decision = PendingOwnerAsked
			res.AskedProcess = owner
			return res, nil
		}
		// Lines 9-10: requester is weaker — ask it to give up what it holds.
		key := [2]int{p, q}
		a.deny[key]++
		if a.deny[key] >= a.cfg.LivelockThreshold {
			// Livelock resolution: repeatedly denying the same request
			// starves the requester while others make progress.  Escalate by
			// asking the current owner to release instead, and queue the
			// request so the release hands the resource over safely.
			a.stats.LivelockEvents++
			delete(a.deny, key)
			res.Decision = PendingOwnerAsked
			res.Livelock = true
			res.AskedProcess = owner
			return res, nil
		}
		if !had {
			a.g.RemoveRequest(q, p)
		}
		res.Decision = GiveUpRequested
		res.AskedProcess = p
		return res, nil
	}

	// Lines 12-13: busy but safe — the request becomes pending.
	res.Decision = Pending
	return res, nil
}

// Release processes a release event (case "a release" of Algorithm 3).  The
// releasing process must hold q (Assumption 2).
func (a *Avoider) Release(p, q int) (ReleaseResult, error) {
	if err := a.checkIDs(p, q); err != nil {
		return ReleaseResult{}, err
	}
	a.stats.Releases++
	res := ReleaseResult{GrantedTo: -1}
	if err := a.g.Release(q, p); err != nil {
		return res, err
	}

	a.waiters = a.g.AppendRequesters(a.waiters[:0], q)
	if len(a.waiters) == 0 {
		// Lines 23-24: nobody waiting; the resource becomes available.
		return res, nil
	}

	// Lines 17-22: try waiters from highest priority down; the first whose
	// tentative grant does not cause G-dl receives the resource.  A refused
	// grant is undone and the waiter's request edge, which the grant
	// replaced, restored.
	a.sortByPriority(a.waiters)
	for i, w := range a.waiters {
		a.stats.GrantScans++
		if err := a.g.SetGrant(q, w); err != nil {
			return res, err
		}
		if !a.detect() {
			delete(a.deny, [2]int{w, q})
			res.GrantedTo = w
			if i > 0 {
				a.stats.GdlEvents++
				res.GDl = true
			}
			return res, nil
		}
		if err := a.g.Release(q, w); err != nil {
			return res, err
		}
		a.g.AddRequest(q, w)
		res.SkippedWaiters = append(res.SkippedWaiters, w)
	}
	// Every waiter would deadlock: leave the resource free.  (This can only
	// happen transiently; the next release unblocks a waiter.)
	a.stats.GdlEvents++
	res.GDl = true
	return res, nil
}

// GiveUp performs a requester's give-up: process p releases every resource
// it currently holds (Assumption 3's mechanism), handing each to a safe
// waiter via the normal release path.  Returns the release results.
func (a *Avoider) GiveUp(p int) ([]ReleaseResult, error) {
	if p < 0 || p >= a.cfg.Procs {
		return nil, fmt.Errorf("daa: process %d out of range", p)
	}
	var out []ReleaseResult
	for _, q := range a.g.HeldBy(p) {
		r, err := a.Release(p, q)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Deadlocked runs detection on the tracked graph (for verification: an
// avoider-managed system must never report true).
func (a *Avoider) Deadlocked() bool {
	dead, _ := pdda.DetectGraphInto(&a.psc, a.g)
	return dead
}

func (a *Avoider) checkIDs(p, q int) error {
	if p < 0 || p >= a.cfg.Procs {
		return fmt.Errorf("daa: process %d out of range", p)
	}
	if q < 0 || q >= a.cfg.Resources {
		return fmt.Errorf("daa: resource %d out of range", q)
	}
	return nil
}

// sortByPriority orders process ids in place by descending importance
// (highest priority first), breaking ties by process id for determinism.
func (a *Avoider) sortByPriority(out []int) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			pj, pj1 := out[j], out[j-1]
			if a.prio[pj].HigherThan(a.prio[pj1]) ||
				(a.prio[pj] == a.prio[pj1] && pj < pj1) {
				out[j], out[j-1] = out[j-1], out[j]
			} else {
				break
			}
		}
	}
}
