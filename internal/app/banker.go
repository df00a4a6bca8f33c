package app

import (
	"fmt"
	"sort"

	"deltartos/internal/claims"
	"deltartos/internal/daa"
	"deltartos/internal/sim"
)

// BankerAvoidance runs the classical Banker's algorithm (Section 3.3.3's
// software baseline) as an avoidance backend.  Unlike the DAA/DAU it needs
// every process's maximal claim declared up front — which is exactly what
// the claims static-analysis pass infers, so NewBankerFromManifest closes
// the static-to-runtime loop: the linter's manifest becomes the runtime
// configuration.
//
// The Banker never asks anyone to give resources up; requests refused as
// busy or unsafe wait in priority-ordered pending queues and are retried
// after every release (a refused request can become safe when an unrelated
// resource frees, hence ReleaseResult.AlsoGranted).
type BankerAvoidance struct {
	Meter
	bk               *daa.Banker
	procs, resources int
	prio             []int
	// pending[q] lists processes waiting on q in arrival order.
	pending [][]int
	arrival int
	stamp   map[[2]int]int // (p,q) -> arrival stamp, for stable retry order
}

// bankerOpCycles is the deterministic software cost of one Banker
// invocation: the safety check scans the full claims matrix (procs x
// resources cells, ~7 cycles per cell: load, compare, branch on shared
// memory) on top of the common software entry overhead.
func bankerOpCycles(procs, resources int) sim.Cycles {
	return daaSoftwareOverhead + sim.Cycles(procs*resources*7)
}

// NewBankerAvoidance builds a Banker backend with empty claims; declare
// them with DeclareClaim before tasks run.
func NewBankerAvoidance(procs, resources int) (*BankerAvoidance, error) {
	bk, err := daa.NewBanker(procs, resources)
	if err != nil {
		return nil, err
	}
	b := &BankerAvoidance{
		bk: bk, procs: procs, resources: resources,
		prio:    make([]int, procs),
		pending: make([][]int, resources),
		stamp:   map[[2]int]int{},
	}
	return b, nil
}

// NewBankerFromManifest builds a Banker backend configured from a scenario
// of the static claims manifest — the res-space claim set of every process
// the claims pass inferred from the task bodies.
func NewBankerFromManifest(sc *claims.Scenario, procs, resources int) (*BankerAvoidance, error) {
	if sc == nil {
		return nil, fmt.Errorf("app: banker: nil claims scenario")
	}
	b, err := NewBankerAvoidance(procs, resources)
	if err != nil {
		return nil, err
	}
	rc := sc.ResourceClaims()
	var ps []int
	for p := range rc {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	for _, p := range ps {
		if err := b.DeclareClaim(p, rc[p]...); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DeclareClaim registers process p's maximal claim.
func (b *BankerAvoidance) DeclareClaim(p int, resources ...int) error {
	return b.bk.DeclareClaim(p, resources...)
}

// Name implements AvoidanceBackend.
func (b *BankerAvoidance) Name() string { return "Banker (claims manifest)" }

// SetPriority implements AvoidanceBackend.
func (b *BankerAvoidance) SetPriority(p, prio int) {
	if p >= 0 && p < len(b.prio) {
		b.prio[p] = prio
	}
}

func (b *BankerAvoidance) charge() sim.Cycles {
	return b.add(bankerOpCycles(b.procs, b.resources))
}

// RequestOp implements AvoidanceBackend: grant iff free and safe, else
// queue the request for retry after releases.
func (b *BankerAvoidance) RequestOp(p, q int) (daa.RequestResult, sim.Cycles) {
	granted, err := b.bk.Request(p, q)
	if err != nil {
		panic("app: " + err.Error()) // unclaimed request: manifest/config bug
	}
	cost := b.charge()
	res := daa.RequestResult{AskedProcess: -1}
	if granted {
		res.Decision = daa.Granted
		return res, cost
	}
	b.addPending(p, q)
	res.Decision = daa.Pending
	return res, cost
}

// ReleaseOp implements AvoidanceBackend: free q, then retry every pending
// request in priority order — the freed resource may unblock its own
// waiters, and a previously unsafe request elsewhere may now be safe.
func (b *BankerAvoidance) ReleaseOp(p, q int) (daa.ReleaseResult, sim.Cycles) {
	if err := b.bk.Release(p, q); err != nil {
		panic("app: " + err.Error())
	}
	cost := b.charge()
	res := daa.ReleaseResult{GrantedTo: -1}
	for _, g := range b.retryPending() {
		if g[1] == q && res.GrantedTo < 0 {
			res.GrantedTo = g[0]
		} else {
			res.AlsoGranted = append(res.AlsoGranted, g[0])
		}
	}
	return res, cost
}

func (b *BankerAvoidance) addPending(p, q int) {
	for _, w := range b.pending[q] {
		if w == p {
			return
		}
	}
	b.pending[q] = append(b.pending[q], p)
	key := [2]int{p, q}
	if _, ok := b.stamp[key]; !ok {
		b.arrival++
		b.stamp[key] = b.arrival
	}
}

// retryPending re-issues every queued request, most important (numerically
// smallest) priority first, ties broken by arrival then resource id.  It
// returns the granted (p, q) pairs in grant order.
func (b *BankerAvoidance) retryPending() [][2]int {
	var waits [][2]int
	for q := range b.pending {
		for _, p := range b.pending[q] {
			waits = append(waits, [2]int{p, q})
		}
	}
	sort.Slice(waits, func(i, j int) bool {
		pi, pj := waits[i][0], waits[j][0]
		if b.prio[pi] != b.prio[pj] {
			return b.prio[pi] < b.prio[pj]
		}
		si, sj := b.stamp[waits[i]], b.stamp[waits[j]]
		if si != sj {
			return si < sj
		}
		return waits[i][1] < waits[j][1]
	})
	var granted [][2]int
	for _, w := range waits {
		p, q := w[0], w[1]
		ok, err := b.bk.Request(p, q)
		if err != nil {
			panic("app: " + err.Error())
		}
		if !ok {
			continue
		}
		granted = append(granted, w)
		b.removePending(p, q)
	}
	return granted
}

func (b *BankerAvoidance) removePending(p, q int) {
	ws := b.pending[q]
	for i, w := range ws {
		if w == p {
			b.pending[q] = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	delete(b.stamp, [2]int{p, q})
}

// Holder implements AvoidanceBackend.
func (b *BankerAvoidance) Holder(q int) int { return b.bk.Graph().Holder(q) }

// Held implements AvoidanceBackend.
func (b *BankerAvoidance) Held(p int) []int { return b.bk.Graph().HeldBy(p) }

// Deadlocked implements AvoidanceBackend: the Banker's safety invariant
// rules deadlock out by construction (that is its whole trade: fewer
// grants, never a deadlock).
func (b *BankerAvoidance) Deadlocked() bool { return false }

// Refusals reports how many requests the safety check denied — the
// utilization restriction the paper holds against the Banker.
func (b *BankerAvoidance) Refusals() int { return b.bk.Refusals }
