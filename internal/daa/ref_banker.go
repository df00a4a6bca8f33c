// RefBanker is the reference Banker's algorithm: a claim list per process,
// a plain holder index per resource and the textbook Work/Finish safety
// scan over those lists, so a scan costs what the processes claim, not n·m.
// It shares no state, claim storage or algorithm with Banker (no rag.Graph,
// no bit plane, no claim-wait search), so the fuzz campaign can replay every
// seed's traffic through both and flag any grant/refuse divergence.

package daa

import (
	"fmt"
	"slices"
)

// RefBanker mirrors Banker's public behavior with claim-list internals.
type RefBanker struct {
	m, n     int
	claims   [][]int // claims[p]: every resource p may ever need, once each
	holder   []int   // holder[q]: process holding q, or -1
	free     []bool  // safety-scan Work, read only at claimed resources
	done     []bool  // safety-scan Finish, one per process
	Refusals int
}

// NewRefBanker creates the reference oracle.
func NewRefBanker(procs, resources int) (*RefBanker, error) {
	if procs <= 0 || resources <= 0 {
		return nil, fmt.Errorf("daa: invalid banker size %d x %d", procs, resources)
	}
	b := &RefBanker{
		m:      resources,
		n:      procs,
		claims: make([][]int, procs),
		holder: make([]int, resources),
		free:   make([]bool, resources),
		done:   make([]bool, procs),
	}
	for q := range b.holder {
		b.holder[q] = -1
	}
	return b, nil
}

// Reset returns the oracle to its state after NewRefBanker.
func (b *RefBanker) Reset() {
	for p := range b.claims {
		b.claims[p] = b.claims[p][:0]
	}
	for q := range b.holder {
		b.holder[q] = -1
	}
	b.Refusals = 0
}

// DeclareClaim registers that process p may ever need resource q.  The
// resources are copied into p's own list, each once; as in Banker, a process
// that holds a resource may not claim (an error that changes nothing).
func (b *RefBanker) DeclareClaim(p int, resources ...int) error {
	if p < 0 || p >= b.n {
		return fmt.Errorf("daa: process %d out of range", p)
	}
	if slices.Contains(b.holder, p) {
		return fmt.Errorf("daa: p%d declares a claim while holding a resource", p+1)
	}
	b.claims[p] = slices.Grow(b.claims[p], len(resources))
	for _, q := range resources {
		if q < 0 || q >= b.m {
			return fmt.Errorf("daa: resource %d out of range", q)
		}
		if !slices.Contains(b.claims[p], q) {
			b.claims[p] = append(b.claims[p], q)
		}
	}
	return nil
}

// Request grants q to p under the same rules as Banker.Request, deciding
// safety with the list scan.
func (b *RefBanker) Request(p, q int) (granted bool, err error) {
	if p < 0 || p >= b.n || q < 0 || q >= b.m {
		return false, fmt.Errorf("daa: request (%d,%d) out of range", p, q)
	}
	if !slices.Contains(b.claims[p], q) {
		return false, fmt.Errorf("daa: p%d requests unclaimed q%d", p+1, q+1)
	}
	if b.holder[q] != -1 {
		return false, nil
	}
	b.holder[q] = p
	if b.safe() {
		return true, nil
	}
	b.holder[q] = -1
	b.Refusals++
	return false, nil
}

// Release frees q held by p.  Releasing a resource p does not hold is an
// error (Assumption 2: a resource can be released only by its holder).
func (b *RefBanker) Release(p, q int) error {
	if p < 0 || p >= b.n || q < 0 || q >= b.m {
		return fmt.Errorf("daa: release (%d,%d) out of range", p, q)
	}
	if b.holder[q] != p {
		return fmt.Errorf("daa: p%d cannot release q%d held by p%d", p+1, q+1, b.holder[q]+1)
	}
	b.holder[q] = -1
	return nil
}

// safe is the textbook Work/Finish scan, processes in ascending order: a
// process finishes once every resource it claims is free or its own, and
// gives back what it holds.  Request grants only claimed resources, so a
// process holds nothing off its list and both loops walk the list.
func (b *RefBanker) safe() bool {
	free, done := b.free, b.done
	for p, claims := range b.claims {
		done[p] = false
		for _, q := range claims {
			free[q] = b.holder[q] == -1
		}
	}
	for retired := 0; retired < b.n; {
		progress := false
		for p := 0; p < b.n; p++ {
			if done[p] {
				continue
			}
			ok := true
			for _, q := range b.claims[p] {
				if !free[q] && b.holder[q] != p {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, q := range b.claims[p] {
				if b.holder[q] == p {
					free[q] = true
				}
			}
			done[p] = true
			retired++
			progress = true
		}
		if !progress {
			return false
		}
	}
	return true
}
