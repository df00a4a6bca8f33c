// RefBanker is the per-cell reference implementation of the Banker's
// algorithm: boolean claim rows, a plain holder index per resource and the
// original triple-loop safety scan.  It shares no state, claim storage or
// scanning code with the word-parallel Banker (not even the rag.Graph the
// Banker tracks allocations in), so the fuzz campaign can replay every
// seed's traffic through both and flag any grant/refuse divergence.

package daa

import "fmt"

// RefBanker mirrors Banker's public behavior with per-cell internals.
type RefBanker struct {
	m, n     int
	claims   [][]bool // claims[p][q]: p may ever need q
	holder   []int    // holder[q]: process holding q, or -1
	free     []bool   // safety-scan scratch, one per resource
	done     []bool   // safety-scan scratch, one per process
	Refusals int
}

// NewRefBanker creates the per-cell oracle.
func NewRefBanker(procs, resources int) (*RefBanker, error) {
	if procs <= 0 || resources <= 0 {
		return nil, fmt.Errorf("daa: invalid banker size %d x %d", procs, resources)
	}
	b := &RefBanker{
		m:      resources,
		n:      procs,
		holder: make([]int, resources),
		free:   make([]bool, resources),
		done:   make([]bool, procs),
	}
	for q := range b.holder {
		b.holder[q] = -1
	}
	b.claims = make([][]bool, procs)
	for p := range b.claims {
		b.claims[p] = make([]bool, resources)
	}
	return b, nil
}

// DeclareClaim registers that process p may ever need resource q.
func (b *RefBanker) DeclareClaim(p int, resources ...int) error {
	if p < 0 || p >= b.n {
		return fmt.Errorf("daa: process %d out of range", p)
	}
	for _, q := range resources {
		if q < 0 || q >= b.m {
			return fmt.Errorf("daa: resource %d out of range", q)
		}
		b.claims[p][q] = true
	}
	return nil
}

// Request grants q to p under the same rules as Banker.Request, deciding
// safety with the per-cell scan.
func (b *RefBanker) Request(p, q int) (granted bool, err error) {
	if p < 0 || p >= b.n || q < 0 || q >= b.m {
		return false, fmt.Errorf("daa: request (%d,%d) out of range", p, q)
	}
	if !b.claims[p][q] {
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

// safe is the seed triple-loop scan: one holder probe per (process,
// resource) pair per pass.
func (b *RefBanker) safe() bool {
	free, done := b.free, b.done
	for q := 0; q < b.m; q++ {
		free[q] = b.holder[q] == -1
	}
	for p := 0; p < b.n; p++ {
		done[p] = false
	}
	for retired := 0; retired < b.n; {
		progress := false
		for p := 0; p < b.n; p++ {
			if done[p] {
				continue
			}
			ok := true
			for q := 0; q < b.m; q++ {
				if b.claims[p][q] && !free[q] && b.holder[q] != p {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for q := 0; q < b.m; q++ {
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
