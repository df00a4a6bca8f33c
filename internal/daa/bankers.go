package daa

import (
	"fmt"

	"deltartos/internal/rag"
)

// Banker is the traditional deadlock avoidance baseline of Section 3.3.3
// (Dijkstra's Banker's algorithm, specialized to single-unit resources):
// every process must declare up front the maximum set of resources it will
// ever hold, and a request is granted only if the resulting state is SAFE —
// some completion order exists in which every process can still obtain its
// full claim.
//
// The paper's criticisms, reproduced by the comparison tests and the
// freedom benchmark: (i) the safety check runs on every request, (ii) it
// restricts utilization (refuses grants the DAA happily allows), and (iii)
// maximum claims may simply not be known in advance.  The DAA needs no
// claims and grants strictly more often on the same traffic.
//
// Claims are packed one resource-indexed bit plane per process, and the
// safety scan works a word at a time: a process can retire iff
// claims[p] &^ (free | held[p]) is all-zero, where free is the complement
// of the graph's held-any plane.  The scan reuses Banker-owned scratch, so
// steady-state requests allocate nothing.  RefBanker (ref_banker.go) is the
// claim-list oracle this engine is differentially tested against.
type Banker struct {
	m, n   int
	mw     int        // words per resource plane
	claims [][]uint64 // claims[p], bit q: p may ever need q
	g      *rag.Graph
	stats  Stats
	// Refusals counts requests denied because the state would be unsafe.
	Refusals int
	// safety-scan scratch, reused across requests
	free []uint64
	done []bool
}

// NewBanker creates a Banker's-algorithm avoider.  Claims start empty; a
// process with no claim set cannot be granted anything.
func NewBanker(procs, resources int) (*Banker, error) {
	if procs <= 0 || resources <= 0 {
		return nil, fmt.Errorf("daa: invalid banker size %d x %d", procs, resources)
	}
	b := &Banker{m: resources, n: procs, g: rag.NewGraph(resources, procs)}
	b.mw = b.g.ResWords()
	b.claims = make([][]uint64, procs)
	flat := make([]uint64, procs*b.mw)
	for p := range b.claims {
		b.claims[p] = flat[p*b.mw : (p+1)*b.mw : (p+1)*b.mw]
	}
	b.free = make([]uint64, b.mw)
	b.done = make([]bool, procs)
	return b, nil
}

// DeclareClaim registers that process p may ever need resource q.  All
// claims must be declared before the process first requests (the algorithm's
// defining requirement).
func (b *Banker) DeclareClaim(p int, resources ...int) error {
	if p < 0 || p >= b.n {
		return fmt.Errorf("daa: process %d out of range", p)
	}
	for _, q := range resources {
		if q < 0 || q >= b.m {
			return fmt.Errorf("daa: resource %d out of range", q)
		}
		b.claims[p][q/64] |= 1 << (uint(q) % 64)
	}
	return nil
}

// Graph exposes the tracked allocation state.
func (b *Banker) Graph() *rag.Graph { return b.g }

// Stats returns instrumentation.
func (b *Banker) Stats() Stats { return b.stats }

// Request grants q to p only if p claimed q, q is free, and the grant
// leaves the system in a safe state.  Unsafe or busy requests return
// granted=false (the caller may queue and retry after releases — Banker's
// has no notion of asking anyone to give up).
func (b *Banker) Request(p, q int) (granted bool, err error) {
	if err := b.check(p, q); err != nil {
		return false, err
	}
	b.stats.Requests++
	if b.claims[p][q/64]&(1<<(uint(q)%64)) == 0 {
		return false, fmt.Errorf("daa: p%d requests unclaimed q%d", p+1, q+1)
	}
	if b.g.Holder(q) != -1 {
		return false, nil
	}
	// Tentatively grant and test safety.
	if err := b.g.SetGrant(q, p); err != nil {
		return false, err
	}
	b.stats.Detections++
	if b.safe() {
		return true, nil
	}
	// Unsafe: roll back.
	if err := b.g.Release(q, p); err != nil {
		return false, err
	}
	b.Refusals++
	return false, nil
}

// Release frees q held by p.
func (b *Banker) Release(p, q int) error {
	if err := b.check(p, q); err != nil {
		return err
	}
	b.stats.Releases++
	return b.g.Release(q, p)
}

// safe runs the Banker's safety check: repeatedly find a process whose full
// remaining claim can be satisfied from the free resources plus what
// finished processes would return, and retire it.  Safe iff every process
// retires.  The retirement sweep is word-parallel — per candidate process
// one AND-NOT pass over the claim plane — and the scan order (ascending
// process id, free set updated as each process retires) is identical to
// RefBanker's claim-list loop, so the two produce the same verdicts.
func (b *Banker) safe() bool {
	heldAny := b.g.HeldAnyWords()
	for w := 0; w < b.mw; w++ {
		b.free[w] = ^heldAny[w]
	}
	for p := 0; p < b.n; p++ {
		b.done[p] = false
	}
	for retired := 0; retired < b.n; {
		progress := false
		for p := 0; p < b.n; p++ {
			if b.done[p] {
				continue
			}
			held := b.g.HeldWords(p)
			ok := true
			for w := 0; w < b.mw; w++ {
				// need = claimed minus (free or already held): any surviving
				// bit is a resource p may still demand that nobody can supply.
				if b.claims[p][w]&^(b.free[w]|held[w]) != 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// p can run to completion: it returns everything it holds.
			for w := 0; w < b.mw; w++ {
				b.free[w] |= held[w]
			}
			b.done[p] = true
			retired++
			progress = true
		}
		if !progress {
			return false
		}
	}
	return true
}

func (b *Banker) check(p, q int) error {
	if p < 0 || p >= b.n {
		return fmt.Errorf("daa: process %d out of range", p)
	}
	if q < 0 || q >= b.m {
		return fmt.Errorf("daa: resource %d out of range", q)
	}
	return nil
}
