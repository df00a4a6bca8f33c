package daa

import (
	"fmt"
	"math/bits"
	"slices"

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
// With single-unit resources safety is a graph property (Holt 1972): in
// the claim-wait graph, x → holder(r) for each r that x claims, does not
// hold, and another process holds, and a state is safe iff that graph is
// acyclic.  Grants go only into safe states and releases only remove
// edges, and granting the free q to p adds just the edges x → p from the
// other claimants x of q.  So Request runs one DFS from p (safeAfter): the
// grant is unsafe iff p reaches such an x.  Only a process that holds
// something has incoming edges, so DeclareClaim refuses a claim from one.
// RefBanker (ref_banker.go), the textbook Work/Finish scan, is the oracle
// this engine is differentially tested against.
type Banker struct {
	m, n   int
	claims [][]uint64 // claims[p], bit q: p may ever need q
	g      *rag.Graph
	// Refusals counts requests denied because the state would be unsafe.
	Refusals int
	// safety-search scratch, reused across requests
	seen  []bool
	stack []int
}

// NewBanker creates a Banker's-algorithm avoider.  Claims start empty; a
// process with no claim set cannot be granted anything.
func NewBanker(procs, resources int) (*Banker, error) {
	if procs <= 0 || resources <= 0 {
		return nil, fmt.Errorf("daa: invalid banker size %d x %d", procs, resources)
	}
	b := &Banker{m: resources, n: procs, g: rag.NewGraph(resources, procs)}
	mw := b.g.ResWords()
	b.claims = make([][]uint64, procs)
	flat := make([]uint64, procs*mw)
	for p := range b.claims {
		b.claims[p] = flat[p*mw : (p+1)*mw : (p+1)*mw]
	}
	b.seen = make([]bool, procs)
	b.stack = make([]int, 0, procs)
	return b, nil
}

// Reset returns the Banker to its state after NewBanker, keeping its storage.
func (b *Banker) Reset() {
	for _, c := range b.claims {
		clear(c)
	}
	b.g.Reset()
	b.Refusals = 0
}

// DeclareClaim registers that process p may ever need resource q.  Claims
// must be declared while p holds nothing (the algorithm's defining
// requirement, and the precondition of safeAfter); a claim from a process
// that holds a resource is an error and changes nothing.
func (b *Banker) DeclareClaim(p int, resources ...int) error {
	if p < 0 || p >= b.n {
		return fmt.Errorf("daa: process %d out of range", p)
	}
	if slices.ContainsFunc(b.g.HeldWords(p), func(w uint64) bool { return w != 0 }) {
		return fmt.Errorf("daa: p%d declares a claim while holding a resource", p+1)
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

// Request grants q to p only if p claimed q, q is free, and the grant
// leaves the system in a safe state.  Unsafe or busy requests return
// granted=false (the caller may queue and retry after releases — Banker's
// has no notion of asking anyone to give up).
func (b *Banker) Request(p, q int) (granted bool, err error) {
	if err := b.check(p, q); err != nil {
		return false, err
	}
	if b.claims[p][q/64]&(1<<(uint(q)%64)) == 0 {
		return false, fmt.Errorf("daa: p%d requests unclaimed q%d", p+1, q+1)
	}
	if b.g.Holder(q) != -1 {
		return false, nil
	}
	if !b.safeAfter(p, q) {
		b.Refusals++
		return false, nil
	}
	return true, b.g.SetGrant(q, p) // q is free, so this cannot fail
}

// Release frees q held by p.
func (b *Banker) Release(p, q int) error {
	if err := b.check(p, q); err != nil {
		return err
	}
	return b.g.Release(q, p)
}

// safeAfter reports whether granting the free q to p leaves the state
// safe: whether no other claimant of q is reachable from p.  Out-edges come
// a word at a time from the claim, held and held-any planes.
func (b *Banker) safeAfter(p, q int) bool {
	qw, qbit := q/64, uint64(1)<<(uint(q)%64)
	heldAny := b.g.HeldAnyWords()
	clear(b.seen)
	b.seen[p] = true
	stack := append(b.stack[:0], p) // each process is pushed once: cap n suffices
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		held := b.g.HeldWords(x)
		for w, c := range b.claims[x] {
			for word := c &^ held[w] & heldAny[w]; word != 0; word &= word - 1 {
				y := b.g.Holder(w*64 + bits.TrailingZeros64(word))
				if b.seen[y] {
					continue
				}
				if b.claims[y][qw]&qbit != 0 {
					return false // y claims q: the grant closes y → p → … → y
				}
				b.seen[y] = true
				stack = append(stack, y)
			}
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
