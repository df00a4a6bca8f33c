// Static derivation: the same facts deltalint's lockorder and claims
// passes infer from Go source, computed directly from a generated
// scenario's task programs.  The derivation is deliberately independent of
// both the executor and the source-level passes, so the three can
// cross-check each other (lint.go round-trips sampled scenarios through
// the real passes and compares against this).

package fuzz

import "slices"

// Static is the scenario's compile-time view.
type Static struct {
	// off/succ is the lock-order graph in CSR form: succ[off[a]:off[a+1]]
	// lists, ascending and without duplicates, every b with an edge a→b —
	// some task acquires b while holding a.  A task names a handful of
	// locks, so the graph is sparse however many resources the system has.
	off, succ []int
	// claims[t] is task t's maximal claim set: every resource its program
	// may acquire, ascending (crash points do not shrink it — static
	// analysis over-approximates).
	claims [][]int
	// hasCycle reports a cycle in the lock-order graph — the static
	// deadlock prediction.  The standing fuzz invariant is runtime
	// deadlock ⇒ hasCycle (static ⊇ runtime).
	hasCycle bool
}

// Derive computes the static view of a scenario in a scratch of its own.
func Derive(sc *Scenario) *Static {
	return DeriveWith(new(ExecScratch), sc)
}

// DeriveWith computes the static view of a scenario in es.
func DeriveWith(es *ExecScratch, sc *Scenario) *Static {
	m := sc.Cfg.Resources
	st := &es.st
	st.claims = zeroed(st.claims, len(sc.Progs))
	ops := 0
	for _, prog := range sc.Progs {
		ops += len(prog.Ops)
	}
	// One backing array holds every task's claim list, so it must not move
	// while the lists are cut from it; edges collects each lock-order edge
	// a→b as a*m+b, duplicates included.
	flat := slices.Grow(es.flat[:0], ops)
	edges := slices.Grow(es.edges[:0], 2*ops)
	held := es.held
	for t, prog := range sc.Progs {
		held = held[:0]
		start := len(flat)
		// The static walk follows the program linearly — exactly the
		// held-set dataflow the lockorder pass runs over task closures.
		// Re-acquiring a held lock records the self-edge a→a.
		for _, op := range prog.Ops {
			if op.Acquire {
				for _, a := range held {
					edges = append(edges, a*m+op.Res)
				}
				if !slices.Contains(held, op.Res) {
					held = append(held, op.Res)
				}
				flat = append(flat, op.Res)
			} else if i := slices.Index(held, op.Res); i >= 0 {
				held = slices.Delete(held, i, i+1)
			}
		}
		if cl := flat[start:]; len(cl) > 0 {
			slices.Sort(cl)
			st.claims[t] = slices.Clip(slices.Compact(cl))
		}
	}
	es.flat, es.edges, es.held = flat, edges, held
	slices.Sort(edges)
	st.succ = slices.Compact(edges)
	st.off = zeroed(st.off, m+1)
	for i, e := range st.succ {
		st.off[e/m+1]++
		st.succ[i] = e % m
	}
	for a := 0; a < m; a++ {
		st.off[a+1] += st.off[a]
	}
	st.hasCycle = es.orderCycle(st.off, st.succ)
	return st
}

// HasCycle reports whether the lock-order graph predicts a deadlock.
func (st *Static) HasCycle() bool { return st.hasCycle }

// Claims returns task t's maximal claim set, ascending.
func (st *Static) Claims(t int) []int { return st.claims[t] }

// Edges counts the lock-order edges.
func (st *Static) Edges() int { return len(st.succ) }

// orderFrame is one frame of orderCycle's DFS: a vertex and the index in
// succ of its next successor.
type orderFrame struct{ v, next int }

// orderCycle is an iterative three-color DFS over the CSR lock-order graph;
// every start vertex reuses the scratch's frame stack.
func (es *ExecScratch) orderCycle(off, succ []int) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	es.color = zeroed(es.color, len(off)-1)
	color := es.color
	// Each vertex is pushed once, so the stack never outgrows the grown
	// array and needs no write-back.
	es.frames = slices.Grow(es.frames[:0], len(color))
	stack := es.frames
	for start := range color {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], orderFrame{start, off[start]})
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next == off[f.v+1] {
				color[f.v] = black
				stack = stack[:len(stack)-1]
				continue
			}
			w := succ[f.next]
			f.next++
			switch color[w] {
			case gray:
				return true
			case white:
				color[w] = gray
				stack = append(stack, orderFrame{w, off[w]})
			}
		}
	}
	return false
}
