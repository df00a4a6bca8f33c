package framework

// Generic worklist dataflow solver over a CFG.  Facts are opaque (any); a
// FlowProblem supplies the boundary fact, the per-block transfer function,
// the merge rule and fact equality.  Facts flow forward from Entry along
// Succs edges.  The solver iterates blocks in reverse post-order until a
// fixpoint, which keeps both the iteration count low and — more importantly here — the
// visit order deterministic, so diagnostics emitted from inside Join or
// Transfer come out in a stable order.
//
// A nil fact means "unreachable": blocks that never receive a fact are
// skipped, and their diagnostics are never produced (code after an
// unconditional return is not analyzed, matching the runtime).

// EdgeFact pairs an in-edge with the fact that flows across it.
type EdgeFact struct {
	Edge *Edge
	Fact any
}

// FlowProblem defines one dataflow analysis.
type FlowProblem interface {
	// Boundary is the fact entering the Entry block.
	Boundary() any
	// Transfer computes the fact leaving block b given the fact entering
	// it.  It must not mutate in; return a new fact.
	Transfer(b *Block, in any) any
	// Join merges the facts arriving over b's in-edges (only reachable
	// edges are included; len(in) >= 1).  Problems use b.Kind to apply
	// different rules at joins, loop heads and the exit.
	Join(b *Block, in []EdgeFact) any
	// Equal reports whether two facts are equal (fixpoint test).
	Equal(a, b any) bool
}

// EdgeRefiner is an optional FlowProblem extension: FlowThrough refines the
// fact crossing an edge using the edge's branch condition (e.Cond/e.Negate).
// Returning nil kills the path (the edge is treated as unreachable).
type EdgeRefiner interface {
	FlowThrough(e *Edge, fact any) any
}

// maxSweeps caps fixpoint iteration; lock/lifetime facts stabilize in two
// or three sweeps, so hitting the cap means a mis-behaving transfer — the
// solver stops with the facts computed so far rather than spinning.
const maxSweeps = 64

// Solve runs p over g to a fixpoint and returns the fact at each block's
// entry.  Blocks never reached hold no entry in the map.
func Solve(g *CFG, p FlowProblem) map[*Block]any {
	order := iterationOrder(g)
	refiner, _ := p.(EdgeRefiner)

	in := make(map[*Block]any, len(order))
	out := make(map[*Block]any, len(order))

	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		for _, b := range order {
			var inFact any
			if b == g.Entry {
				inFact = p.Boundary()
			} else {
				var facts []EdgeFact
				for _, e := range b.Preds {
					f, ok := out[e.From]
					if !ok || f == nil {
						continue
					}
					if refiner != nil {
						if f = refiner.FlowThrough(e, f); f == nil {
							continue
						}
					}
					facts = append(facts, EdgeFact{Edge: e, Fact: f})
				}
				if len(facts) == 0 {
					continue // unreachable so far
				}
				inFact = p.Join(b, facts)
			}
			in[b] = inFact
			o := p.Transfer(b, inFact)
			prev, ok := out[b]
			if !ok || !p.Equal(prev, o) {
				out[b] = o
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return in
}

// iterationOrder returns the blocks reachable from Entry in reverse
// post-order — the classic order that visits a block after all its
// non-back-edge predecessors.
func iterationOrder(g *CFG) []*Block {
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var visit func(b *Block)
	visit = func(b *Block) {
		seen[b.Index] = true
		for _, e := range b.Succs {
			if !seen[e.To.Index] {
				visit(e.To)
			}
		}
		post = append(post, b)
	}
	visit(g.Entry)
	order := make([]*Block, len(post))
	for i, b := range post {
		order[len(post)-1-i] = b
	}
	return order
}
