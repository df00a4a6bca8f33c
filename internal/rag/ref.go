// The per-cell reference engine: the original cell-at-a-time
// implementations of the graph queries, preserved verbatim in behavior as
// differential oracles for the packed word-parallel engine in rag.go.  Every
// function here reads the graph exclusively through the public per-cell API
// (Requesting, Holder), never through the packed planes, so the two engines
// share no query code: the fuzz campaign runs both on every seed and any
// silent divergence of the fast engine surfaces as an invariant violation.

package rag

// HasCycleRef is the per-cell deadlock oracle: iterative three-color DFS
// over the full bipartite digraph (request edge p→q, grant edge q→p), the
// seed implementation of HasCycle.  The word-parallel HasCycle must agree
// with it on every graph.
func (g *Graph) HasCycleRef() bool {
	// Node ids: processes 0..n-1, resources n..n+m-1.
	total := g.n + g.m
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, total)
	// succ returns the successor list of node v.
	succ := func(v int) []int {
		var out []int
		if v < g.n {
			// process: request edges p -> q
			for s := 0; s < g.m; s++ {
				if g.Requesting(s, v) {
					out = append(out, g.n+s)
				}
			}
		} else {
			s := v - g.n
			if h := g.Holder(s); h != -1 {
				out = append(out, h)
			}
		}
		return out
	}
	type frame struct {
		v    int
		next []int
	}
	for start := 0; start < total; start++ {
		if color[start] != white {
			continue
		}
		stack := []frame{{start, succ(start)}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if len(f.next) == 0 {
				color[f.v] = black
				stack = stack[:len(stack)-1]
				continue
			}
			w := f.next[0]
			f.next = f.next[1:]
			switch color[w] {
			case gray:
				return true
			case white:
				color[w] = gray
				stack = append(stack, frame{w, succ(w)})
			}
		}
	}
	return false
}

// CycleRef is the per-cell witness extractor: recursive DFS over explicit
// wait-for adjacency lists, the seed implementation of Cycle.  Its search
// order (processes ascending, each process's requested resources ascending)
// matches Cycle exactly, so the two must return identical witnesses — not
// just equal cyclicity — on every graph.
func (g *Graph) CycleRef() []int {
	// waitsFor[t] lists the holders of resources process t requests, in
	// ascending resource order — the process-only wait-for projection.
	waitsFor := make([][]int, g.n)
	for s := 0; s < g.m; s++ {
		h := g.Holder(s)
		if h == -1 {
			continue
		}
		// Note t == h is kept: a process requesting a resource it already
		// holds is the bipartite cycle p→q→p, and HasCycle reports it, so
		// the witness must be the 1-cycle [p].
		for t := 0; t < g.n; t++ {
			if g.Requesting(s, t) {
				waitsFor[t] = append(waitsFor[t], h)
			}
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, g.n)
	onStack := make([]int, 0, g.n)
	var dfs func(v int) []int
	dfs = func(v int) []int {
		color[v] = gray
		onStack = append(onStack, v)
		for _, w := range waitsFor[v] {
			switch color[w] {
			case gray:
				// Back edge: the cycle is the stack suffix starting at w.
				for i, u := range onStack {
					if u == w {
						return append([]int(nil), onStack[i:]...)
					}
				}
			case white:
				if c := dfs(w); c != nil {
					return c
				}
			}
		}
		color[v] = black
		onStack = onStack[:len(onStack)-1]
		return nil
	}
	for v := 0; v < g.n; v++ {
		if color[v] == white {
			onStack = onStack[:0]
			if c := dfs(v); c != nil {
				return c
			}
		}
	}
	return nil
}
