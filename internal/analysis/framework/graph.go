package framework

import "iter"

// Digraph is a directed graph over the dense IDs 0..N-1 in compressed
// sparse row form, the one SCC and cycle engine of the passes.  Successor
// lists keep the order the caller built them in, without repeated edges
// (the first occurrence stays).  A self-loop is a one-node cycle.
type Digraph struct {
	off, succ []int // v's successors are succ[off[v]:off[v+1]]
	selfLoop  bool
}

// NewDigraph builds the graph whose node v has the successors adj[v]; every
// successor must be in [0, len(adj)).
func NewDigraph(adj [][]int) *Digraph {
	g := &Digraph{off: make([]int, len(adj)+1)}
	last := make([]int, len(adj)) // last[w] == v+1: edge v->w already kept
	for v, ws := range adj {
		for _, w := range ws {
			if last[w] == v+1 {
				continue
			}
			last[w] = v + 1
			g.succ = append(g.succ, w)
			g.selfLoop = g.selfLoop || w == v
		}
		g.off[v+1] = len(g.succ)
	}
	return g
}

// SCCs returns the strongly connected components bottom-up: a component
// comes after every component it reaches.  Tarjan's algorithm (iterative)
// starts roots in ascending ID order and follows successors in insertion
// order; members are listed in the order they leave the Tarjan stack.
func (g *Digraph) SCCs() [][]int {
	n := len(g.off) - 1
	index := make([]int, n) // DFS number, from 1; 0 = unvisited
	low := make([]int, n)
	onStack := make([]bool, n)
	var stack []int
	type frame struct{ v, next int } // next: offset of v's next successor
	var work []frame
	var comps [][]int
	counter := 0
	push := func(v int) {
		counter++
		index[v], low[v] = counter, counter
		stack = append(stack, v)
		onStack[v] = true
		work = append(work, frame{v, g.off[v]})
	}
	for root := range n {
		if index[root] == 0 {
			push(root)
		}
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.next < g.off[v+1] {
				w := g.succ[f.next]
				f.next++
				if index[w] == 0 {
					push(w)
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				if p := work[len(work)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for top := -1; top != v; {
					top = stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp = append(comp, top)
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// HasCycle reports whether the graph has a cycle: a component with more
// than one node, or a self-loop.
func (g *Digraph) HasCycle() bool {
	for _, c := range g.SCCs() {
		if len(c) > 1 {
			return true
		}
	}
	return g.selfLoop
}

// Cycles yields every elementary cycle exactly once, as the node sequence
// starting at its smallest node.  Start nodes are taken in ascending order;
// from start s the walk follows successors in insertion order, never enters
// a node smaller than s and never leaves s's component (a path that leaves
// it cannot come back).  The yielded slice is reused: copy it to keep it.
func (g *Digraph) Cycles() iter.Seq[[]int] {
	return func(yield func([]int) bool) {
		compOf := make([]int, len(g.off)-1)
		for c, comp := range g.SCCs() {
			for _, v := range comp {
				compOf[v] = c
			}
		}
		onPath := make([]bool, len(compOf))
		var path []int
		type frame struct{ v, next int }
		var work []frame
		for s := range compOf {
			path, work = append(path[:0], s), append(work[:0], frame{s, g.off[s]})
			onPath[s] = true
			for len(work) > 0 {
				f := &work[len(work)-1]
				if f.next == g.off[f.v+1] {
					onPath[f.v] = false
					path, work = path[:len(path)-1], work[:len(work)-1]
					continue
				}
				w := g.succ[f.next]
				f.next++
				if w == s {
					if !yield(path) {
						return
					}
				} else if w > s && !onPath[w] && compOf[w] == compOf[s] {
					onPath[w] = true
					path, work = append(path, w), append(work, frame{w, g.off[w]})
				}
			}
		}
	}
}
