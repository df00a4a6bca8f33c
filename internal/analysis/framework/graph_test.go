package framework

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomAdj draws a digraph on n nodes: a few dense clusters (so there are
// several non-trivial SCCs), sparse edges between and across them,
// self-loops when selfLoops is set, and every edge list followed by some
// repeats of its own entries (duplicate edges).  Some nodes get no edges,
// which leaves disconnected parts.
func randomAdj(rng *rand.Rand, n int, selfLoops bool) [][]int {
	adj := make([][]int, n)
	cluster := make([]int, n)
	for v := range cluster {
		cluster[v] = rng.Intn(3)
	}
	for v := 0; v < n; v++ {
		for w := 0; w < n; w++ {
			p := 0.15
			if cluster[v] == cluster[w] {
				p = 0.5
			}
			if (v != w || selfLoops) && rng.Float64() < p {
				adj[v] = append(adj[v], w)
			}
		}
		rng.Shuffle(len(adj[v]), func(i, j int) { adj[v][i], adj[v][j] = adj[v][j], adj[v][i] })
		for k := len(adj[v]); k > 0 && rng.Intn(2) == 0; k-- {
			adj[v] = append(adj[v], adj[v][rng.Intn(len(adj[v]))])
		}
	}
	return adj
}

// bruteCycles lists every simple cycle of adj as a node sequence starting
// at its smallest node, by trying every sequence of distinct nodes whose
// first node is its smallest.
func bruteCycles(adj [][]int) map[string][]int {
	n := len(adj)
	edge := make([][]bool, n)
	for v := range edge {
		edge[v] = make([]bool, n)
		for _, w := range adj[v] {
			edge[v][w] = true
		}
	}
	out := map[string][]int{}
	used := make([]bool, n)
	var seq []int
	var extend func()
	extend = func() {
		last := seq[len(seq)-1]
		if edge[last][seq[0]] {
			out[fmt.Sprint(seq)] = slices.Clone(seq)
		}
		for w := seq[0] + 1; w < n; w++ {
			if !used[w] && edge[last][w] {
				used[w] = true
				seq = append(seq, w)
				extend()
				seq = seq[:len(seq)-1]
				used[w] = false
			}
		}
	}
	for s := 0; s < n; s++ {
		used[s] = true
		seq = append(seq[:0], s)
		extend()
		used[s] = false
	}
	return out
}

// walkKey is a cycle's position in the walk order: its start node, then for
// each hop the rank of the next node among the current node's successors
// (first occurrences, insertion order).  The walk must yield cycles in
// ascending lexicographic order of this key.
func walkKey(adj [][]int, cycle []int) []int {
	key := []int{cycle[0]}
	for i, v := range cycle {
		next := cycle[(i+1)%len(cycle)]
		var firsts []int
		for _, w := range adj[v] {
			if !slices.Contains(firsts, w) {
				firsts = append(firsts, w)
			}
		}
		key = append(key, slices.Index(firsts, next))
	}
	return key
}

// reach is the reflexive-transitive closure of adj.
func reach(adj [][]int) [][]bool {
	n := len(adj)
	r := make([][]bool, n)
	for v := range r {
		r[v] = make([]bool, n)
		r[v][v] = true
		for _, w := range adj[v] {
			r[v][w] = true
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				r[i][j] = r[i][j] || (r[i][k] && r[k][j])
			}
		}
	}
	return r
}

func TestDigraphMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(7)
		adj := randomAdj(rng, n, trial%3 == 0)
		g := NewDigraph(adj)
		name := fmt.Sprintf("trial %d adj %v", trial, adj)

		want := bruteCycles(adj)
		var got [][]int
		for c := range g.Cycles() {
			got = append(got, slices.Clone(c))
		}
		if len(got) != len(want) {
			t.Fatalf("%s: walk found %d cycles %v, brute force %d", name, len(got), got, len(want))
		}
		for i, c := range got {
			if _, ok := want[fmt.Sprint(c)]; !ok {
				t.Fatalf("%s: walk yielded %v, not a simple cycle starting at its smallest node", name, c)
			}
			if i > 0 && slices.Compare(walkKey(adj, got[i-1]), walkKey(adj, c)) >= 0 {
				t.Fatalf("%s: walk yielded %v before %v, against the walk order", name, got[i-1], c)
			}
		}
		if g.HasCycle() != (len(want) > 0) {
			t.Fatalf("%s: HasCycle = %v with %d cycles", name, g.HasCycle(), len(want))
		}

		r := reach(adj)
		comps := g.SCCs()
		compOf := make([]int, n)
		seen := 0
		for ci, comp := range comps {
			for _, v := range comp {
				compOf[v] = ci
				seen++
			}
		}
		if seen != n {
			t.Fatalf("%s: components %v cover %d of %d nodes", name, comps, seen, n)
		}
		for v := 0; v < n; v++ {
			for w := 0; w < n; w++ {
				if mutual := r[v][w] && r[w][v]; mutual != (compOf[v] == compOf[w]) {
					t.Fatalf("%s: nodes %d, %d mutually reachable = %v, components %v", name, v, w, mutual, comps)
				}
				if r[v][w] && compOf[w] > compOf[v] {
					t.Fatalf("%s: %d reaches %d but its component comes first in %v", name, v, w, comps)
				}
			}
		}
	}
}

// SCCs starts roots in ascending ID order and follows successors in the
// order given, so unrelated components come out in a fixed order.
func TestDigraphSCCOrder(t *testing.T) {
	for _, tc := range []struct {
		adj  [][]int
		want [][]int
	}{
		{[][]int{nil, nil, nil}, [][]int{{0}, {1}, {2}}},
		{[][]int{{1}, nil, {1}}, [][]int{{1}, {0}, {2}}},
		{[][]int{{2, 1}, nil, nil}, [][]int{{2}, {1}, {0}}},
		{[][]int{{1}, {0, 2}, {3}, {2}}, [][]int{{3, 2}, {1, 0}}},
	} {
		if got := NewDigraph(tc.adj).SCCs(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SCCs(%v) = %v, want %v", tc.adj, got, tc.want)
		}
	}
}

// A self-loop is the one-node cycle [v]; repeated edges collapse to one.
func TestDigraphSelfLoopAndDuplicates(t *testing.T) {
	g := NewDigraph([][]int{{1, 1, 0}, {0, 0}})
	var got [][]int
	for c := range g.Cycles() {
		got = append(got, slices.Clone(c))
	}
	if want := [][]int{{0, 1}, {0}}; !reflect.DeepEqual(got, want) {
		t.Errorf("Cycles = %v, want %v", got, want)
	}
	if !NewDigraph([][]int{{0}}).HasCycle() {
		t.Error("a lone self-loop is not a cycle")
	}
	if NewDigraph([][]int{{1, 1}, nil}).HasCycle() {
		t.Error("a repeated edge is a cycle")
	}
}

// Breaking out of the range stops the walk.
func TestDigraphCyclesStops(t *testing.T) {
	g := NewDigraph([][]int{{1}, {0, 2}, {0}})
	n := 0
	for range g.Cycles() {
		n++
		break
	}
	if n != 1 {
		t.Errorf("walk yielded %d cycles after a break", n)
	}
}
