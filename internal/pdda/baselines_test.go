package pdda

import (
	"testing"

	"deltartos/internal/det"
	"deltartos/internal/rag"
)

// This file holds the prior-work software deadlock detectors cited in
// Section 3.3.2, the baselines of BenchmarkDetectorBaselines:
//
//	Holt (1972)              — O(m·n) graph reduction
//	Shoshani–Coffman (1970)  — O(m·n²) repeated-scan detection
//	Leibfried (1989)         — O(k³) adjacency-matrix powering, k = m+n
//
// No table or report prints them, so they live with their tests.  Each
// returns the same answer as the cycle oracle on the paper's single-unit
// resource model (property-tested) and reports instrumentation so that the
// benchmark can compare operation counts against PDDA.

// DetectHolt is Holt's reduction algorithm: repeatedly pick an unblocked
// process, remove it together with its grant edges (simulating it finishing
// and releasing), then re-examine.  Deadlock iff blocked processes remain.
// With a work list this is O(m·n).
func DetectHolt(g *rag.Graph) (bool, Stats) {
	var stats Stats
	m, n := g.Size()
	w := g.Clone()
	removed := make([]bool, n)
	for {
		progress := false
		stats.Iterations++
		for t := 0; t < n; t++ {
			if removed[t] {
				continue
			}
			blocked := false
			for _, s := range w.RequestedBy(t) {
				stats.CellReads++
				if w.Holder(s) != -1 && w.Holder(s) != t {
					blocked = true
					break
				}
			}
			stats.CellReads += m // scan of t's request row
			if !blocked {
				// Process can run to completion: release all and vanish.
				for _, s := range w.HeldBy(t) {
					if err := w.Release(s, t); err != nil {
						panic("pdda: holt release: " + err.Error())
					}
					stats.CellWrites++
				}
				for _, s := range w.RequestedBy(t) {
					w.RemoveRequest(s, t)
					stats.CellWrites++
				}
				removed[t] = true
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	for t := 0; t < n; t++ {
		if !removed[t] && len(w.RequestedBy(t)) > 0 {
			return true, stats
		}
	}
	return false, stats
}

// DetectShoshani is the Shoshani–Coffman style O(m·n²) detector: for every
// process, walk the wait-for chain (through single-unit resource holders)
// marking visits; a revisit within one walk is a cycle.
func DetectShoshani(g *rag.Graph) (bool, Stats) {
	var stats Stats
	_, n := g.Size()
	for start := 0; start < n; start++ {
		stats.Iterations++
		seen := make([]bool, n)
		frontier := []int{start}
		seen[start] = true
		for len(frontier) > 0 {
			t := frontier[0]
			frontier = frontier[1:]
			for _, s := range g.RequestedBy(t) {
				stats.CellReads++
				h := g.Holder(s)
				stats.CellReads++
				if h == -1 {
					continue
				}
				if h == start {
					return true, stats
				}
				if !seen[h] {
					seen[h] = true
					frontier = append(frontier, h)
				}
			}
		}
	}
	return false, stats
}

// DetectLeibfried is Leibfried's adjacency-matrix formulation: build the
// (m+n)×(m+n) boolean adjacency matrix of the RAG and compute its transitive
// closure by repeated boolean multiplication; deadlock iff some diagonal
// element becomes true.  O(k³) per multiply, O(k³·log k) total with the
// squaring schedule used here.
func DetectLeibfried(g *rag.Graph) (bool, Stats) {
	var stats Stats
	m, n := g.Size()
	k := m + n
	// adj[i][j]: edge i -> j.  Processes 0..n-1, resources n..n+m-1.
	adj := make([][]bool, k)
	for i := range adj {
		adj[i] = make([]bool, k)
	}
	for s := 0; s < m; s++ {
		if h := g.Holder(s); h != -1 {
			adj[n+s][h] = true
			stats.CellWrites++
		}
		for _, t := range g.Requesters(s) {
			adj[t][n+s] = true
			stats.CellWrites++
		}
	}
	// Path doubling: reach holds all paths of length 1..2^i after i squarings,
	// so ⌈log2 k⌉ multiplications suffice for the transitive closure.
	reach := adj
	for pow := 1; pow < k; pow *= 2 {
		stats.Iterations++
		next := boolSquarePlus(reach, reach, &stats)
		if sameBoolMatrix(reach, next) {
			break
		}
		reach = next
	}
	for i := 0; i < k; i++ {
		stats.CellReads++
		if reach[i][i] {
			return true, stats
		}
	}
	return false, stats
}

// boolSquarePlus returns r OR r·a (one step of closure growth).
func boolSquarePlus(r, a [][]bool, stats *Stats) [][]bool {
	k := len(r)
	out := make([][]bool, k)
	for i := 0; i < k; i++ {
		out[i] = make([]bool, k)
		copy(out[i], r[i])
		for j := 0; j < k; j++ {
			if !out[i][j] {
				for l := 0; l < k; l++ {
					stats.Ops++
					if r[i][l] && a[l][j] {
						out[i][j] = true
						break
					}
				}
			}
		}
	}
	return out
}

func sameBoolMatrix(a, b [][]bool) bool {
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestHoltSimpleCases(t *testing.T) {
	if dl, _ := DetectHolt(rag.CycleGraph(3, 3, 3)); !dl {
		t.Error("Holt missed 3-cycle")
	}
	if dl, _ := DetectHolt(rag.Chain(5, 5)); dl {
		t.Error("Holt false positive on chain")
	}
	if dl, _ := DetectHolt(rag.NewGraph(2, 2)); dl {
		t.Error("Holt false positive on empty graph")
	}
}

func TestShoshaniSimpleCases(t *testing.T) {
	if dl, _ := DetectShoshani(rag.CycleGraph(4, 4, 2)); !dl {
		t.Error("Shoshani missed 2-cycle")
	}
	if dl, _ := DetectShoshani(rag.Chain(6, 6)); dl {
		t.Error("Shoshani false positive on chain")
	}
}

func TestLeibfriedSimpleCases(t *testing.T) {
	if dl, _ := DetectLeibfried(rag.CycleGraph(5, 5, 5)); !dl {
		t.Error("Leibfried missed 5-cycle")
	}
	if dl, _ := DetectLeibfried(rag.Chain(5, 5)); dl {
		t.Error("Leibfried false positive on chain")
	}
}

// All three baselines must agree with the DFS oracle on random graphs.
func TestBaselinesMatchOracle(t *testing.T) {
	rng := det.New(2024)
	for i := 0; i < 300; i++ {
		g := rag.Random(rng, 1+rng.Intn(7), 1+rng.Intn(7), 0.7, 0.3)
		want := g.HasCycle()
		if got, _ := DetectHolt(g); got != want {
			t.Fatalf("case %d: Holt=%v want %v\n%s", i, got, want, g.Matrix())
		}
		if got, _ := DetectShoshani(g); got != want {
			t.Fatalf("case %d: Shoshani=%v want %v\n%s", i, got, want, g.Matrix())
		}
		if got, _ := DetectLeibfried(g); got != want {
			t.Fatalf("case %d: Leibfried=%v want %v\n%s", i, got, want, g.Matrix())
		}
	}
}

func TestBaselinesAgreeWithPDDA(t *testing.T) {
	rng := det.New(77)
	for i := 0; i < 200; i++ {
		g := rag.Random(rng, 2+rng.Intn(6), 2+rng.Intn(6), 0.8, 0.35)
		p, _ := DetectGraph(g)
		h, _ := DetectHolt(g)
		if p != h {
			t.Fatalf("case %d: PDDA=%v Holt=%v", i, p, h)
		}
	}
}

func TestComplexityOrdering(t *testing.T) {
	g := rag.Chain(10, 10)
	_, sp := DetectGraph(g)
	_, sl := DetectLeibfried(g)
	pddaWork := sp.CellReads + sp.CellWrites + sp.Ops
	leibWork := sl.CellReads + sl.CellWrites + sl.Ops
	if leibWork <= pddaWork {
		t.Errorf("Leibfried O(k^3) work (%d) should exceed PDDA software work (%d)", leibWork, pddaWork)
	}
}

// ---- Prior-work baseline comparison (Section 3.3.2 complexity ladder) ----

func BenchmarkDetectorBaselines(b *testing.B) {
	rng := det.New(11)
	graphs := make([]*rag.Graph, 32)
	for i := range graphs {
		graphs[i] = rag.Random(rng, 10, 10, 0.7, 0.3)
	}
	b.Run("PDDA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DetectGraph(graphs[i%len(graphs)])
		}
	})
	b.Run("Holt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DetectHolt(graphs[i%len(graphs)])
		}
	})
	b.Run("Shoshani", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DetectShoshani(graphs[i%len(graphs)])
		}
	})
	b.Run("Leibfried", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DetectLeibfried(graphs[i%len(graphs)])
		}
	})
	b.Run("DFS-oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graphs[i%len(graphs)].HasCycle()
		}
	})
}
