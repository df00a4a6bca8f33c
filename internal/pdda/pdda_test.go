package pdda

import (
	"testing"
	"testing/quick"

	"deltartos/internal/det"
	"deltartos/internal/rag"
)

func TestDetectNoDeadlockEmpty(t *testing.T) {
	mx := rag.NewMatrix(3, 3)
	dl, stats := Detect(mx)
	if dl {
		t.Error("empty matrix reported deadlocked")
	}
	if stats.CellReads == 0 || stats.CellWrites == 0 {
		t.Error("instrumentation should count construction and final test")
	}
}

func TestDetectTwoCycle(t *testing.T) {
	g := rag.CycleGraph(2, 2, 2)
	dl, _ := DetectGraph(g)
	if !dl {
		t.Error("2-cycle not detected")
	}
}

func TestDetectChainReduces(t *testing.T) {
	for k := 1; k <= 12; k++ {
		g := rag.Chain(k, k)
		dl, stats := DetectGraph(g)
		if dl {
			t.Errorf("Chain(%d) falsely deadlocked", k)
		}
		if k >= 2 && stats.Iterations < 1 {
			t.Errorf("Chain(%d): no reduction iterations recorded", k)
		}
	}
}

func TestReduceInPlace(t *testing.T) {
	g := rag.Chain(4, 4)
	mx := g.Matrix()
	k, _ := Reduce(mx)
	if !mx.Empty() {
		t.Error("acyclic matrix should reduce completely")
	}
	if k == 0 {
		t.Error("reduction of non-empty matrix should take at least one step")
	}
}

func TestReduceIrreducibleCycle(t *testing.T) {
	mx := rag.CycleGraph(3, 3, 3).Matrix()
	before := mx.Clone()
	k, _ := Reduce(mx)
	if k != 0 {
		t.Errorf("pure cycle should be irreducible immediately, k=%d", k)
	}
	if !mx.Equal(before) {
		t.Error("irreducible matrix was modified")
	}
}

// The worked example of the paper's Figure 12: one terminal reduction step.
func TestPaperFigure12ReductionStep(t *testing.T) {
	// Build the 3x6 matrix of Figure 12(a):
	//   q1: g->p1, r from p3
	//   q2: r from p2, r from p3     (terminal row: requests only)
	//   q3: g->p4                    (terminal row: single grant)
	// Columns p2 (requests only), p4 (grants only), p6 (empty edge case
	// exercised by construction p6 requests q2 in the figure; we include it).
	mx := rag.NewMatrix(3, 6)
	mx.Set(0, 0, rag.Grant)
	mx.Set(0, 2, rag.Request)
	mx.Set(1, 1, rag.Request)
	mx.Set(1, 2, rag.Request)
	mx.Set(1, 5, rag.Request)
	mx.Set(2, 3, rag.Grant)

	_, _, trace := ReduceTraced(mx.Clone())
	if len(trace) == 0 {
		t.Fatal("no reduction steps recorded")
	}
	first := trace[0]
	wantRows := map[int]bool{1: true, 2: true} // q2, q3 terminal
	for _, s := range first.TerminalRows {
		if !wantRows[s] {
			t.Errorf("unexpected terminal row q%d", s+1)
		}
		delete(wantRows, s)
	}
	if len(wantRows) != 0 {
		t.Errorf("missing terminal rows: %v", wantRows)
	}
	// Terminal columns: p1 (grants only), p2 (request only), p3 (requests
	// only), p4 (grant only), p6 (request only).  p5 has no edges, so its
	// XOR is 0 and it is not terminal.
	wantCols := map[int]bool{0: true, 1: true, 2: true, 3: true, 5: true}
	for _, c := range first.TerminalCols {
		if !wantCols[c] {
			t.Errorf("unexpected terminal column p%d", c+1)
		}
		delete(wantCols, c)
	}
	if len(wantCols) != 0 {
		t.Errorf("missing terminal columns: %v", wantCols)
	}
	// After the full sequence the matrix must be empty (no cycle present).
	work := mx.Clone()
	Reduce(work)
	if !work.Empty() {
		t.Errorf("figure 12 matrix should reduce completely:\n%s", work)
	}
}

func TestDetectDoesNotMutateInput(t *testing.T) {
	mx := rag.CycleGraph(3, 3, 2).Matrix()
	before := mx.Clone()
	Detect(mx)
	if !mx.Equal(before) {
		t.Error("Detect mutated its input")
	}
}

// PDDA must agree with the DFS cycle oracle on random graphs (the paper's
// correctness theorem: deadlock iff cycle).
func TestPDDAMatchesOracleRandom(t *testing.T) {
	rng := det.New(99)
	for i := 0; i < 500; i++ {
		m := 1 + rng.Intn(9)
		n := 1 + rng.Intn(9)
		g := rag.Random(rng, m, n, 0.7, 0.3)
		want := g.HasCycle()
		got, _ := DetectGraph(g)
		if got != want {
			t.Fatalf("case %d (%dx%d): PDDA=%v oracle=%v\n%s", i, m, n, got, want, g.Matrix())
		}
	}
}

func TestWorstCaseBound(t *testing.T) {
	cases := []struct{ m, n, want int }{
		{2, 3, 1},
		{5, 5, 7},
		{7, 7, 11},
		{10, 10, 17},
		{50, 50, 97},
		{1, 1, 1},
	}
	for _, c := range cases {
		if got := WorstCaseBound(c.m, c.n); got != c.want {
			t.Errorf("WorstCaseBound(%d,%d) = %d, want %d", c.m, c.n, got, c.want)
		}
	}
}

// Property: reduction is bounded by m+n steps (each step permanently empties
// at least one row or column, and empty lines are never terminal again), and
// stays within a small constant of the paper's 2*min(m,n) hardware bound.
func TestReductionBoundProperty(t *testing.T) {
	rng := det.New(123)
	for i := 0; i < 500; i++ {
		m := 1 + rng.Intn(12)
		n := 1 + rng.Intn(12)
		g := rag.Random(rng, m, n, 0.8, 0.4)
		mx := g.Matrix()
		k, _ := Reduce(mx)
		if k > m+n {
			t.Fatalf("%dx%d reduced in %d steps > m+n", m, n, k)
		}
		lim := 2 * min(m, n)
		if k > lim {
			t.Fatalf("%dx%d reduced in %d steps > 2*min = %d", m, n, k, lim)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Property: each reduction step strictly decreases the edge count, so the
// sequence terminates (Definition 13(iii): all intermediate states unique).
func TestReductionMonotoneProperty(t *testing.T) {
	rng := det.New(321)
	for i := 0; i < 200; i++ {
		g := rag.Random(rng, 1+rng.Intn(8), 1+rng.Intn(8), 0.7, 0.3)
		mx := g.Matrix()
		_, _, trace := ReduceTraced(mx)
		prevR, prevG := g.Matrix().Edges()
		prev := prevR + prevG
		for j, st := range trace {
			r, gr := st.After.Edges()
			cur := r + gr
			if cur >= prev && prev != 0 {
				t.Fatalf("case %d step %d: edges %d -> %d not decreasing", i, j, prev, cur)
			}
			prev = cur
		}
	}
}

// Property: the chain RAG achieves the worst-case behaviour the DDU tables
// are built from — its reduction step count grows linearly in min(m,n).
func TestChainStepGrowth(t *testing.T) {
	prev := 0
	for k := 2; k <= 30; k++ {
		mx := rag.Chain(k, k).Matrix()
		steps, _ := Reduce(mx)
		if steps < prev {
			t.Fatalf("chain %d: steps %d decreased from %d", k, steps, prev)
		}
		prev = steps
	}
	if prev < 14 {
		t.Errorf("chain-30 steps = %d, expected linear growth", prev)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Iterations: 1, CellReads: 2, CellWrites: 3, Ops: 4}
	a.Add(Stats{Iterations: 10, CellReads: 20, CellWrites: 30, Ops: 40})
	if a.Iterations != 11 || a.CellReads != 22 || a.CellWrites != 33 || a.Ops != 44 {
		t.Errorf("Stats.Add = %+v", a)
	}
}

// quick.Check harness for PDDA == oracle on generated edge lists.
func TestPDDAQuickProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := det.New(uint64(seed))
		g := rag.Random(rng, 1+rng.Intn(10), 1+rng.Intn(10), 0.75, 0.3)
		got, _ := DetectGraph(g)
		return got == g.HasCycle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
