package pdda

import (
	"fmt"
	"testing"

	"deltartos/internal/det"
	"deltartos/internal/rag"
)

// The word-parallel engine and the per-cell reference engine must agree on
// verdict, step count, and the irreducible matrix itself, across random
// graphs and awkward word geometries: dense graphs where most rows stay live,
// sparse ones where most rows are empty from the start, and block-diagonal
// tiles where rows go empty mid-reduction through column clears.
func TestBitsetEngineMatchesCellEngine(t *testing.T) {
	rng := det.New(7)
	var sc Scratch
	dense := []struct{ m, n int }{
		{1, 1}, {3, 1}, {1, 3}, {5, 5}, {64, 64}, {65, 64}, {64, 65},
		{63, 129}, {129, 63}, {10, 200}, {200, 10},
	}
	for _, size := range dense {
		for trial := 0; trial < 20; trial++ {
			g := rag.Random(rng, size.m, size.n, 0.6, 0.15)
			checkAgainstCells(t, &sc, fmt.Sprintf("dense %dx%d trial %d", size.m, size.n, trial), g)
		}
	}
	for _, n := range []int{63, 64, 65, 129} {
		for _, pGrant := range []float64{0.1, 0.2, 0.3} {
			for trial := 0; trial < 5; trial++ {
				g := rag.Random(rng, 100, n, pGrant, 0.02)
				checkAgainstCells(t, &sc, fmt.Sprintf("sparse 100x%d grant %.1f trial %d", n, pGrant, trial), g)
			}
		}
	}
	emptiedByColumns := 0
	for _, tiles := range []int{1, 4, 9} {
		for trial := 0; trial < 5; trial++ {
			g := rag.BlockDiagonal(rng, tiles, 16, 12, 0.6, 0.15)
			emptiedByColumns += checkAgainstCells(t, &sc, fmt.Sprintf("%d tiles of 16x12 trial %d", tiles, trial), g)
		}
	}
	if emptiedByColumns == 0 {
		t.Fatal("no block-diagonal trial emptied a row through a column clear")
	}
}

// A Scratch reused across calls must answer exactly as a fresh one: the
// same verdict, k and Stats, and the verdict of the per-cell engine.  One
// scratch runs a seeded interleaving of every entry point over graphs of
// three sizes, deadlocked and not, including a working matrix filled
// through Work and abandoned before the next DetectGraphInto.  Rows left
// over from an earlier scan, or from a caller's fill, would change a
// verdict or k here.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := det.New(41)
	sizes := []struct{ m, n int }{{7, 13}, {64, 65}, {64, 48}}
	type entry struct {
		g    *rag.Graph
		dead bool
	}
	pool := make([][]entry, len(sizes))
	for i, sz := range sizes {
		graphs := []*rag.Graph{rag.Chain(sz.m, sz.n), rag.CycleGraph(sz.m, sz.n, 3)}
		for trial := 0; trial < 4; trial++ {
			graphs = append(graphs,
				rag.Random(rng, sz.m, sz.n, 0.6, 0.15),
				rag.Random(rng, sz.m, sz.n, 0.3, 0.01))
		}
		if sz.m == 64 && sz.n == 48 {
			for trial := 0; trial < 4; trial++ {
				graphs = append(graphs, rag.BlockDiagonal(rng, 4, 16, 12, 0.6, 0.15))
			}
		}
		deadlocked := 0
		for _, g := range graphs {
			e := entry{g, DetectGraphCells(g)}
			if e.dead {
				deadlocked++
			}
			pool[i] = append(pool[i], e)
		}
		if deadlocked == 0 || deadlocked == len(graphs) {
			t.Fatalf("%dx%d: %d of %d graphs deadlocked, want some of each", sz.m, sz.n, deadlocked, len(graphs))
		}
	}
	pick := func(i int, deadOnly bool) entry {
		for {
			e := pool[i][rng.Intn(len(pool[i]))]
			if e.dead || !deadOnly {
				return e
			}
		}
	}

	var sc Scratch
	for step := 0; step < 600; step++ {
		i := rng.Intn(len(sizes))
		e := pick(i, false)
		m, n := e.g.Size()
		mx := e.g.Matrix()
		var fresh Scratch
		var dead, want bool
		var got, wantSt Stats
		op := rng.Intn(5)
		switch op {
		case 0:
			dead, got = DetectGraphInto(&sc, e.g)
			want, wantSt = DetectGraphInto(&fresh, e.g)
		case 1:
			dead, got = DetectInto(&sc, mx)
			want, wantSt = DetectInto(&fresh, mx)
		case 2:
			var k, wantK int
			k, got = ReduceInto(&sc, mx)
			wantK, wantSt = ReduceInto(&fresh, mx)
			if k != wantK || !sc.work.Equal(fresh.work) {
				t.Fatalf("step %d: ReduceInto k=%d or its matrix differs from a fresh scratch's (k=%d)", step, k, wantK)
			}
			dead, want = len(sc.live) > 0, len(fresh.live) > 0
		case 3:
			e.g.MatrixInto(sc.Work(m, n))
			dead, got = DetectWork(&sc)
			e.g.MatrixInto(fresh.Work(m, n))
			want, wantSt = DetectWork(&fresh)
		case 4:
			// A caller fills the working matrix with a deadlocked graph and
			// abandons it; the next graph scan must not see those rows.
			pick(i, true).g.MatrixInto(sc.Work(m, n))
			dead, got = DetectGraphInto(&sc, e.g)
			want, wantSt = DetectGraphInto(&fresh, e.g)
		}
		if dead != want || got != wantSt {
			t.Fatalf("step %d op %d %dx%d: reused scratch says %v %+v, fresh says %v %+v",
				step, op, m, n, dead, got, want, wantSt)
		}
		if dead != e.dead {
			t.Fatalf("step %d op %d %dx%d: verdict %v, DetectGraphCells %v", step, op, m, n, dead, e.dead)
		}
	}
}

// FuzzReduce checks every word-parallel entry point against the per-cell
// engine (checkLean) on two graphs decoded from bytes by decodeGraphs,
// checking the first and then the second in one shared Scratch, so the
// fuzzer also searches for rows a scan leaves behind for the next.  The
// seed corpus spans dense, sparse and block-diagonal geometries on both
// sides of the 64/65 word edge, paired with graphs of the same and of other
// sizes, so plain `go test` replays exactly those.
func FuzzReduce(f *testing.F) {
	rng := det.New(11)
	graphs := []*rag.Graph{
		rag.Random(rng, 1, 1, 0.5, 0.5),
		rag.Random(rng, 5, 5, 0.7, 0.35),
		rag.Random(rng, 64, 64, 0.6, 0.15),
		rag.Random(rng, 65, 64, 0.6, 0.15),
		rag.Random(rng, 64, 65, 0.6, 0.15),
		rag.Random(rng, 100, 129, 0.2, 0.02),
		rag.Random(rng, 130, 63, 0.3, 0.02),
		rag.BlockDiagonal(rng, 8, 16, 12, 0.6, 0.15),
		rag.CycleGraph(3, 3, 3),
		rag.Chain(30, 30),
	}
	for i, g := range graphs {
		f.Add(encodeGraphs(g, graphs[(i+1)%len(graphs)]))
	}
	f.Add(encodeGraphs(rag.CycleGraph(5, 5, 5), rag.Random(rng, 5, 5, 0.3, 0.1)))
	f.Add(encodeGraphs(rag.Random(rng, 64, 64, 0.7, 0.2), rag.Chain(64, 64)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc Scratch
		first, second := decodeGraphs(data)
		checkLean(t, &sc, first)
		checkLean(t, &sc, second)
	})
}

// checkLean is the fuzz target's check: the per-cell engine reduces g once,
// and each word-parallel entry point runs once, untraced, against it.
// DetectGraphInto runs first, so in a scratch shared with an earlier check
// it scans whatever that check left.  The unit tests run the full
// checkAgainstCells, which also walks ReduceTraced step by step and runs
// the per-cell detectors.
func checkLean(t *testing.T, sc *Scratch, g *rag.Graph) {
	t.Helper()
	mx := g.Matrix()
	cells := mx.Clone()
	k := ReduceCells(cells)
	wantDead := !cells.Empty()
	if dead, _ := DetectGraphInto(sc, g); dead != wantDead {
		t.Fatalf("DetectGraphInto=%v, per-cell irreducible matrix empty=%v", dead, !wantDead)
	}
	word := mx.Clone()
	if wordK, _ := Reduce(word); wordK != k || !word.Equal(cells) {
		t.Fatalf("Reduce k=%d or its matrix differs from ReduceCells (k=%d)", wordK, k)
	}
	if intoK, _ := ReduceInto(sc, mx); intoK != k || !sc.work.Equal(cells) {
		t.Fatalf("ReduceInto k=%d or its matrix differs from ReduceCells (k=%d)", intoK, k)
	}
	if dead, _ := Detect(mx); dead != wantDead {
		t.Fatalf("Detect=%v, per-cell irreducible matrix empty=%v", dead, !wantDead)
	}
	if dead, _ := DetectInto(sc, mx); dead != wantDead {
		t.Fatalf("DetectInto=%v, per-cell irreducible matrix empty=%v", dead, !wantDead)
	}
}

// decodeGraphs reads two graphs from bytes: data[0] and data[1] give the
// length L of the first graph's encoding (little-endian), the next L bytes
// decode to the first graph and the rest to the second (see decodeGraph).
func decodeGraphs(data []byte) (first, second *rag.Graph) {
	if len(data) < 2 {
		return decodeGraph(nil), decodeGraph(nil)
	}
	l := min(int(data[0])|int(data[1])<<8, len(data)-2)
	return decodeGraph(data[2 : 2+l]), decodeGraph(data[2+l:])
}

// encodeGraphs is decodeGraphs' inverse.
func encodeGraphs(first, second *rag.Graph) []byte {
	a := encodeGraph(first)
	data := append([]byte{byte(len(a)), byte(len(a) >> 8)}, a...)
	return append(data, encodeGraph(second)...)
}

// decodeGraph reads a graph of 1–130 resources and 1–130 processes from
// bytes: data[0] and data[1] give the size, then each 3-byte op (kind,
// resource, process) adds a grant (odd kind) or a request (even kind).  A
// grant of a held resource, or a request by the resource's holder, is
// skipped, so every decoded graph is a legal single-unit RAG.
func decodeGraph(data []byte) *rag.Graph {
	m, n := 1, 1
	if len(data) >= 2 {
		m, n = 1+int(data[0])%130, 1+int(data[1])%130
		data = data[2:]
	}
	g := rag.NewGraph(m, n)
	for ; len(data) >= 3; data = data[3:] {
		s, p := int(data[1])%m, int(data[2])%n
		switch {
		case data[0]%2 == 1 && g.Holder(s) == -1:
			if err := g.SetGrant(s, p); err != nil {
				panic(err) // unreachable: the resource is free
			}
		case data[0]%2 == 0 && g.Holder(s) != p:
			g.AddRequest(s, p)
		}
	}
	return g
}

// encodeGraph is decodeGraph's inverse for graphs of at most 130×130.
func encodeGraph(g *rag.Graph) []byte {
	m, n := g.Size()
	data := []byte{byte(m - 1), byte(n - 1)}
	for s := 0; s < m; s++ {
		if h := g.Holder(s); h != -1 {
			data = append(data, 1, byte(s), byte(h))
		}
		for _, p := range g.Requesters(s) {
			data = append(data, 0, byte(s), byte(p))
		}
	}
	return data
}

// checkAgainstCells runs every word-parallel entry point on g and fails the
// test unless k, the irreducible matrix and the verdicts equal the per-cell
// engine's and ReduceTraced's trace ends at the reduced matrix after k
// steps.  It returns how many rows went empty in a step that did not clear
// them as terminal rows, i.e. through column clears alone.
func checkAgainstCells(t *testing.T, sc *Scratch, label string, g *rag.Graph) int {
	t.Helper()
	mx := g.Matrix()
	cellCopy := mx.Clone()
	cellK := ReduceCells(cellCopy)
	wordCopy := mx.Clone()
	wordK, _ := Reduce(wordCopy)
	if cellK != wordK {
		t.Fatalf("%s: ReduceCells k=%d, Reduce k=%d", label, cellK, wordK)
	}
	if !cellCopy.Equal(wordCopy) {
		t.Fatalf("%s: irreducible matrices differ", label)
	}
	if k, _ := ReduceInto(sc, mx); k != cellK || !sc.work.Equal(cellCopy) {
		t.Fatalf("%s: ReduceInto k=%d or its matrix differs from ReduceCells (k=%d)", label, k, cellK)
	}
	tracedK, _, trace := ReduceTraced(mx.Clone())
	if tracedK != cellK || len(trace) != cellK {
		t.Fatalf("%s: ReduceTraced k=%d with %d steps, want %d", label, tracedK, len(trace), cellK)
	}
	emptied := 0
	before := mx
	for _, step := range trace {
		terminal := map[int]bool{}
		for _, s := range step.TerminalRows {
			terminal[s] = true
		}
		for s := 0; s < mx.M; s++ {
			if rowHasEdge(before, s) && !rowHasEdge(step.After, s) && !terminal[s] {
				emptied++
			}
		}
		before = step.After
	}
	if len(trace) > 0 && !trace[len(trace)-1].After.Equal(cellCopy) {
		t.Fatalf("%s: ReduceTraced's last After differs from the reduced matrix", label)
	}

	wantDead := DetectCells(mx)
	if dead, _ := Detect(mx); dead != wantDead {
		t.Fatalf("%s: Detect=%v, DetectCells=%v", label, dead, wantDead)
	}
	if dead, _ := DetectInto(sc, mx); dead != wantDead {
		t.Fatalf("%s: DetectInto=%v, DetectCells=%v", label, dead, wantDead)
	}
	if dead, _ := DetectGraphInto(sc, g); dead != wantDead {
		t.Fatalf("%s: DetectGraphInto=%v, DetectCells=%v", label, dead, wantDead)
	}
	if dead := DetectGraphCells(g); dead != wantDead {
		t.Fatalf("%s: DetectGraphCells=%v, DetectCells=%v", label, dead, wantDead)
	}
	return emptied
}

func rowHasEdge(mx *rag.Matrix, s int) bool {
	anyReq, anyGrant := mx.RowSummary(s)
	return anyReq || anyGrant
}

// Stats is the abstract cost model the simulator converts to bus cycles; the
// scratch path must charge exactly what the legacy clone path charges, which
// in turn is pinned to the per-cell formula (N reads per row scan, M·N per
// column scan, N writes per cleared row, M per cleared column, plus the
// construct/test M·N passes of Algorithm 2).
func TestStatsMatchAcrossPaths(t *testing.T) {
	rng := det.New(21)
	var sc Scratch
	for trial := 0; trial < 50; trial++ {
		g := rag.Random(rng, 7, 13, 0.7, 0.25)
		mx := g.Matrix()
		_, legacy := Detect(mx)
		_, scratch := DetectInto(&sc, mx)
		if legacy != scratch {
			t.Fatalf("trial %d: Detect stats %+v != DetectInto stats %+v", trial, legacy, scratch)
		}
		_, graphScratch := DetectGraphInto(&sc, g)
		if legacy != graphScratch {
			t.Fatalf("trial %d: Detect stats %+v != DetectGraphInto stats %+v", trial, legacy, graphScratch)
		}
	}

	// Worked example: a 2x3 chain reduces in its bounded step count and the
	// accounting follows the closed-form cell model.
	g := rag.Chain(2, 3)
	mx := g.Matrix()
	_, st := Detect(mx)
	if st.Iterations < 1 {
		t.Fatalf("chain(2,3): %d iterations, want at least 1", st.Iterations)
	}
	// Per step: row scans read M·N cells, the column scan reads M·N more;
	// plus Algorithm 2's construct (M·N writes) and final test (M·N reads).
	wantReads := (st.Iterations+1)*2*2*3 + 2*3
	if st.CellReads != wantReads {
		t.Fatalf("chain(2,3): CellReads=%d, want %d", st.CellReads, wantReads)
	}

	// A mostly-empty, multi-word 200x130 matrix: the kernel sweeps only the
	// live rows, but Stats must still charge the full-matrix closed form.
	const m, n = 200, 130
	multiStep := false
	for trial := 0; trial < 20; trial++ {
		g := rag.Random(rng, m, n, 0.2, 0.002)
		mx := g.Matrix()
		if live := liveRows(mx); live > m/2 {
			t.Fatalf("200x130 trial %d: %d live rows, want a mostly-empty matrix", trial, live)
		}
		k, _, trace := ReduceTraced(mx.Clone())
		multiStep = multiStep || k >= 2
		wantWrites := m * n
		for _, step := range trace {
			wantWrites += len(step.TerminalRows)*n + len(step.TerminalCols)*m
		}
		want := Stats{
			Iterations: k,
			CellReads:  (k+1)*2*m*n + m*n,
			CellWrites: wantWrites,
			Ops:        (k + 1) * (2*m + 2*n),
		}
		if _, got := Detect(mx); got != want {
			t.Fatalf("200x130 trial %d: Detect stats %+v, want %+v", trial, got, want)
		}
		if _, got := DetectGraphInto(&sc, g); got != want {
			t.Fatalf("200x130 trial %d: DetectGraphInto stats %+v, want %+v", trial, got, want)
		}
	}
	if !multiStep {
		t.Fatal("no 200x130 trial took two or more reduction steps")
	}
}

func liveRows(mx *rag.Matrix) int {
	live := 0
	for s := 0; s < mx.M; s++ {
		if rowHasEdge(mx, s) {
			live++
		}
	}
	return live
}

// TestDetectDoesNotAllocate is the steady-state gate mirroring
// TestDispatchDoesNotAllocate: once the scratch is warm, a detection scan —
// graph→matrix mapping, reduction, emptiness test — performs zero
// allocations, as do the graph-side cycle queries.
func TestDetectDoesNotAllocate(t *testing.T) {
	g := rag.Random(det.New(3), 48, 96, 0.7, 0.2)
	var sc Scratch
	DetectGraphInto(&sc, g) // warm the scratch
	if allocs := testing.AllocsPerRun(10, func() { DetectGraphInto(&sc, g) }); allocs > 0 {
		t.Errorf("DetectGraphInto allocated %.0f times per scan, want 0", allocs)
	}
	mx := g.Matrix()
	DetectInto(&sc, mx)
	if allocs := testing.AllocsPerRun(10, func() { DetectInto(&sc, mx) }); allocs > 0 {
		t.Errorf("DetectInto allocated %.0f times per scan, want 0", allocs)
	}
	g.HasCycle() // warm the graph scratch
	if allocs := testing.AllocsPerRun(10, func() { g.HasCycle() }); allocs > 0 {
		t.Errorf("Graph.HasCycle allocated %.0f times per query, want 0", allocs)
	}
	acyclic := rag.Chain(32, 32)
	acyclic.Cycle()
	if allocs := testing.AllocsPerRun(10, func() { acyclic.Cycle() }); allocs > 0 {
		t.Errorf("Graph.Cycle (acyclic) allocated %.0f times per query, want 0", allocs)
	}
}
