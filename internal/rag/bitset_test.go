package rag

import (
	"fmt"
	"reflect"
	"testing"

	"deltartos/internal/det"
)

// Word-boundary geometries the packed planes must survive: sizes straddling
// the 64-bit word edges in both orientations, degenerate single-row/column
// systems, and strongly rectangular shapes in both directions.
var bitsetGeometries = []struct{ m, n int }{
	{1, 1}, {1, 64}, {64, 1}, {1, 65}, {65, 1},
	{63, 63}, {64, 64}, {65, 65}, {64, 65}, {65, 64},
	{127, 129}, {129, 127}, {4, 300}, {300, 4}, {2, 1}, {1, 2},
}

// Every word-parallel graph query must match its per-cell reference oracle
// on random graphs at every geometry — identical verdicts and byte-identical
// cycle witnesses.
func TestBitsetQueriesMatchRefAcrossGeometries(t *testing.T) {
	rng := det.New(11)
	for _, geo := range bitsetGeometries {
		for trial := 0; trial < 15; trial++ {
			g := Random(rng, geo.m, geo.n, 0.55, 0.2)
			if got, want := g.HasCycle(), g.HasCycleRef(); got != want {
				t.Fatalf("%dx%d trial %d: HasCycle=%v ref=%v", geo.m, geo.n, trial, got, want)
			}
			if got, want := g.Cycle(), g.CycleRef(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%dx%d trial %d: Cycle=%v ref=%v", geo.m, geo.n, trial, got, want)
			}
		}
	}
}

// The packed request planes must stay mutually transposed under arbitrary
// mutation sequences, and MatrixInto must agree with the per-cell Matrix
// construction at every geometry.  The occupancy plane must name exactly the
// rows with a request or a holder after every mutation, CopyFrom and Clone,
// and OccupiedRowsInto must rebuild the state matrix from those rows alone.
func TestBitsetPlanesConsistentUnderMutation(t *testing.T) {
	rng := det.New(23)
	for _, geo := range bitsetGeometries {
		g := NewGraph(geo.m, geo.n)
		mx := NewMatrix(geo.m, geo.n)
		copied := NewGraph(geo.m, geo.n)
		for step := 0; step < 400; step++ {
			s := rng.Intn(geo.m)
			p := rng.Intn(geo.n)
			switch rng.Intn(4) {
			case 0:
				g.AddRequest(s, p)
			case 1:
				g.RemoveRequest(s, p)
			case 2:
				if g.Holder(s) == -1 {
					if err := g.SetGrant(s, p); err != nil {
						t.Fatal(err)
					}
				}
			case 3:
				if g.Holder(s) == p {
					if err := g.Release(s, p); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkOccupancy(t, fmt.Sprintf("%dx%d step %d", geo.m, geo.n, step), g)
			if step%97 != 0 {
				continue
			}
			copied.CopyFrom(g)
			checkOccupancy(t, fmt.Sprintf("%dx%d step %d CopyFrom", geo.m, geo.n, step), copied)
			checkOccupancy(t, fmt.Sprintf("%dx%d step %d Clone", geo.m, geo.n, step), g.Clone())
			occ := NewMatrix(geo.m, geo.n)
			rows := g.OccupiedRowsInto(occ, nil)
			if !occ.Equal(g.Matrix()) {
				t.Fatalf("%dx%d step %d: OccupiedRowsInto differs from Matrix", geo.m, geo.n, step)
			}
			for i, s2 := range rows {
				if i > 0 && rows[i-1] >= s2 {
					t.Fatalf("%dx%d step %d: OccupiedRowsInto rows %v not ascending", geo.m, geo.n, step, rows)
				}
			}
			// Cross-check both orientations against the per-cell API.
			for q := 0; q < geo.m; q++ {
				for u := 0; u < geo.n; u++ {
					fromRows := g.Requesting(q, u)
					fromCols := false
					for _, s2 := range g.RequestedBy(u) {
						if s2 == q {
							fromCols = true
						}
					}
					if fromRows != fromCols {
						t.Fatalf("%dx%d step %d: planes disagree at (%d,%d): rows=%v cols=%v",
							geo.m, geo.n, step, q, u, fromRows, fromCols)
					}
				}
			}
			g.MatrixInto(mx)
			if !mx.Equal(g.Matrix()) {
				t.Fatalf("%dx%d step %d: MatrixInto differs from Matrix", geo.m, geo.n, step)
			}
		}
	}
}

// checkOccupancy fails the test unless reqAny and heldAny flag exactly the
// resources with a requester and with a holder, and no bit past the last
// resource is set.
func checkOccupancy(t *testing.T, label string, g *Graph) {
	t.Helper()
	reqAny, heldAny := g.reqAny(), g.heldAny()
	for w := range reqAny {
		for b := 0; b < 64; b++ {
			s := w*64 + b
			req := reqAny[w]>>b&1 == 1
			held := heldAny[w]>>b&1 == 1
			wantReq, wantHeld := false, false
			if s < g.m {
				wantReq, wantHeld = len(g.Requesters(s)) > 0, g.Holder(s) != -1
			}
			if req != wantReq || held != wantHeld {
				t.Fatalf("%s: q%d reqAny=%v heldAny=%v, want %v %v", label, s, req, held, wantReq, wantHeld)
			}
		}
	}
}

// HeldAnyWords must be exactly the OR of the per-process held planes, and a
// resource is flagged iff some process holds it.
func TestHeldPlanesTrackGrants(t *testing.T) {
	rng := det.New(31)
	for _, geo := range bitsetGeometries {
		g := Random(rng, geo.m, geo.n, 0.4, 0.5)
		any := g.HeldAnyWords()
		for s := 0; s < geo.m; s++ {
			word, bit := s/64, uint64(1)<<(s%64)
			flagged := any[word]&bit != 0
			if flagged != (g.Holder(s) != -1) {
				t.Fatalf("%dx%d: heldAny[%d]=%v but Holder=%d", geo.m, geo.n, s, flagged, g.Holder(s))
			}
			for p := 0; p < geo.n; p++ {
				held := g.HeldWords(p)[word]&bit != 0
				if held != (g.Holder(s) == p) {
					t.Fatalf("%dx%d: held[%d] bit %d = %v but Holder=%d", geo.m, geo.n, p, s, held, g.Holder(s))
				}
			}
		}
	}
}

// Single-process and single-resource systems: the tightest cycles the
// packed engine must see (p requesting its own resource).
func TestBitsetDegenerateCycles(t *testing.T) {
	g := NewGraph(1, 1)
	if err := g.SetGrant(0, 0); err != nil {
		t.Fatal(err)
	}
	g.AddRequest(0, 0)
	if !g.HasCycle() {
		t.Fatal("1x1 self-wait: HasCycle = false")
	}
	if got := g.Cycle(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("1x1 self-wait: Cycle = %v, want [0]", got)
	}
	if got := g.DeadlockedProcesses(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("1x1 self-wait: DeadlockedProcesses = %v, want [0]", got)
	}

	// Cycle spanning a word boundary: processes 63 and 64.
	g2 := NewGraph(2, 65)
	if err := g2.SetGrant(0, 63); err != nil {
		t.Fatal(err)
	}
	if err := g2.SetGrant(1, 64); err != nil {
		t.Fatal(err)
	}
	g2.AddRequest(0, 64)
	g2.AddRequest(1, 63)
	if !g2.HasCycle() {
		t.Fatal("word-boundary 2-cycle: HasCycle = false")
	}
	if got, want := g2.Cycle(), g2.CycleRef(); !reflect.DeepEqual(got, want) {
		t.Fatalf("word-boundary 2-cycle: Cycle=%v ref=%v", got, want)
	}
}

// mutate applies steps random edge mutations to g, each a request, a
// withdrawal, a grant of a free resource or a release by the holder.
func mutate(t *testing.T, rng *det.RNG, g *Graph, steps int) {
	t.Helper()
	m, n := g.Size()
	for step := 0; step < steps; step++ {
		s, p := rng.Intn(m), rng.Intn(n)
		switch rng.Intn(4) {
		case 0:
			g.AddRequest(s, p)
		case 1:
			g.RemoveRequest(s, p)
		case 2:
			if g.Holder(s) == -1 {
				mustNoErr(t, g.SetGrant(s, p))
			}
		case 3:
			if g.Holder(s) == p {
				mustNoErr(t, g.Release(s, p))
			}
		}
	}
}

// queries renders every public view of g: the state matrix, the occupied
// rows, the held-any plane, each process's held and requested resources,
// and the cycle verdict with its witness.
func queries(g *Graph) string {
	m, n := g.Size()
	rows := g.OccupiedRowsInto(NewMatrix(m, n), nil)
	out := fmt.Sprintf("%s rows %v heldAny %x cycle %v %v\n", g.Matrix(), rows, g.HeldAnyWords(), g.HasCycle(), g.Cycle())
	for p := 0; p < n; p++ {
		out += fmt.Sprintf("p%d holds %v requests %v\n", p, g.HeldBy(p), g.RequestedBy(p))
	}
	return out
}

// A reset graph is a fresh one: right after Reset, and after the same
// mutations applied to both, every query agrees with NewGraph's.  A Reset
// that leaves one plane stale fails here (the transposed request plane
// shows in RequestedBy, the summary planes in the occupied rows).
func TestGraphResetMatchesNew(t *testing.T) {
	rng := det.New(31)
	for _, geo := range bitsetGeometries {
		g := NewGraph(geo.m, geo.n)
		for trial := 0; trial < 4; trial++ {
			mutate(t, rng, g, 200)
			g.Reset()
			fresh := NewGraph(geo.m, geo.n)
			if got, want := queries(g), queries(fresh); got != want {
				t.Fatalf("%dx%d trial %d: after Reset\n%s\nfresh graph\n%s", geo.m, geo.n, trial, got, want)
			}
			seed := rng.Uint64()
			mutate(t, det.New(seed), g, 200)
			mutate(t, det.New(seed), fresh, 200)
			if got, want := queries(g), queries(fresh); got != want {
				t.Fatalf("%dx%d trial %d: same mutations after Reset\n%s\nfrom a fresh graph\n%s", geo.m, geo.n, trial, got, want)
			}
		}
	}
}
