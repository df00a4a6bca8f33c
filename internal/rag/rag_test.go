package rag

import (
	"strings"
	"testing"
	"testing/quick"

	"deltartos/internal/det"
)

func TestCellString(t *testing.T) {
	if Grant.String() != "g" || Request.String() != "r" || None.String() != "." {
		t.Error("Cell.String mismatch")
	}
	if Cell(3).String() != "?" {
		t.Error("illegal cell should render ?")
	}
}

func TestCellValid(t *testing.T) {
	if !None.Valid() || !Grant.Valid() || !Request.Valid() {
		t.Error("legal cells reported invalid")
	}
	if Cell(0b11).Valid() {
		t.Error("11 encoding must be invalid")
	}
}

func TestMatrixSetGet(t *testing.T) {
	mx := NewMatrix(3, 4)
	mx.Set(0, 1, Grant)
	mx.Set(2, 3, Request)
	if mx.Get(0, 1) != Grant || mx.Get(2, 3) != Request || mx.Get(1, 1) != None {
		t.Error("Set/Get mismatch")
	}
	// Overwrite clears both planes.
	mx.Set(0, 1, Request)
	if mx.Get(0, 1) != Request {
		t.Error("overwrite failed")
	}
	mx.Set(0, 1, None)
	if mx.Get(0, 1) != None {
		t.Error("clear failed")
	}
}

func TestMatrixWideColumns(t *testing.T) {
	// More than 64 processes exercises multi-word rows.
	mx := NewMatrix(2, 130)
	mx.Set(0, 0, Grant)
	mx.Set(0, 64, Request)
	mx.Set(1, 129, Grant)
	if mx.Words() != 3 {
		t.Fatalf("Words = %d, want 3", mx.Words())
	}
	if mx.Get(0, 64) != Request || mx.Get(1, 129) != Grant {
		t.Error("multi-word Set/Get mismatch")
	}
	r, g := mx.Edges()
	if r != 1 || g != 2 {
		t.Errorf("Edges = (%d,%d), want (1,2)", r, g)
	}
}

func TestMatrixPanics(t *testing.T) {
	mustPanic(t, func() { NewMatrix(0, 1) })
	mustPanic(t, func() { NewMatrix(1, -1) })
	mx := NewMatrix(2, 2)
	mustPanic(t, func() { mx.Get(2, 0) })
	mustPanic(t, func() { mx.Set(0, 2, Grant) })
	mustPanic(t, func() { mx.Set(0, 0, Cell(3)) })
	// A state matrix has the graph's size: no embedding into a larger one.
	mustPanic(t, func() { NewGraph(2, 2).MatrixInto(NewMatrix(3, 2)) })
	mustPanic(t, func() { NewGraph(2, 2).MatrixInto(NewMatrix(2, 65)) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestMatrixCloneEqual(t *testing.T) {
	mx := NewMatrix(3, 3)
	mx.Set(1, 2, Grant)
	c := mx.Clone()
	if !mx.Equal(c) {
		t.Error("clone not equal")
	}
	c.Set(0, 0, Request)
	if mx.Equal(c) {
		t.Error("clone aliases original")
	}
	if mx.Equal(NewMatrix(3, 4)) || mx.Equal(NewMatrix(4, 3)) {
		t.Error("dimension mismatch should be unequal")
	}
}

func TestMatrixEmptyEdges(t *testing.T) {
	mx := NewMatrix(2, 2)
	if !mx.Empty() {
		t.Error("new matrix should be empty")
	}
	mx.Set(0, 0, Grant)
	if mx.Empty() {
		t.Error("non-empty matrix reported empty")
	}
	r, g := mx.Edges()
	if r != 0 || g != 1 {
		t.Errorf("Edges = (%d,%d)", r, g)
	}
}

func TestClearRowColumn(t *testing.T) {
	mx := NewMatrix(3, 3)
	mx.Set(0, 0, Grant)
	mx.Set(0, 2, Request)
	mx.Set(1, 2, Request)
	mx.ClearRow(0)
	if mx.Get(0, 0) != None || mx.Get(0, 2) != None {
		t.Error("ClearRow left edges")
	}
	if mx.Get(1, 2) != Request {
		t.Error("ClearRow touched other rows")
	}
}

// Row hands out the row's packed words on both planes, aliasing the
// matrix: the reduction kernel reads its summaries and clears its columns
// through them.
func TestMatrixRow(t *testing.T) {
	mx := NewMatrix(2, 130)
	mx.Set(0, 0, Grant)
	mx.Set(0, 129, Request)
	mx.Set(1, 64, Request)
	req, grant := mx.Row(0)
	if len(req) != mx.Words() || len(grant) != mx.Words() {
		t.Fatalf("Row(0) has %d and %d words, want %d", len(req), len(grant), mx.Words())
	}
	if req[2] != 1<<1 || req[0]|req[1] != 0 || grant[0] != 1 || grant[1]|grant[2] != 0 {
		t.Errorf("Row(0) = req %x grant %x, want a request at 129 and a grant at 0", req, grant)
	}
	req[2] = 0
	if mx.Get(0, 129) != None || mx.Get(0, 0) != Grant || mx.Get(1, 64) != Request {
		t.Error("a write through Row(0) did not reach exactly its cell")
	}
}

func TestValidateSingleGrant(t *testing.T) {
	mx := NewMatrix(2, 3)
	mx.Set(0, 0, Grant)
	if err := mx.Validate(); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
	mx.Set(0, 1, Grant)
	if err := mx.Validate(); err == nil {
		t.Error("double grant not detected")
	}

	// p1 holds q1 and requests it again: MatrixInto sets both bits.
	g := NewGraph(2, 2)
	if err := g.SetGrant(0, 0); err != nil {
		t.Fatal(err)
	}
	g.AddRequest(0, 0)
	err := g.Matrix().Validate()
	if err == nil || !strings.Contains(err.Error(), "p1") || !strings.Contains(err.Error(), "q1") {
		t.Errorf("request from the holder: Validate = %v, want an error naming p1 and q1", err)
	}
}

func TestMatrixString(t *testing.T) {
	mx := NewMatrix(2, 2)
	mx.Set(0, 1, Grant)
	mx.Set(1, 0, Request)
	s := mx.String()
	if !strings.Contains(s, "q1") || !strings.Contains(s, "p2") ||
		!strings.Contains(s, "g") || !strings.Contains(s, "r") {
		t.Errorf("String rendering:\n%s", s)
	}
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph(3, 2)
	m, n := g.Size()
	if m != 3 || n != 2 {
		t.Fatalf("Size = (%d,%d)", m, n)
	}
	if g.Holder(0) != -1 {
		t.Error("fresh resource should be free")
	}
	g.AddRequest(0, 1)
	if !g.Requesting(0, 1) {
		t.Error("AddRequest not visible")
	}
	if err := g.SetGrant(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.Holder(0) != 1 {
		t.Error("grant not recorded")
	}
	if g.Requesting(0, 1) {
		t.Error("grant should consume the request edge")
	}
	if err := g.SetGrant(0, 0); err == nil {
		t.Error("double grant to different process should fail")
	}
	if err := g.SetGrant(0, 1); err != nil {
		t.Error("re-granting to same holder should be a no-op success")
	}
	if err := g.Release(0, 0); err == nil {
		t.Error("release by non-holder must fail (Assumption 2)")
	}
	if err := g.Release(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.Holder(0) != -1 {
		t.Error("release did not free resource")
	}
}

func TestGraphQueries(t *testing.T) {
	g := NewGraph(3, 3)
	mustNoErr(t, g.SetGrant(0, 0))
	mustNoErr(t, g.SetGrant(1, 0))
	g.AddRequest(2, 0)
	g.AddRequest(2, 1)
	if got := g.HeldBy(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("HeldBy = %v", got)
	}
	if got := g.RequestedBy(0); len(got) != 1 || got[0] != 2 {
		t.Errorf("RequestedBy = %v", got)
	}
	if got := g.Requesters(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Requesters = %v", got)
	}
}

func mustNoErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestGraphMatrixRoundTrip(t *testing.T) {
	rng := det.New(7)
	for i := 0; i < 50; i++ {
		g := Random(rng, 1+rng.Intn(8), 1+rng.Intn(8), 0.6, 0.3)
		mx := g.Matrix()
		g2, err := FromMatrix(mx)
		if err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
		if !g2.Matrix().Equal(mx) {
			t.Fatalf("round trip %d: matrices differ", i)
		}
	}
}

func TestFromMatrixRejectsDoubleGrant(t *testing.T) {
	mx := NewMatrix(1, 2)
	mx.Set(0, 0, Grant)
	mx.Set(0, 1, Grant)
	if _, err := FromMatrix(mx); err == nil {
		t.Error("FromMatrix accepted invalid matrix")
	}
}

func TestHasCycleSimple(t *testing.T) {
	// p1 holds q1, requests q2; p2 holds q2, requests q1: classic 2-cycle.
	g := NewGraph(2, 2)
	mustNoErr(t, g.SetGrant(0, 0))
	mustNoErr(t, g.SetGrant(1, 1))
	g.AddRequest(1, 0)
	g.AddRequest(0, 1)
	if !g.HasCycle() {
		t.Error("2-cycle not detected")
	}
}

func TestHasCycleNone(t *testing.T) {
	g := NewGraph(2, 2)
	mustNoErr(t, g.SetGrant(0, 0))
	g.AddRequest(1, 0) // p1 waits for free q2: no cycle
	if g.HasCycle() {
		t.Error("false positive cycle")
	}
}

func TestHasCycleChain(t *testing.T) {
	for k := 2; k <= 10; k++ {
		if Chain(k, k).HasCycle() {
			t.Errorf("Chain(%d) must be acyclic", k)
		}
		if !CycleGraph(k, k, k).HasCycle() {
			t.Errorf("CycleGraph(%d) must have a cycle", k)
		}
	}
}

func TestCycleGraphPanics(t *testing.T) {
	mustPanic(t, func() { CycleGraph(3, 3, 1) })
	mustPanic(t, func() { CycleGraph(3, 3, 4) })
}

// Cycle's witness must agree with the HasCycle oracle on random graphs, and
// the witness must be a real cycle: each process on it requests a resource
// held by the next.
func TestCycleWitnessMatchesOracle(t *testing.T) {
	rng := det.New(7)
	for i := 0; i < 500; i++ {
		g := Random(rng, 1+rng.Intn(8), 1+rng.Intn(8), 0.7, 0.25)
		cyc := g.Cycle()
		if (cyc != nil) != g.HasCycle() {
			t.Fatalf("case %d: Cycle=%v but HasCycle=%v\n%s", i, cyc, g.HasCycle(), g.Matrix())
		}
		for j, p := range cyc {
			next := cyc[(j+1)%len(cyc)]
			found := false
			for _, s := range g.RequestedBy(p) {
				if g.Holder(s) == next {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("case %d: witness %v broken at p%d -> p%d\n%s", i, cyc, p+1, next+1, g.Matrix())
			}
		}
	}
}

func TestCycleWitnessShapes(t *testing.T) {
	if cyc := Chain(6, 6).Cycle(); cyc != nil {
		t.Errorf("Chain witness = %v, want nil", cyc)
	}
	for k := 2; k <= 6; k++ {
		cyc := CycleGraph(8, 8, k).Cycle()
		if len(cyc) != k {
			t.Errorf("CycleGraph k=%d: witness %v, want length %d", k, cyc, k)
		}
	}
	// Self-request of a held resource is the degenerate 1-cycle.
	g := NewGraph(1, 1)
	mustNoErr(t, g.SetGrant(0, 0))
	g.AddRequest(0, 0)
	if cyc := g.Cycle(); len(cyc) != 1 || cyc[0] != 0 || !g.HasCycle() {
		t.Errorf("self-request witness = %v (oracle %v), want [0]", cyc, g.HasCycle())
	}
}

func TestDeadlockedProcessesMatchesOracle(t *testing.T) {
	rng := det.New(42)
	for i := 0; i < 300; i++ {
		g := Random(rng, 1+rng.Intn(6), 1+rng.Intn(6), 0.7, 0.25)
		dead := g.DeadlockedProcesses()
		if (len(dead) > 0) != g.HasCycle() {
			t.Fatalf("case %d: DeadlockedProcesses=%v but HasCycle=%v\n%s",
				i, dead, g.HasCycle(), g.Matrix())
		}
	}
}

func TestDeadlockedProcessesIdentifiesCycleMembers(t *testing.T) {
	g := CycleGraph(4, 4, 3)
	dead := g.DeadlockedProcesses()
	if len(dead) != 3 {
		t.Fatalf("dead = %v, want 3 processes", dead)
	}
	for i, want := range []int{0, 1, 2} {
		if dead[i] != want {
			t.Errorf("dead[%d] = %d, want %d", i, dead[i], want)
		}
	}
}

func TestDeadlockedIncludesBlockedOnCycle(t *testing.T) {
	// p4 requests q1 which is inside a 3-cycle; p4 is doomed as well.
	g := CycleGraph(4, 4, 3)
	g.AddRequest(0, 3)
	dead := g.DeadlockedProcesses()
	found := false
	for _, p := range dead {
		if p == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("process blocked on deadlocked resource not reported: %v", dead)
	}
}

func TestGraphClone(t *testing.T) {
	g := CycleGraph(3, 3, 2)
	c := g.Clone()
	mustNoErr(t, c.Release(0, 0))
	if g.Holder(0) != 0 {
		t.Error("clone aliases original")
	}
}

func TestRandomRespectsInvariant(t *testing.T) {
	rng := det.New(1)
	for i := 0; i < 100; i++ {
		g := Random(rng, 5, 5, 0.9, 0.5)
		if err := g.Matrix().Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// BlockDiagonal places tile i, drawn as the same-seeded Random draws it, at
// rows i·m and columns i·n, and leaves every cell outside the tiles empty.
func TestBlockDiagonalKeepsEdgesInTiles(t *testing.T) {
	const tiles, m, n = 5, 16, 12
	rng := det.New(4)
	want := NewMatrix(tiles*m, tiles*n)
	for i := 0; i < tiles; i++ {
		tile := Random(rng, m, n, 0.6, 0.15).Matrix()
		for s := 0; s < m; s++ {
			for t2 := 0; t2 < n; t2++ {
				want.Set(i*m+s, i*n+t2, tile.Get(s, t2))
			}
		}
	}
	if got := BlockDiagonal(det.New(4), tiles, m, n, 0.6, 0.15).Matrix(); !got.Equal(want) {
		t.Fatalf("BlockDiagonal:\n%s\nwant\n%s", got, want)
	}
}

// Property: matrix round trip Set/Get for random cell writes.
func TestMatrixRoundTripProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		mx := NewMatrix(7, 90)
		ref := map[[2]int]Cell{}
		for _, op := range ops {
			s := int(op) % 7
			tt := int(op>>3) % 90
			c := Cell(op>>11) % 3
			if c == 0b11 {
				c = None
			}
			mx.Set(s, tt, c)
			ref[[2]int{s, tt}] = c
		}
		for k, v := range ref {
			if mx.Get(k[0], k[1]) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: paper Figure 11 example — p2 holds nothing special; encode the
// exact worked matrix and verify its edges.
func TestPaperFigure11Matrix(t *testing.T) {
	// Figure 11's system state (6 processes, 3 resources, as in the
	// Example 3/4 family): q2 and q3 terminal rows; p2, p4, p6 terminal cols.
	// We reconstruct the Figure 12(a) matrix used by Example 4.
	g := NewGraph(3, 6)
	mustNoErr(t, g.SetGrant(0, 0)) // q1 -> p1
	g.AddRequest(0, 2)             // p3 requests q1
	mustNoErr(t, g.SetGrant(1, 2)) // q2 -> p3
	g.AddRequest(1, 1)             // p2 requests q2 (terminal-ish structure)
	g.AddRequest(2, 3)             // p4 requests q3
	g.AddRequest(2, 5)             // p6 requests q3
	mx := g.Matrix()
	r, gr := mx.Edges()
	if r != 4 || gr != 2 {
		t.Fatalf("edges = (%d,%d), want (4,2)", r, gr)
	}
	if mx.Get(1, 2) != Grant || mx.Get(2, 5) != Request {
		t.Error("figure 11 encoding mismatch")
	}
}
