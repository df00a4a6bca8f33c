// Package rag implements the Resource Allocation Graph (RAG) and its state
// matrix representation from Lee & Mooney, "Hardware/Software Partitioning of
// Operating Systems" (DATE 2003), Section 4.2.
//
// A system state γ_ij with m resources and n processes is represented either
// as a bipartite directed graph (Graph) or as an m×n matrix of 2-bit cells
// (Matrix, Definition 6).  Cell (s,t) holds:
//
//	g (binary 01) — resource q_s is granted to process p_t
//	r (binary 10) — process p_t requests resource q_s
//	0 (binary 00) — no edge
//
// The paper's system model (Section 3.2.2) uses single-unit resources: a
// resource is granted to at most one process at a time.  Graph enforces that
// invariant; Matrix does not (the hardware operates on raw bits), but
// Matrix.Validate reports violations.
//
// Both representations are bit-packed: the matrix stores its two planes as
// []uint64 word groups, and the graph keeps the request relation in two
// packed orientations (per-resource rows over process columns, and the
// transposed per-process rows over resource columns) plus a held-resource
// plane, so every hot query — cycle detection, terminal reduction, the
// Banker's safety scan — is a word-wide sweep, the software mirror of the
// DDU's parallel bit operations.  The per-cell reference engine in ref.go
// preserves the original cell-at-a-time implementations as differential
// oracles.
package rag

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"deltartos/internal/det"
)

// Cell is the ternary content of one matrix entry.
type Cell uint8

// Cell values use the paper's binary encoding (α^r, α^g).
const (
	None    Cell = 0b00 // no activity
	Grant   Cell = 0b01 // grant edge q_s -> p_t
	Request Cell = 0b10 // request edge p_t -> q_s
)

// String renders the cell the way the paper draws matrices.
func (c Cell) String() string {
	switch c {
	case Grant:
		return "g"
	case Request:
		return "r"
	case None:
		return "."
	}
	return "?"
}

// Valid reports whether c is one of the three legal encodings (11 is illegal).
func (c Cell) Valid() bool { return c == None || c == Grant || c == Request }

// Matrix is the state matrix M_ij: M resources (rows) × N processes
// (columns).  Request and grant bits are stored in two packed bit-planes, one
// uint64 word group per row, so that the DDU's bit-wise row/column reductions
// (Equations 3–7) are literal word operations.
type Matrix struct {
	M, N      int // resources, processes
	words     int // uint64 words per row
	req       [][]uint64
	grant     [][]uint64
	reqFlat   []uint64 // every req row back to back (req aliases it)
	grantFlat []uint64 // likewise for grant
}

// NewMatrix returns an empty m×n state matrix.
func NewMatrix(m, n int) *Matrix {
	if m <= 0 || n <= 0 {
		panic(fmt.Sprintf("rag: invalid matrix size %dx%d", m, n))
	}
	w := (n + 63) / 64
	mx := &Matrix{M: m, N: n, words: w}
	mx.reqFlat, mx.req = newPlane(m, w)
	mx.grantFlat, mx.grant = newPlane(m, w)
	return mx
}

// newPlane allocates rows word-rows backed by one flat slice, so a plane is
// a single contiguous allocation: row clears/copies stay cache-friendly, and
// a whole-plane copy or clear is one call on the returned flat slice.
func newPlane(rows, words int) (flat []uint64, p [][]uint64) {
	flat = make([]uint64, rows*words)
	return flat, planeRows(flat, rows, words)
}

// planeRows slices the first rows word-rows of flat.
func planeRows(flat []uint64, rows, words int) [][]uint64 {
	p := make([][]uint64, rows)
	for i := range p {
		p[i] = flat[i*words : (i+1)*words : (i+1)*words]
	}
	return p
}

func (mx *Matrix) check(s, t int) {
	if s < 0 || s >= mx.M || t < 0 || t >= mx.N {
		panic(fmt.Sprintf("rag: cell (%d,%d) out of %dx%d matrix", s, t, mx.M, mx.N))
	}
}

// Set writes cell (s,t); s is the resource row, t the process column.
func (mx *Matrix) Set(s, t int, c Cell) {
	mx.check(s, t)
	if !c.Valid() {
		panic(fmt.Sprintf("rag: invalid cell value %d", c))
	}
	w, b := t/64, uint(t%64)
	mx.req[s][w] &^= 1 << b
	mx.grant[s][w] &^= 1 << b
	//deltalint:partial None leaves both bitplanes clear (cleared just above)
	switch c {
	case Request:
		mx.req[s][w] |= 1 << b
	case Grant:
		mx.grant[s][w] |= 1 << b
	}
}

// Get reads cell (s,t).
func (mx *Matrix) Get(s, t int) Cell {
	mx.check(s, t)
	w, b := t/64, uint(t%64)
	switch {
	case mx.req[s][w]>>b&1 == 1:
		return Request
	case mx.grant[s][w]>>b&1 == 1:
		return Grant
	}
	return None
}

// Words returns the number of 64-bit words per row.
func (mx *Matrix) Words() int { return mx.words }

// lastMask masks off the unused high bits of the final word.
func (mx *Matrix) lastMask() uint64 {
	r := uint(mx.N % 64)
	if r == 0 {
		return ^uint64(0)
	}
	return (1 << r) - 1
}

// Clone returns a deep copy.
func (mx *Matrix) Clone() *Matrix {
	c := NewMatrix(mx.M, mx.N)
	c.CopyFrom(mx)
	return c
}

// CopyFrom overwrites mx with src's cells.  Dimensions must match; this is
// the allocation-free alternative to Clone for scratch reuse.
func (mx *Matrix) CopyFrom(src *Matrix) {
	if mx.M != src.M || mx.N != src.N {
		panic(fmt.Sprintf("rag: CopyFrom %dx%d into %dx%d matrix", src.M, src.N, mx.M, mx.N))
	}
	copy(mx.reqFlat, src.reqFlat)
	copy(mx.grantFlat, src.grantFlat)
}

// Equal reports whether two matrices have identical dimensions and cells.
func (mx *Matrix) Equal(o *Matrix) bool {
	return mx.M == o.M && mx.N == o.N &&
		slices.Equal(mx.reqFlat, o.reqFlat) && slices.Equal(mx.grantFlat, o.grantFlat)
}

// Empty reports whether the matrix has no edges (complete reduction).
func (mx *Matrix) Empty() bool {
	for w := range mx.reqFlat {
		if mx.reqFlat[w]|mx.grantFlat[w] != 0 {
			return false
		}
	}
	return true
}

// Edges returns the number of request and grant edges.
func (mx *Matrix) Edges() (requests, grants int) {
	for w := range mx.reqFlat {
		requests += bits.OnesCount64(mx.reqFlat[w])
		grants += bits.OnesCount64(mx.grantFlat[w])
	}
	return
}

// Clear zeroes every cell.
func (mx *Matrix) Clear() {
	clear(mx.reqFlat)
	clear(mx.grantFlat)
}

// ClearRows zeroes every cell in the listed rows, one clear per plane for
// each run of consecutive rows.
func (mx *Matrix) ClearRows(rows []int) {
	forRuns(rows, func(lo, hi int) {
		clear(mx.reqFlat[lo*mx.words : hi*mx.words])
		clear(mx.grantFlat[lo*mx.words : hi*mx.words])
	})
}

// ClearRow zeroes every cell in row s.
func (mx *Matrix) ClearRow(s int) {
	clear(mx.req[s])
	clear(mx.grant[s])
}

// ClearColumns zeroes, in each listed row, every cell whose column bit is set
// in mask (a packed column set, Words() words): one word-wide AND-NOT sweep
// per row, the software mirror of the DDU clearing all terminal columns in
// parallel.  Rows left out of the list must already be empty in the masked
// columns (the reduction passes the rows that still hold an edge).
func (mx *Matrix) ClearColumns(rows []int, mask []uint64) {
	for _, s := range rows {
		req, grant := mx.req[s], mx.grant[s]
		for w := range mask {
			req[w] &^= mask[w]
			grant[w] &^= mask[w]
		}
	}
}

// RowSummary returns the row BWO pair (α^r, α^g) of Equation 3 for row s:
// whether the row contains any request and any grant edge.
func (mx *Matrix) RowSummary(s int) (anyReq, anyGrant bool) {
	req, grant := mx.req[s], mx.grant[s]
	var r, g uint64
	for w := range req {
		r |= req[w]
		g |= grant[w]
	}
	return r != 0, g != 0
}

// ColumnSummariesInto computes, over the listed rows, the packed column BWO
// planes of Equation 3 into caller-owned buffers of Words() words each: bit
// t of anyReq is set iff column t holds a request edge in one of the rows,
// likewise for anyGrant.  Listing every row that holds an edge gives the
// planes of the whole matrix.
func (mx *Matrix) ColumnSummariesInto(rows []int, anyReq, anyGrant []uint64) {
	for w := 0; w < mx.words; w++ {
		anyReq[w] = 0
		anyGrant[w] = 0
	}
	for _, s := range rows {
		req, grant := mx.req[s], mx.grant[s]
		for w := 0; w < mx.words; w++ {
			anyReq[w] |= req[w]
			anyGrant[w] |= grant[w]
		}
	}
	anyReq[mx.words-1] &= mx.lastMask()
	anyGrant[mx.words-1] &= mx.lastMask()
}

// Validate checks the single-unit resource invariant (at most one grant per
// row, and no cell that both requests and holds — the illegal 11 of
// Definition 6) and returns a non-nil error describing the first violation.
func (mx *Matrix) Validate() error {
	for s := 0; s < mx.M; s++ {
		grants := 0
		for w := 0; w < mx.words; w++ {
			if both := mx.req[s][w] & mx.grant[s][w]; both != 0 {
				return fmt.Errorf("rag: process p%d both requests and holds resource q%d",
					w*64+bits.TrailingZeros64(both)+1, s+1)
			}
			grants += bits.OnesCount64(mx.grant[s][w])
		}
		if grants > 1 {
			return fmt.Errorf("rag: resource q%d granted to %d processes", s+1, grants)
		}
	}
	return nil
}

// String renders the matrix in the style of the paper's Figure 11, with
// resource rows q1..qm and process columns p1..pn.
func (mx *Matrix) String() string {
	var b strings.Builder
	b.WriteString("     ")
	for t := 0; t < mx.N; t++ {
		fmt.Fprintf(&b, "p%-3d", t+1)
	}
	b.WriteString("\n")
	for s := 0; s < mx.M; s++ {
		fmt.Fprintf(&b, "q%-3d ", s+1)
		for t := 0; t < mx.N; t++ {
			fmt.Fprintf(&b, "%-4s", mx.Get(s, t))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Graph is the RAG γ_ij as an explicit edge structure with the single-unit
// resource invariant enforced.  Processes and resources are 0-based indices.
//
// Storage is bit-packed in both orientations: reqRows[s] holds the request
// bits of resource row s over process columns, reqCols[t] the transposed
// request bits of process t over resource rows, and held[t]/heldAny mirror
// the grant relation as per-process and summary resource planes.  reqAny is
// the request relation's summary plane (bit s: some process requests q_s),
// so reqAny|heldAny names the rows of the state matrix that hold an edge.
// grantTo remains the single-holder index (the invariant makes a full grant
// plane per resource redundant).  The cycle queries HasCycle and Cycle iterate set
// bits with TrailingZeros and sweep whole word groups, and reuse per-graph
// scratch buffers so the steady-state query path performs zero allocations.
// Graph methods are not safe for concurrent use (true of the mutation API
// since the seed; the scratch reuse extends that contract to the query
// methods).
type Graph struct {
	m, n int
	nw   int // words per resource row (over process columns)
	mw   int // words per process plane (over resource rows)

	grantTo  []int      // grantTo[s] = process holding q_s, or -1
	reqRows  [][]uint64 // bit t of reqRows[s]: p_t requests q_s
	reqFlat  []uint64   // every reqRows row back to back
	reqCols  [][]uint64 // bit s of reqCols[t]: p_t requests q_s
	colFlat  []uint64   // every reqCols row back to back
	held     [][]uint64 // bit s of held[t]: q_s granted to p_t
	heldFlat []uint64   // every held row back to back, then heldAny and reqAny

	scratch *graphScratch
}

// dfsFrame is one frame of the iterative wait-for DFS: a process plus the
// word-iterator position inside its packed request row.
type dfsFrame struct {
	proc int32
	word int32
	bits uint64
}

// graphScratch holds the reusable query-path buffers, allocated once on
// first use and sized to the graph.
type graphScratch struct {
	color []uint8    // DFS three-coloring over processes
	stack []dfsFrame // DFS stack (depth ≤ n: every process pushed once)
}

const (
	dfsWhite = 0
	dfsGray  = 1
	dfsBlack = 2
)

// NewGraph returns an empty RAG with m resources and n processes.
func NewGraph(m, n int) *Graph {
	if m <= 0 || n <= 0 {
		panic(fmt.Sprintf("rag: invalid graph size %dx%d", m, n))
	}
	g := &Graph{m: m, n: n, nw: (n + 63) / 64, mw: (m + 63) / 64}
	g.grantTo = make([]int, m)
	for s := range g.grantTo {
		g.grantTo[s] = -1
	}
	g.reqFlat, g.reqRows = newPlane(m, g.nw)
	g.colFlat, g.reqCols = newPlane(n, g.mw)
	// The two summary planes follow the held rows in one allocation, so
	// they cost no allocation of their own and CopyFrom copies them with
	// the held rows.
	g.heldFlat = make([]uint64, (n+2)*g.mw)
	g.held = planeRows(g.heldFlat, n, g.mw)
	return g
}

// heldAny is the held plane's summary (bit s: q_s held by some process).
func (g *Graph) heldAny() []uint64 {
	o := g.n * g.mw
	return g.heldFlat[o : o+g.mw : o+g.mw]
}

// reqAny is the request relation's summary (bit s: some process requests
// q_s).
func (g *Graph) reqAny() []uint64 {
	o := (g.n + 1) * g.mw
	return g.heldFlat[o : o+g.mw : o+g.mw]
}

func (g *Graph) ensureScratch() *graphScratch {
	if g.scratch == nil {
		g.scratch = &graphScratch{
			color: make([]uint8, g.n),
			stack: make([]dfsFrame, 0, g.n),
		}
	}
	return g.scratch
}

// Size returns (resources, processes).
func (g *Graph) Size() (m, n int) { return g.m, g.n }

func (g *Graph) checkRes(s int) {
	if s < 0 || s >= g.m {
		panic(fmt.Sprintf("rag: resource %d out of range", s))
	}
}

func (g *Graph) checkProc(t int) {
	if t < 0 || t >= g.n {
		panic(fmt.Sprintf("rag: process %d out of range", t))
	}
}

// Holder returns the process holding resource s, or -1 if s is free.
func (g *Graph) Holder(s int) int {
	g.checkRes(s)
	return g.grantTo[s]
}

// Requesting reports whether process t has an outstanding request for s.
func (g *Graph) Requesting(s, t int) bool {
	g.checkRes(s)
	g.checkProc(t)
	return g.reqRows[s][t/64]>>(uint(t)%64)&1 == 1
}

// AddRequest records request edge (p_t, q_s).  Idempotent.
func (g *Graph) AddRequest(s, t int) {
	g.checkRes(s)
	g.checkProc(t)
	g.reqRows[s][t/64] |= 1 << (uint(t) % 64)
	g.reqCols[t][s/64] |= 1 << (uint(s) % 64)
	g.reqAny()[s/64] |= 1 << (uint(s) % 64)
}

// RemoveRequest deletes the request edge (p_t, q_s) if present.
func (g *Graph) RemoveRequest(s, t int) {
	g.checkRes(s)
	g.checkProc(t)
	g.clearRequest(s, t)
}

// clearRequest deletes request edge (p_t, q_s) from both orientations and
// drops q_s from reqAny once its row holds no request.
func (g *Graph) clearRequest(s, t int) {
	row := g.reqRows[s]
	row[t/64] &^= 1 << (uint(t) % 64)
	g.reqCols[t][s/64] &^= 1 << (uint(s) % 64)
	for _, w := range row {
		if w != 0 {
			return
		}
	}
	g.reqAny()[s/64] &^= 1 << (uint(s) % 64)
}

// SetGrant grants q_s to p_t, clearing p_t's request edge for q_s.  It
// returns an error if q_s is already held by a different process.
func (g *Graph) SetGrant(s, t int) error {
	g.checkRes(s)
	g.checkProc(t)
	if h := g.grantTo[s]; h != -1 && h != t {
		return fmt.Errorf("rag: resource q%d already granted to p%d", s+1, h+1)
	}
	g.grantTo[s] = t
	g.held[t][s/64] |= 1 << (uint(s) % 64)
	g.heldAny()[s/64] |= 1 << (uint(s) % 64)
	g.clearRequest(s, t)
	return nil
}

// Release frees resource q_s.  It returns an error if q_s is not held by p_t
// (Assumption 2: a resource can be released only by its holder).
func (g *Graph) Release(s, t int) error {
	g.checkRes(s)
	g.checkProc(t)
	if g.grantTo[s] != t {
		return fmt.Errorf("rag: p%d cannot release q%d held by p%d", t+1, s+1, g.grantTo[s]+1)
	}
	g.grantTo[s] = -1
	g.held[t][s/64] &^= 1 << (uint(s) % 64)
	g.heldAny()[s/64] &^= 1 << (uint(s) % 64)
	return nil
}

// Requesters returns the processes with request edges to q_s, ascending.
func (g *Graph) Requesters(s int) []int { return g.AppendRequesters(nil, s) }

// AppendRequesters appends the processes requesting resource s, ascending,
// to dst and returns the extended slice (Requesters into a reused buffer).
func (g *Graph) AppendRequesters(dst []int, s int) []int {
	g.checkRes(s)
	for w, word := range g.reqRows[s] {
		for word != 0 {
			dst = append(dst, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
}

// HeldBy returns the resources currently granted to process t, ascending.
func (g *Graph) HeldBy(t int) []int {
	g.checkProc(t)
	var out []int
	for w, word := range g.held[t] {
		for word != 0 {
			out = append(out, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return out
}

// RequestedBy returns the resources process t is waiting for, ascending.
func (g *Graph) RequestedBy(t int) []int {
	g.checkProc(t)
	var out []int
	for w, word := range g.reqCols[t] {
		for word != 0 {
			out = append(out, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return out
}

// HeldWords exposes process t's packed held-resource plane (bit s: p_t holds
// q_s).  The slice aliases graph storage; callers must treat it as
// read-only.  This is the Banker's word-wise safety-scan fast path.
func (g *Graph) HeldWords(t int) []uint64 {
	g.checkProc(t)
	return g.held[t]
}

// HeldAnyWords exposes the packed held-resource summary plane (bit s: q_s is
// held by some process).  Read-only alias, like HeldWords.
func (g *Graph) HeldAnyWords() []uint64 { return g.heldAny() }

// ResWords returns the number of 64-bit words in a resource plane (the
// length of HeldWords/HeldAnyWords slices).
func (g *Graph) ResWords() int { return g.mw }

// Matrix converts the graph to its state matrix (Definition 6).  A cell where
// both a grant and a request would coincide cannot arise because SetGrant
// clears the holder's request edge.
func (g *Graph) Matrix() *Matrix {
	mx := NewMatrix(g.m, g.n)
	g.MatrixInto(mx)
	return mx
}

// MatrixInto writes the graph's state matrix into a caller-owned matrix —
// a copy of the packed request plane plus one grant bit per held resource,
// no allocation.  This is the scratch-reuse path the periodic detection
// scan runs on.  A matrix larger than the graph receives the graph in its
// top-left corner with every spare cell cleared (the paper's experiments
// run 4-process systems on a 5x5 DDU); a smaller one panics.  When the rows
// have the same word width the request plane is one copy; a wider matrix
// takes it row by row.
func (g *Graph) MatrixInto(mx *Matrix) {
	if mx.M < g.m || mx.N < g.n {
		panic(fmt.Sprintf("rag: MatrixInto %dx%d graph into %dx%d matrix", g.m, g.n, mx.M, mx.N))
	}
	clear(mx.grantFlat)
	if mx.words == g.nw {
		clear(mx.reqFlat[copy(mx.reqFlat, g.reqFlat):])
	} else {
		for s, req := range mx.req {
			if s >= g.m {
				clear(req)
				continue
			}
			clear(req[copy(req, g.reqRows[s]):])
		}
	}
	for s, h := range g.grantTo {
		if h != -1 {
			mx.grant[s][h/64] |= 1 << (uint(h) % 64)
		}
	}
}

// OccupiedRowsInto writes the rows of g's state matrix that hold an edge —
// the rows set in reqAny|heldAny — into mx, a clear matrix of g's size, and
// appends their indices, ascending, to rows.  It is MatrixInto for a
// caller that knows mx is clear: it copies only the request rows the graph
// occupies, one copy per run of consecutive occupied rows, instead of both
// whole planes, and hands back the row list a detection scan starts from.
func (g *Graph) OccupiedRowsInto(mx *Matrix, rows []int) []int {
	if mx.M != g.m || mx.N != g.n {
		panic(fmt.Sprintf("rag: OccupiedRowsInto %dx%d graph into %dx%d matrix", g.m, g.n, mx.M, mx.N))
	}
	first := len(rows)
	reqAny := g.reqAny()
	for w, held := range g.heldAny() {
		word := held | reqAny[w]
		for word != 0 {
			s := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if h := g.grantTo[s]; h != -1 {
				mx.grant[s][h/64] |= 1 << (uint(h) % 64)
			}
			rows = append(rows, s)
		}
	}
	forRuns(rows[first:], func(lo, hi int) {
		copy(mx.reqFlat[lo*g.nw:hi*g.nw], g.reqFlat[lo*g.nw:hi*g.nw])
	})
	return rows
}

// forRuns calls fn(lo, hi) for each run lo, lo+1, …, hi−1 of consecutive
// values in rows, so a plane operation over listed rows takes one call per
// run instead of one per row.
func forRuns(rows []int, fn func(lo, hi int)) {
	for i := 0; i < len(rows); {
		j := i + 1
		for j < len(rows) && rows[j] == rows[j-1]+1 {
			j++
		}
		fn(rows[i], rows[j-1]+1)
		i = j
	}
}

// FromMatrix reconstructs a Graph from a matrix, enforcing the single-grant
// invariant.
func FromMatrix(mx *Matrix) (*Graph, error) {
	if err := mx.Validate(); err != nil {
		return nil, err
	}
	g := NewGraph(mx.M, mx.N)
	for s := 0; s < mx.M; s++ {
		for t := 0; t < mx.N; t++ {
			//deltalint:partial None adds no edge
			switch mx.Get(s, t) {
			case Request:
				g.AddRequest(s, t)
			case Grant:
				if err := g.SetGrant(s, t); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// Clone returns a deep copy of the graph.  Scratch buffers are not shared;
// the clone allocates its own lazily.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.m, g.n)
	c.CopyFrom(g)
	return c
}

// CopyFrom overwrites g with src's edges.  Dimensions must match; this is
// the allocation-free alternative to Clone for scratch graphs.  Each plane
// is one flat allocation, so it copies in one call.
func (g *Graph) CopyFrom(src *Graph) {
	if g.m != src.m || g.n != src.n {
		panic(fmt.Sprintf("rag: CopyFrom %dx%d into %dx%d graph", src.m, src.n, g.m, g.n))
	}
	copy(g.grantTo, src.grantTo)
	copy(g.reqFlat, src.reqFlat)
	copy(g.colFlat, src.colFlat)
	copy(g.heldFlat, src.heldFlat)
}

// nextWaitHolder advances frame f's bit iterator over the packed request row
// of process f.proc and returns the holder of the next requested-and-held
// resource, or -1 when the row is exhausted.  Requests to free resources are
// skipped: a free resource has no outgoing grant edge, so it cannot lie on a
// cycle.
func (g *Graph) nextWaitHolder(f *dfsFrame) int {
	row := g.reqCols[f.proc]
	for {
		for f.bits == 0 {
			if int(f.word) >= len(row) {
				return -1
			}
			f.bits = row[f.word]
			f.word++
		}
		s := int(f.word-1)*64 + bits.TrailingZeros64(f.bits)
		f.bits &= f.bits - 1
		if h := g.grantTo[s]; h != -1 {
			return h
		}
	}
}

// HasCycle is the deadlock test: it reports whether the RAG contains a
// directed cycle.  For the paper's single-unit resource model, deadlock
// exists iff a cycle exists (the theorem PDDA is proven against in
// GIT-CC-03-41).  Zero allocations per call; HasCycleRef (ref.go) is the
// per-cell differential oracle.
func (g *Graph) HasCycle() bool {
	_, back := g.waitCycle()
	return back >= 0
}

// Cycle returns a witness cycle as the ordered list of processes on it
// (p_a holds a resource p_b requests, p_b holds one p_c requests, … back to
// p_a), or nil when the graph is acyclic.  The search order is fixed —
// processes ascending, each process's requests in ascending resource order —
// so the witness is deterministic for a given graph and byte-identical to
// the per-cell CycleRef oracle; the fuzz campaign compares the two on every
// seed.  Only the returned witness allocates; the acyclic path is
// allocation-free.
func (g *Graph) Cycle() []int {
	stack, back := g.waitCycle()
	if back < 0 {
		return nil
	}
	out := make([]int, len(stack)-back)
	for i := range out {
		out[i] = int(stack[back+i].proc)
	}
	return out
}

// waitCycle is the DFS behind HasCycle and Cycle.  It searches the
// process-only wait-for projection (p_a → p_b iff p_a requests a resource
// p_b holds), which preserves cycles exactly: every bipartite cycle
// alternates process/resource nodes and each resource has at most one
// outgoing grant edge.  Successors are enumerated by word-wise
// TrailingZeros iteration over the packed per-process request rows, and the
// DFS stack/coloring live in reusable scratch.  At the first back edge it
// returns the DFS stack and the index of the frame the edge returns to, so
// stack[back:] is the cycle (the DFS path from that process back to the
// requester); on an acyclic graph back is -1.
func (g *Graph) waitCycle() (stack []dfsFrame, back int) {
	sc := g.ensureScratch()
	color := sc.color
	for i := range color {
		color[i] = dfsWhite
	}
	stack = sc.stack[:0]
	for start := 0; start < g.n; start++ {
		if color[start] != dfsWhite {
			continue
		}
		color[start] = dfsGray
		stack = append(stack, dfsFrame{proc: int32(start)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			w := g.nextWaitHolder(f)
			if w < 0 {
				color[f.proc] = dfsBlack
				stack = stack[:len(stack)-1]
				continue
			}
			switch color[w] {
			case dfsGray:
				for i := range stack {
					if int(stack[i].proc) == w {
						return stack, i
					}
				}
			case dfsWhite:
				color[w] = dfsGray
				stack = append(stack, dfsFrame{proc: int32(w)})
			}
		}
	}
	return stack, -1
}

// DeadlockedProcesses returns the set of processes on or reachable into a
// cycle, i.e. processes whose wait can never be satisfied.  Computed by
// repeatedly discarding processes that are not blocked, and resources whose
// holders are discarded — the graph-side equivalent of terminal reduction —
// on boolean working copies of the edges.  Result ascending.  No caller is
// on a hot path: the resource manager latches the set once per deadlock,
// and the examples and Figure 15 query it once.
func (g *Graph) DeadlockedProcesses() []int {
	reqs := make([][]bool, g.m)
	grantTo := slices.Clone(g.grantTo)
	for s := range reqs {
		reqs[s] = make([]bool, g.n)
		for t := range reqs[s] {
			reqs[s][t] = g.Requesting(s, t)
		}
	}
	for {
		removed := false
		for s := 0; s < g.m; s++ {
			// A granted resource with no requesters does not block anyone:
			// drop the grant edge.
			if grantTo[s] != -1 && !slices.Contains(reqs[s], true) {
				grantTo[s] = -1
				removed = true
			}
		}
		for t := 0; t < g.n; t++ {
			blocked := false
			for s := 0; s < g.m; s++ {
				if reqs[s][t] {
					blocked = true
					break
				}
			}
			if !blocked {
				// An unblocked process can eventually release everything it
				// holds and withdraw: drop its grant edges.
				for s := 0; s < g.m; s++ {
					if grantTo[s] == t {
						grantTo[s] = -1
						removed = true
					}
				}
			}
		}
		// Requests to free resources can be satisfied once granted resources
		// cycle back; drop request edges to resources held by nobody.
		for s := 0; s < g.m; s++ {
			if grantTo[s] == -1 && slices.Contains(reqs[s], true) {
				clear(reqs[s])
				removed = true
			}
		}
		if !removed {
			break
		}
	}
	var out []int
	for t := 0; t < g.n; t++ {
		for s := 0; s < g.m; s++ {
			if reqs[s][t] {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// Random returns a random RAG drawn edge-by-edge: each resource is granted to
// a uniformly random process with probability pGrant, and each (s,t) pair
// gains a request edge with probability pReq (skipping the holder).
func Random(rng *det.RNG, m, n int, pGrant, pReq float64) *Graph {
	g := NewGraph(m, n)
	for s := 0; s < m; s++ {
		if rng.Float64() < pGrant {
			if err := g.SetGrant(s, rng.Intn(n)); err != nil {
				panic(err) // unreachable: fresh resource
			}
		}
		for t := 0; t < n; t++ {
			if g.grantTo[s] != t && rng.Float64() < pReq {
				g.AddRequest(s, t)
			}
		}
	}
	return g
}

// BlockDiagonal returns a (tiles·m)×(tiles·n) RAG of independent m×n
// tiles on the diagonal, each drawn as Random draws a whole graph: tile i
// owns resources [i·m, (i+1)·m) and processes [i·n, (i+1)·n), and no edge
// crosses tiles.  Most of each row is empty, the shape of a large system
// whose processes contend in small groups.
func BlockDiagonal(rng *det.RNG, tiles, m, n int, pGrant, pReq float64) *Graph {
	g := NewGraph(tiles*m, tiles*n)
	for i := 0; i < tiles; i++ {
		tile := Random(rng, m, n, pGrant, pReq)
		for s := 0; s < m; s++ {
			if h := tile.grantTo[s]; h != -1 {
				if err := g.SetGrant(i*m+s, i*n+h); err != nil {
					panic(err) // unreachable: fresh resource
				}
			}
			for _, t := range tile.Requesters(s) {
				g.AddRequest(i*m+s, i*n+t)
			}
		}
	}
	return g
}

// Chain builds the adversarial "chain" RAG that maximizes the number of
// terminal reduction steps: p1→q1→p2→q2→…, a single long dependency path
// with no cycle.  Used for worst-case iteration measurements (Table 1).
func Chain(m, n int) *Graph {
	g := NewGraph(m, n)
	k := m
	if n < k {
		k = n
	}
	for i := 0; i < k; i++ {
		// q_i granted to p_i
		if err := g.SetGrant(i, i); err != nil {
			panic(err)
		}
		// p_i requests q_{i+1} (except the last, which is unblocked)
		if i+1 < k {
			g.AddRequest(i+1, i)
		}
	}
	return g
}

// CycleGraph builds a k-cycle deadlock: p_i holds q_i and requests q_{i+1
// mod k}.  Requires k <= min(m,n) and k >= 2.
func CycleGraph(m, n, k int) *Graph {
	if k < 2 || k > m || k > n {
		panic(fmt.Sprintf("rag: cycle length %d does not fit %dx%d", k, m, n))
	}
	g := NewGraph(m, n)
	for i := 0; i < k; i++ {
		if err := g.SetGrant(i, i); err != nil {
			panic(err)
		}
		g.AddRequest((i+1)%k, i)
	}
	return g
}
