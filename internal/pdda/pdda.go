// Package pdda implements the Parallel Deadlock Detection Algorithm of Lee &
// Mooney (Section 4.2.1): Algorithm 1 (the terminal reduction sequence ξ) and
// Algorithm 2 (PDDA itself).  The classic software detectors the paper cites
// as prior work (Holt, Shoshani–Coffman, Leibfried) are test-only baselines
// in baselines_test.go.
//
// All detectors are instrumented: Stats counts the abstract memory operations
// the software implementation performs, which the MPSoC simulator converts to
// bus-clock cycles via its cost table.  This is how the "PDDA in software"
// column of Table 5 is reproduced.
//
// Two engines implement the reduction.  The word-parallel engine (this file)
// sweeps whole []uint64 word groups per step — terminal rows via packed row
// summaries, terminal columns via one XOR of the column BWO planes, column
// clearing via one AND-NOT sweep per row — over only the rows that still
// hold an edge, and, through a caller-owned Scratch, performs zero
// allocations per detection scan.  A scan of a rag.Graph (DetectGraphInto)
// also starts from the graph's occupied rows, so it costs what the graph
// holds.  It is the one reduction core of the repository: software PDDA,
// the DDU model (ddu.Unit, which runs DetectInto on its cells and
// DetectGraphInto on a graph) and, through the DDU, the DAU all run it.
// The per-cell engine (cells.go, Cells) evaluates the weight and decide
// cells of Equations 3–7 on its own cell array and serves as the
// differential oracle of this kernel and of the DDU.  Stats counts
// the ABSTRACT cell operations of the paper's software model (counted, not
// performed), so packing words never changes the simulated cost — only the
// host wall clock.
package pdda

import (
	"math/bits"

	"deltartos/internal/rag"
)

// Stats counts the work a software detector performed.  CellReads/CellWrites
// are shared-memory accesses to the state matrix; Ops are register-level ALU
// operations that do not touch memory.
type Stats struct {
	Iterations int // terminal reduction steps k (PDDA) or outer passes (baselines)
	CellReads  int
	CellWrites int
	Ops        int
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.Iterations += s2.Iterations
	s.CellReads += s2.CellReads
	s.CellWrites += s2.CellWrites
	s.Ops += s2.Ops
}

// StepTrace records one terminal reduction step for diagnostics and for the
// paper's worked example (Figure 12).
type StepTrace struct {
	TerminalRows []int
	TerminalCols []int
	After        *rag.Matrix
}

// Scratch owns the reusable buffers of the allocation-free detection path: a
// working state matrix plus the live-row list and the packed column-summary
// and terminal-set buffers one reduction needs.  A Scratch resizes itself
// lazily to the largest system it has seen; reusing one across scans of the
// same system performs zero allocations per scan (gated by
// TestDetectDoesNotAllocate).
//
// A clean scratch's working matrix is zero outside the rows in live: a
// reduction leaves exactly that, since live ends as the non-empty rows of
// the irreducible matrix.  Work hands the matrix to a caller, who may write
// any cell, so it marks the scratch dirty.  DetectGraphInto relies on the
// invariant to clear only the previous live rows of a clean scratch.
// A Scratch is owned by its caller and must not be shared across goroutines.
type Scratch struct {
	work     *rag.Matrix
	colReq   []uint64
	colGrant []uint64
	colTerm  []uint64
	termRows []int
	live     []int // rows that held an edge at the last row scan
	dirty    bool  // work may hold an edge outside live
}

// ensure sizes the scratch for an m×n system.  A new working matrix is
// zero, so a resized scratch is clean with no live rows.
func (sc *Scratch) ensure(m, n int) {
	if sc.work != nil && sc.work.M == m && sc.work.N == n {
		return
	}
	sc.work = rag.NewMatrix(m, n)
	w := sc.work.Words()
	sc.colReq = make([]uint64, w)
	sc.colGrant = make([]uint64, w)
	sc.colTerm = make([]uint64, w)
	sc.termRows = make([]int, 0, m)
	sc.live = make([]int, 0, m)
	sc.dirty = false
}

// seedAll lists every row of the scratch's size as live, for a reduction
// of a matrix whose occupied rows are unknown.
func (sc *Scratch) seedAll() {
	live := sc.live[:0]
	for s := 0; s < sc.work.M; s++ {
		live = append(live, s)
	}
	sc.live = live
}

// Reduce applies the terminal reduction sequence ξ (Algorithm 1) to mx in
// place and returns the number of reduction steps k plus instrumentation.
//
// Each step computes ALL terminal rows and columns of the current matrix
// (Definitions 7–10) and removes every terminal edge simultaneously
// (Definition 12), exactly as the hardware does in parallel.
func Reduce(mx *rag.Matrix) (k int, stats Stats) {
	var sc Scratch
	sc.ensure(mx.M, mx.N)
	sc.seedAll()
	k, stats, _ = reduce(mx, &sc, false)
	return k, stats
}

// ReduceTraced is Reduce but also returns the per-step trace.
func ReduceTraced(mx *rag.Matrix) (k int, stats Stats, trace []StepTrace) {
	var sc Scratch
	sc.ensure(mx.M, mx.N)
	sc.seedAll()
	return reduce(mx, &sc, true)
}

// Work sizes the scratch for an m×n system and returns its working matrix,
// for a caller that fills the cells itself (a detector embedding a smaller
// graph, the fuzz executor validating the matrix it reduces) before
// DetectWork.  The matrix stays owned by the scratch, which is dirty until
// its next reduction.
func (sc *Scratch) Work(m, n int) *rag.Matrix {
	sc.ensure(m, n)
	sc.dirty = true
	return sc.work
}

// ReduceInto copies mx into the scratch working matrix and reduces THAT,
// leaving mx untouched — the no-Clone() flavor of Reduce.  The reduced
// matrix stays in the scratch for inspection until the next call.
func ReduceInto(sc *Scratch, mx *rag.Matrix) (k int, stats Stats) {
	sc.Work(mx.M, mx.N).CopyFrom(mx)
	sc.seedAll()
	k, stats, _ = reduce(sc.work, sc, false)
	return k, stats
}

// reduce is the word-parallel terminal reduction core.  It sweeps only the
// rows that still hold an edge: the live list starts as sc.live, which the
// caller seeds with every row that may hold one (every row of a matrix it
// knows nothing about, the occupied rows of a graph), each step's row scan
// drops the rows it finds empty, and the column summaries and the column
// clear run over the rows that remain.  On return sc.live lists exactly the
// non-empty rows of the irreducible matrix, every other row is zero and the
// scratch is clean.
//
// Stats mirrors the abstract per-cell software model, which scans the whole
// matrix whatever it holds: a row scan reads N cells, the column scan reads
// M·N cells, each cleared row writes N cells and each cleared column M
// cells — counted, not performed, so the cost model is independent of the
// engine and of how many rows are live (pinned against the closed form by
// TestStatsMatchAcrossPaths).
func reduce(mx *rag.Matrix, sc *Scratch, traced bool) (int, Stats, []StepTrace) {
	var stats Stats
	var trace []StepTrace
	words := mx.Words()
	live := sc.live
	k := 0
	for {
		// Lines 5–6 of Algorithm 1: compute T_r and T_c.  The software
		// model scans every cell once per direction.
		termRows := sc.termRows[:0]
		n := 0
		for _, s := range live {
			anyReq, anyGrant := mx.RowSummary(s)
			if !anyReq && !anyGrant {
				continue // an empty row stays empty: drop it
			}
			live[n] = s
			n++
			if anyReq != anyGrant { // τ_rs = α^r ⊕ α^g (Equation 4)
				termRows = append(termRows, s)
			}
		}
		live = live[:n]
		stats.CellReads += mx.M * mx.N // row scans
		stats.Ops += 2 * mx.M
		mx.ColumnSummariesInto(live, sc.colReq, sc.colGrant)
		stats.CellReads += mx.M * mx.N // column scan
		stats.Ops += 2 * mx.N          // τ_ct per column (Equation 4)
		termColCount := 0
		for w := 0; w < words; w++ {
			sc.colTerm[w] = sc.colReq[w] ^ sc.colGrant[w]
			termColCount += bits.OnesCount64(sc.colTerm[w])
		}
		// Line 7: if no more terminals, stop (T_iter == 0, Equation 5).
		if len(termRows) == 0 && termColCount == 0 {
			break
		}
		// Lines 8–9: remove all terminal edges found this iteration.
		for _, s := range termRows {
			mx.ClearRow(s)
			stats.CellWrites += mx.N
		}
		if termColCount > 0 {
			mx.ClearColumns(live, sc.colTerm)
			stats.CellWrites += mx.M * termColCount
		}
		k++
		stats.Iterations = k
		if traced {
			termCols := make([]int, 0, termColCount)
			for w := 0; w < words; w++ {
				word := sc.colTerm[w]
				for word != 0 {
					termCols = append(termCols, w*64+bits.TrailingZeros64(word))
					word &= word - 1
				}
			}
			trace = append(trace, StepTrace{
				TerminalRows: append([]int(nil), termRows...),
				TerminalCols: termCols,
				After:        mx.Clone(),
			})
		}
	}
	sc.termRows = sc.termRows[:0]
	sc.live = live
	sc.dirty = false
	return k, stats, trace
}

// Detect is Algorithm 2 (PDDA): it builds a working copy of the state matrix,
// runs the terminal reduction sequence, and reports deadlock iff the
// irreducible matrix is non-empty.
func Detect(mx *rag.Matrix) (deadlock bool, stats Stats) {
	var sc Scratch
	return DetectInto(&sc, mx)
}

// DetectInto is Detect on a caller-owned Scratch: the state matrix is copied
// into the scratch working matrix (no Clone per scan) and reduced there.
// Zero allocations once the scratch is warm; Stats is identical to Detect's.
func DetectInto(sc *Scratch, mx *rag.Matrix) (deadlock bool, stats Stats) {
	sc.Work(mx.M, mx.N).CopyFrom(mx)
	return DetectWork(sc)
}

// DetectGraph runs PDDA on a Graph by first mapping it to its state matrix
// (Definition 6), as lines 2–6 of Algorithm 2 specify.
func DetectGraph(g *rag.Graph) (bool, Stats) {
	return Detect(g.Matrix())
}

// DetectGraphInto is DetectGraph on a caller-owned Scratch: the graph's
// occupied rows are mapped straight into the scratch matrix (word copies of
// the packed request rows) and reduced in place — the steady-state
// detection path of the avoidance arbiters (daa.Avoider, and the DAU
// through ddu.Unit.DetectGraph), zero allocations per scan.  A
// clean scratch clears only its previous live rows, and the reduction
// starts from the graph's occupied rows, so a scan costs what the graph
// holds rather than its size.
func DetectGraphInto(sc *Scratch, g *rag.Graph) (deadlock bool, stats Stats) {
	sc.ensure(g.Size())
	if sc.dirty {
		sc.work.Clear()
	} else {
		sc.work.ClearRows(sc.live)
	}
	sc.live = g.OccupiedRowsInto(sc.work, sc.live[:0])
	return detect(sc)
}

// DetectWork is Algorithm 2 on the scratch working matrix as the caller
// left it (see Work): it reduces the matrix in place and reports deadlock
// iff the irreducible matrix is non-empty, i.e. iff a row is still live
// after the last step.  stats.Iterations is the number of reduction steps k.
func DetectWork(sc *Scratch) (deadlock bool, stats Stats) {
	sc.seedAll()
	return detect(sc)
}

// detect is DetectWork from the live list the caller seeded.
func detect(sc *Scratch) (deadlock bool, stats Stats) {
	mx := sc.work
	stats.CellWrites += mx.M * mx.N // lines 2–6: construct M_ij
	_, rs, _ := reduce(mx, sc, false)
	stats.Add(rs)
	deadlock = len(sc.live) > 0
	stats.CellReads += mx.M * mx.N // lines 8–12: test M_{i,j+k} == [0]
	return deadlock, stats
}

// WorstCaseBound returns the proven upper bound on the number of terminal
// reduction steps for an m×n system: 2·min(m,n) − 3, from GIT-CC-03-41
// (values below 1 clamp to 1, a single step always suffices for degenerate
// sizes).
func WorstCaseBound(m, n int) int {
	k := m
	if n < k {
		k = n
	}
	b := 2*k - 3
	if b < 1 {
		return 1
	}
	return b
}
