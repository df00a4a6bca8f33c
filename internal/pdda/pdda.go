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
// sweeps whole []uint64 word groups, once per step — terminal rows via
// packed row summaries, terminal columns via one XOR of the column BWO
// planes, column clearing via one AND-NOT per word — over only the rows that
// still hold an edge, and, through a caller-owned Scratch, performs zero
// allocations per detection scan.  Every detector scans a rag.Graph
// (DetectGraphInto), starting from the graph's occupied rows, so a scan
// costs what the graph holds.  It is the one reduction core of the
// repository: software PDDA, the DDU model (ddu.Unit, whose cells are a
// graph) and, through the DDU, the DAU all run it.
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
// Between scans the working matrix is zero outside the rows in live: a
// reduction leaves exactly that, since live ends as the non-empty rows of
// the irreducible matrix, and the matrix never leaves the package.
// DetectGraphInto relies on it to clear only the previous live rows.
// A Scratch is owned by its caller and must not be shared across goroutines.
type Scratch struct {
	work     *rag.Matrix
	colReq   []uint64
	colGrant []uint64
	colTerm  []uint64
	live     []int // rows that held an edge at the last sweep
}

// ensure sizes the scratch for an m×n system.  A new working matrix is
// zero, with no live rows.
func (sc *Scratch) ensure(m, n int) {
	if sc.work != nil && sc.work.M == m && sc.work.N == n {
		return
	}
	sc.work = rag.NewMatrix(m, n)
	w := sc.work.Words()
	sc.colReq = make([]uint64, w)
	sc.colGrant = make([]uint64, w)
	sc.colTerm = make([]uint64, w)
	sc.live = make([]int, 0, m)
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

// reduce is the word-parallel terminal reduction core.  It sweeps only the
// rows that still hold an edge: the live list starts as sc.live, which the
// caller seeds with every row that may hold one (every row of a matrix it
// knows nothing about, the occupied rows of a graph).  Each step is one
// sweep over the live rows that fuses lines 8–9 of Algorithm 1 with lines
// 5–6 of the next step: a terminal row is cleared and dropped, every other
// row loses its terminal columns, and what it keeps is ORed, on the same
// words, into its row summary and the column BWO planes the next step's
// terminals come from.  A row left empty is dropped.  The first sweep has
// no terminals to clear, so it only summarizes.  A terminal row is marked
// in place in the live list (stored as ^s), so the next step's terminal
// rows need no storage of their own.  On return sc.live lists exactly the
// non-empty rows of the irreducible matrix, unmarked, and every other row
// is zero.
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
	colReq, colGrant, colTerm := sc.colReq, sc.colGrant, sc.colTerm
	clear(colTerm) // the first sweep clears nothing
	live := sc.live
	k := 0
	for {
		// Lines 8–9 of step k (none before step 1), then lines 5–6 of step
		// k+1: the row summaries, T_r and the column planes.
		var cleared []int
		clear(colReq)
		clear(colGrant)
		n, termRows := 0, 0
		for _, s := range live {
			if s < 0 {
				req, grant := mx.Row(^s)
				clear(req)
				clear(grant)
				if traced {
					cleared = append(cleared, ^s)
				}
				continue // a cleared row stays empty: drop it
			}
			req, grant := mx.Row(s)
			// Slicing to len(req) drops the word loop's bounds checks.
			grant, term := grant[:len(req)], colTerm[:len(req)]
			cr, cg := colReq[:len(req)], colGrant[:len(req)]
			var r, g uint64
			for w := range req {
				q, h := req[w]&^term[w], grant[w]&^term[w]
				req[w], grant[w] = q, h
				r |= q
				g |= h
				cr[w] |= q
				cg[w] |= h
			}
			if r|g == 0 {
				continue // an empty row stays empty: drop it
			}
			if (r == 0) != (g == 0) { // τ_rs = α^r ⊕ α^g (Equation 4)
				s = ^s
				termRows++
			}
			live[n] = s
			n++
		}
		live = live[:n]
		if traced && k > 0 {
			trace = append(trace, StepTrace{
				TerminalRows: cleared,
				TerminalCols: setBits(colTerm),
				After:        mx.Clone(),
			})
		}
		// The software model scans every cell once per direction.
		stats.CellReads += 2 * mx.M * mx.N // row scans, column scan
		stats.Ops += 2*mx.M + 2*mx.N       // τ_rs per row, τ_ct per column
		termCols := 0
		for w := range colTerm {
			colTerm[w] = colReq[w] ^ colGrant[w]
			termCols += bits.OnesCount64(colTerm[w])
		}
		// Line 7: if no more terminals, stop (T_iter == 0, Equation 5).
		if termRows == 0 && termCols == 0 {
			break
		}
		k++
		stats.Iterations = k
		stats.CellWrites += termRows*mx.N + termCols*mx.M
	}
	sc.live = live
	return k, stats, trace
}

// setBits lists the set bits of a packed set, ascending.
func setBits(set []uint64) []int {
	var out []int
	for w, word := range set {
		for word != 0 {
			out = append(out, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return out
}

// Detect is Algorithm 2 (PDDA): it builds a working copy of the state matrix,
// runs the terminal reduction sequence, and reports deadlock iff the
// irreducible matrix is non-empty.
func Detect(mx *rag.Matrix) (deadlock bool, stats Stats) {
	var sc Scratch
	sc.ensure(mx.M, mx.N)
	sc.work.CopyFrom(mx)
	sc.seedAll()
	return detect(&sc)
}

// DetectGraph runs PDDA on a Graph by first mapping it to its state matrix
// (Definition 6), as lines 2–6 of Algorithm 2 specify.
func DetectGraph(g *rag.Graph) (bool, Stats) {
	var sc Scratch
	return DetectGraphInto(&sc, g)
}

// DetectGraphInto is DetectGraph on a caller-owned Scratch, the steady-state
// detection path of every detector (software PDDA, the DDU and the DAU,
// daa.Avoider), zero allocations per scan.  The graph's occupied rows are
// mapped straight into the scratch matrix (word copies of the packed
// request rows) and reduced in place.  The scratch clears only its
// previous live rows, and the reduction starts from the graph's occupied
// rows, so a scan costs what the graph holds rather than its size.
func DetectGraphInto(sc *Scratch, g *rag.Graph) (deadlock bool, stats Stats) {
	sc.ensure(g.Size())
	sc.work.ClearRows(sc.live)
	sc.live = g.OccupiedRowsInto(sc.work, sc.live[:0])
	return detect(sc)
}

// detect is Algorithm 2 on the scratch working matrix, from the live list
// the caller seeded: it reduces the matrix in place and reports deadlock
// iff the irreducible matrix is non-empty, i.e. iff a row is still live
// after the last step.  stats.Iterations is the number of reduction steps k.
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
