// The per-cell engine: terminal reduction and PDDA evaluated one 2-bit cell
// register at a time, with the weight and decide nets of Equations 3–7 that
// the DDU's hardware cells compute.  It keeps its own cell array and shares
// no storage, scanning or clearing code with rag.Matrix or the word-parallel
// kernel in pdda.go, which makes it that kernel's differential oracle: the
// fuzz campaign checks the fast engine against it on every seed, the DDU
// package checks ddu.Unit against it and dumps its nets as a waveform, and
// BenchmarkBitsetReduce measures the word-parallel speedup from it.

package pdda

import (
	"fmt"

	"deltartos/internal/rag"
)

// Cells is a cell-accurate model of the detection matrix: one rag.Cell
// register per (resource row, process column), held row-major in one flat
// slice, plus the combinational nets that Eval settles.  A cell's 2-bit
// encoding is (α^r, α^g), so OR-ing the cells of a row or column yields that
// line's bit-wise OR pair of Equation 3 directly.
type Cells struct {
	m, n  int
	cells []rag.Cell
	colOr []rag.Cell // per-column OR accumulator for Eval

	// Combinational nets, re-derived by Eval.
	RowTau []bool // τ_rs per row (Equation 4)
	RowPhi []bool // φ_rs per row (Equation 6)
	ColTau []bool // τ_ct per column
	ColPhi []bool // φ_ct per column
	TIter  bool   // Equation 5
	DIter  bool   // Equation 7 (valid when TIter is false)
}

// NewCells returns an m×n cell array with every cell clear; the nets of a
// clear array are all deasserted, so they start settled.
func NewCells(m, n int) *Cells {
	return &Cells{
		m: m, n: n,
		cells:  make([]rag.Cell, m*n),
		colOr:  make([]rag.Cell, n),
		RowTau: make([]bool, m),
		RowPhi: make([]bool, m),
		ColTau: make([]bool, n),
		ColPhi: make([]bool, n),
	}
}

// Load programs the cells from a state matrix through its per-cell Get: the
// matrix lands in the top-left corner, every spare cell is cleared, and the
// nets are settled.  A matrix larger than the array is an error.
func (c *Cells) Load(mx *rag.Matrix) error {
	if mx.M > c.m || mx.N > c.n {
		return fmt.Errorf("pdda: matrix %dx%d does not fit %dx%d cell array", mx.M, mx.N, c.m, c.n)
	}
	clear(c.cells)
	for s := 0; s < mx.M; s++ {
		for t := 0; t < mx.N; t++ {
			c.cells[s*c.n+t] = mx.Get(s, t)
		}
	}
	c.Eval()
	return nil
}

// Cell returns the content of cell (s, t).
func (c *Cells) Cell(s, t int) rag.Cell { return c.cells[s*c.n+t] }

// Eval settles the combinational nets for the current cells: the bit-wise
// OR of every row and column (Equation 3), τ = α^r ⊕ α^g (Equation 4),
// T_iter = OR of all τ (Equation 5), φ = α^r ∧ α^g (Equation 6) and the
// decide output D_iter = OR of all φ, gated by ¬T_iter (Equation 7).
func (c *Cells) Eval() {
	clear(c.colOr)
	c.TIter = false
	anyPhi := false
	for s := 0; s < c.m; s++ {
		var rowOr rag.Cell
		for t, cell := range c.cells[s*c.n : (s+1)*c.n] {
			rowOr |= cell
			c.colOr[t] |= cell
		}
		c.RowTau[s] = rowOr == rag.Request || rowOr == rag.Grant
		c.RowPhi[s] = rowOr == rag.Request|rag.Grant
		c.TIter = c.TIter || c.RowTau[s]
		anyPhi = anyPhi || c.RowPhi[s]
	}
	for t, colOr := range c.colOr {
		c.ColTau[t] = colOr == rag.Request || colOr == rag.Grant
		c.ColPhi[t] = colOr == rag.Request|rag.Grant
		c.TIter = c.TIter || c.ColTau[t]
		anyPhi = anyPhi || c.ColPhi[t]
	}
	c.DIter = anyPhi && !c.TIter
}

// Clock applies one reduction clock edge: every cell whose row or column
// asserted τ clears (the parallel clear input of each matrix cell), then
// the nets settle again.
func (c *Cells) Clock() {
	for s := 0; s < c.m; s++ {
		row := c.cells[s*c.n : (s+1)*c.n]
		for t := range row {
			if c.RowTau[s] || c.ColTau[t] {
				row[t] = rag.None
			}
		}
	}
	c.Eval()
}

// Run clocks the reduction until T_iter deasserts and returns the decide
// output and the number of reduction steps k.
func (c *Cells) Run() (deadlock bool, k int) {
	for c.TIter {
		c.Clock()
		k++
	}
	return c.DIter, k
}

// ReduceCells applies the terminal reduction sequence to mx on the per-cell
// engine, writes the irreducible matrix back into mx through Set, and
// returns the number of reduction steps.
func ReduceCells(mx *rag.Matrix) int {
	c := cellsOf(mx)
	_, k := c.Run()
	for s := 0; s < mx.M; s++ {
		for t := 0; t < mx.N; t++ {
			mx.Set(s, t, c.Cell(s, t))
		}
	}
	return k
}

// DetectCells is Algorithm 2 on the per-cell engine: load the matrix, reduce
// it, and report the decide output, which after the last step is asserted
// iff some cell survives.
func DetectCells(mx *rag.Matrix) bool {
	deadlock, _ := cellsOf(mx).Run()
	return deadlock
}

// cellsOf returns a cell array sized to mx and loaded from it.
func cellsOf(mx *rag.Matrix) *Cells {
	c := NewCells(mx.M, mx.N)
	if err := c.Load(mx); err != nil {
		panic(err) // unreachable: the array is sized to mx
	}
	return c
}

// DetectGraphCells runs the per-cell engine on a Graph, programming the
// cells through the per-cell graph API (Requesting, Holder) only — never a
// matrix image — so the whole oracle path is independent of the bit planes
// the word-parallel engine reads.
func DetectGraphCells(g *rag.Graph) bool {
	m, n := g.Size()
	c := NewCells(m, n)
	for s := 0; s < m; s++ {
		for t := 0; t < n; t++ {
			if g.Requesting(s, t) {
				c.cells[s*n+t] = rag.Request
			}
		}
		if h := g.Holder(s); h != -1 {
			c.cells[s*n+h] = rag.Grant
		}
	}
	c.Eval()
	deadlock, _ := c.Run()
	return deadlock
}
