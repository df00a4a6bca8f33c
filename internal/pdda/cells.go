// The per-cell reference engine: terminal reduction and PDDA implemented
// one Get/Set at a time, exactly as the paper's software model walks shared
// memory.  It shares no scanning or clearing code with the word-parallel
// engine in pdda.go — the one reduction kernel that software PDDA, the DDU
// and the DAU all run — which makes it that kernel's differential oracle:
// the fuzz campaign checks the fast engine against it on every seed, and
// BenchmarkBitsetReduce measures the word-parallel speedup from it.

package pdda

import "deltartos/internal/rag"

// ReduceCells applies the terminal reduction sequence to mx in place using
// per-cell accesses only, and returns the number of reduction steps.
func ReduceCells(mx *rag.Matrix) int {
	k := 0
	for {
		termRows := []int{}
		for s := 0; s < mx.M; s++ {
			anyR, anyG := false, false
			for t := 0; t < mx.N; t++ {
				//deltalint:partial None contributes to neither summary
				switch mx.Get(s, t) {
				case rag.Request:
					anyR = true
				case rag.Grant:
					anyG = true
				}
			}
			if anyR != anyG {
				termRows = append(termRows, s)
			}
		}
		termCols := []int{}
		for t := 0; t < mx.N; t++ {
			anyR, anyG := false, false
			for s := 0; s < mx.M; s++ {
				//deltalint:partial None contributes to neither summary
				switch mx.Get(s, t) {
				case rag.Request:
					anyR = true
				case rag.Grant:
					anyG = true
				}
			}
			if anyR != anyG {
				termCols = append(termCols, t)
			}
		}
		if len(termRows) == 0 && len(termCols) == 0 {
			return k
		}
		for _, s := range termRows {
			for t := 0; t < mx.N; t++ {
				mx.Set(s, t, rag.None)
			}
		}
		for _, t := range termCols {
			for s := 0; s < mx.M; s++ {
				mx.Set(s, t, rag.None)
			}
		}
		k++
	}
}

// DetectCells is Algorithm 2 on the per-cell engine: reduce a working copy
// cell by cell and report deadlock iff any cell survives.
func DetectCells(mx *rag.Matrix) bool {
	work := mx.Clone()
	ReduceCells(work)
	for s := 0; s < work.M; s++ {
		for t := 0; t < work.N; t++ {
			if work.Get(s, t) != rag.None {
				return true
			}
		}
	}
	return false
}

// DetectGraphCells runs the per-cell engine on a Graph, constructing the
// state matrix one cell at a time through the per-cell graph API (never the
// packed word copies of MatrixInto) so the whole oracle path is independent
// of the bitset engine.
func DetectGraphCells(g *rag.Graph) bool {
	m, n := g.Size()
	mx := rag.NewMatrix(m, n)
	for s := 0; s < m; s++ {
		for t := 0; t < n; t++ {
			if g.Requesting(s, t) {
				mx.Set(s, t, rag.Request)
			}
		}
		if h := g.Holder(s); h != -1 {
			mx.Set(s, h, rag.Grant)
		}
	}
	return DetectCells(mx)
}
