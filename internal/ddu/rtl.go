package ddu

import (
	"fmt"

	"deltartos/internal/rag"
)

// RTLModel is a cell-accurate model of the generated DDU hardware: one
// 2-bit register per matrix cell, combinational weight cells per row and
// column, and the decide cell, evaluated with the same two-phase clocking
// the Verilog in generate.go describes (weights settle combinationally; the
// parallel clear latches on the clock edge).
//
// It is the Unit's independent oracle: the Unit runs pdda's word-parallel
// reduction kernel, the RTL model evaluates the emitted structure cell by
// cell, and both must produce identical deadlock decisions, iteration counts
// and step counts on every state (see TestRTLEquivalence).  It can also drive the
// VCD writer to produce a waveform of a detection run.
type RTLModel struct {
	cfg Config
	// Cell state: reqBit/grantBit per (row, col).
	reqBit   [][]bool
	grantBit [][]bool
	// Combinational nets, re-derived by Eval.
	RowTau []bool // τ_rs per row (Equation 4)
	RowPhi []bool // φ_rs per row (Equation 6)
	ColTau []bool // τ_ct per column
	ColPhi []bool // φ_ct per column
	TIter  bool   // Equation 5
	DIter  bool   // Equation 7 (valid when TIter is false)
}

// NewRTL builds a powered-up (all cells clear) RTL model.
func NewRTL(cfg Config) (*RTLModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &RTLModel{cfg: cfg}
	m.reqBit = make([][]bool, cfg.Resources)
	m.grantBit = make([][]bool, cfg.Resources)
	for s := range m.reqBit {
		m.reqBit[s] = make([]bool, cfg.Procs)
		m.grantBit[s] = make([]bool, cfg.Procs)
	}
	m.RowTau = make([]bool, cfg.Resources)
	m.RowPhi = make([]bool, cfg.Resources)
	m.ColTau = make([]bool, cfg.Procs)
	m.ColPhi = make([]bool, cfg.Procs)
	return m, nil
}

// Load programs the matrix cells from a state matrix.
func (m *RTLModel) Load(mx *rag.Matrix) error {
	if mx.M > m.cfg.Resources || mx.N > m.cfg.Procs {
		return fmt.Errorf("ddu: matrix %dx%d does not fit RTL model %dx%d",
			mx.M, mx.N, m.cfg.Resources, m.cfg.Procs)
	}
	for s := 0; s < m.cfg.Resources; s++ {
		for t := 0; t < m.cfg.Procs; t++ {
			m.reqBit[s][t] = false
			m.grantBit[s][t] = false
		}
	}
	for s := 0; s < mx.M; s++ {
		for t := 0; t < mx.N; t++ {
			//deltalint:partial None leaves both request and grant bits clear
			switch mx.Get(s, t) {
			case rag.Request:
				m.reqBit[s][t] = true
			case rag.Grant:
				m.grantBit[s][t] = true
			}
		}
	}
	m.Eval()
	return nil
}

// Eval settles the combinational nets (weight and decide cells) for the
// current cell state — the BWO / XOR / OR / AND network of Equations 3–7,
// computed exactly as each cell's gates would.
func (m *RTLModel) Eval() {
	m.TIter = false
	anyPhi := false
	for s := 0; s < m.cfg.Resources; s++ {
		bwoR, bwoG := false, false
		for t := 0; t < m.cfg.Procs; t++ {
			bwoR = bwoR || m.reqBit[s][t]
			bwoG = bwoG || m.grantBit[s][t]
		}
		m.RowTau[s] = bwoR != bwoG
		m.RowPhi[s] = bwoR && bwoG
		m.TIter = m.TIter || m.RowTau[s]
		anyPhi = anyPhi || m.RowPhi[s]
	}
	for t := 0; t < m.cfg.Procs; t++ {
		bwoR, bwoG := false, false
		for s := 0; s < m.cfg.Resources; s++ {
			bwoR = bwoR || m.reqBit[s][t]
			bwoG = bwoG || m.grantBit[s][t]
		}
		m.ColTau[t] = bwoR != bwoG
		m.ColPhi[t] = bwoR && bwoG
		m.TIter = m.TIter || m.ColTau[t]
		anyPhi = anyPhi || m.ColPhi[t]
	}
	m.DIter = anyPhi && !m.TIter
}

// ClockReduce applies one reduction clock edge: every cell whose row or
// column weight cell asserted τ clears (the parallel clear input of
// ddu_cell).  Returns whether any cell changed.  Eval must have been called
// (Load and ClockReduce leave the nets settled).
func (m *RTLModel) ClockReduce() bool {
	changed := false
	for s := 0; s < m.cfg.Resources; s++ {
		for t := 0; t < m.cfg.Procs; t++ {
			if (m.RowTau[s] || m.ColTau[t]) && (m.reqBit[s][t] || m.grantBit[s][t]) {
				m.reqBit[s][t] = false
				m.grantBit[s][t] = false
				changed = true
			}
		}
	}
	m.Eval()
	return changed
}

// Run iterates the reduction until T_iter deasserts and returns the
// decision: (deadlock, reduction iterations, hardware steps).
func (m *RTLModel) Run() (bool, int, int) {
	k := 0
	for m.TIter {
		m.ClockReduce()
		k++
	}
	return m.DIter, k, HardwareSteps(k)
}

// Cell returns the current content of cell (s, t).
func (m *RTLModel) Cell(s, t int) rag.Cell {
	switch {
	case m.reqBit[s][t]:
		return rag.Request
	case m.grantBit[s][t]:
		return rag.Grant
	}
	return rag.None
}

// SnapshotBits flattens the cell planes (row-major) for waveform dumping.
func (m *RTLModel) SnapshotBits() (req, grant []bool) {
	for s := 0; s < m.cfg.Resources; s++ {
		req = append(req, m.reqBit[s]...)
		grant = append(grant, m.grantBit[s]...)
	}
	return
}
