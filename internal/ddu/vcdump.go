package ddu

import (
	"io"

	"deltartos/internal/pdda"
	"deltartos/internal/rag"
	"deltartos/internal/vcd"
)

// NewRTL returns the cell-accurate model of the generated hardware for cfg:
// pdda's per-cell engine, one 2-bit register per matrix cell with the weight
// and decide nets of Equations 3–7, all cells clear.
func NewRTL(cfg Config) (*pdda.Cells, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return pdda.NewCells(cfg.Resources, cfg.Procs), nil
}

// DumpDetectionVCD runs a detection on the RTL cell model and writes a
// waveform of the run — the request/grant planes per resource row, the
// row/column weight nets and the decide-cell outputs, one timestep per
// reduction clock.  The output opens in any VCD viewer.
func DumpDetectionVCD(cfg Config, mx *rag.Matrix, w io.Writer) (Result, error) {
	m, err := NewRTL(cfg)
	if err != nil {
		return Result{}, err
	}
	if err := m.Load(mx); err != nil {
		return Result{}, err
	}

	vw := vcd.NewWriter(w, "10ns")
	vw.Scope("ddu")
	rowReq := make([]vcd.VarID, cfg.Resources)
	rowGrant := make([]vcd.VarID, cfg.Resources)
	vw.Scope("matrix")
	for s := 0; s < cfg.Resources; s++ {
		rowReq[s] = vw.Wire(rowName("req_q", s), cfg.Procs)
		rowGrant[s] = vw.Wire(rowName("grant_q", s), cfg.Procs)
	}
	vw.Upscope()
	vw.Scope("weights")
	rowTau := vw.Wire("row_tau", cfg.Resources)
	rowPhi := vw.Wire("row_phi", cfg.Resources)
	colTau := vw.Wire("col_tau", cfg.Procs)
	colPhi := vw.Wire("col_phi", cfg.Procs)
	vw.Upscope()
	tIter := vw.Wire("t_iter", 1)
	dIter := vw.Wire("deadlock", 1)
	vw.Begin()

	dump := func(t uint64) {
		vw.Time(t)
		for s := 0; s < cfg.Resources; s++ {
			var rq, gr uint64
			for c := 0; c < cfg.Procs && c < 64; c++ {
				//deltalint:partial None contributes no bit to either vector
				switch m.Cell(s, c) {
				case rag.Request:
					rq |= 1 << uint(c)
				case rag.Grant:
					gr |= 1 << uint(c)
				}
			}
			vw.SetVec(rowReq[s], rq)
			vw.SetVec(rowGrant[s], gr)
		}
		vw.SetBits(rowTau, m.RowTau)
		vw.SetBits(rowPhi, m.RowPhi)
		vw.SetBits(colTau, m.ColTau)
		vw.SetBits(colPhi, m.ColPhi)
		vw.SetBit(tIter, m.TIter)
		vw.SetBit(dIter, m.DIter)
	}

	k := 0
	dump(0)
	for m.TIter {
		m.Clock()
		k++
		dump(uint64(k))
	}
	// Hold the final values one extra step so viewers show the verdict.
	vw.Time(uint64(k + 1))
	if err := vw.Err(); err != nil {
		return Result{}, err
	}
	return Result{Deadlock: m.DIter, Iterations: k, Steps: HardwareSteps(k)}, nil
}

func rowName(prefix string, s int) string {
	digits := ""
	v := s + 1
	for v > 0 {
		digits = string(rune('0'+v%10)) + digits
		v /= 10
	}
	return prefix + digits
}
