// Package ddu models the Deadlock Detection hardware Unit of Lee & Mooney
// (Sections 4.2.2–4.2.4): a matrix of 2-bit cells with row/column weight
// cells and a decide cell that evaluates the terminal reduction sequence in
// parallel, one reduction iteration per pair of hardware steps.
//
// Four views of the unit are provided:
//
//   - Unit: a functional, step-counted model used inside the MPSoC
//     simulation.  Its cells are a rag.Graph that the command port
//     (SetRequest, SetGrant, ClearCell) writes as the PEs program the
//     real unit over the bus.  The DDU is PDDA in hardware (Section 4.2),
//     so the Unit runs pdda's one reduction kernel on that graph
//     (pdda.DetectGraphInto) and converts the iteration count k into
//     clock steps with HardwareSteps.
//   - NewRTL: a cell-accurate model of the generated hardware — pdda's
//     per-cell engine, which evaluates Equations 3–7 register by register
//     on its own cell array and shares no storage or code with the
//     word-parallel kernel; it is the Unit's independent oracle
//     (TestRTLEquivalence) and drives the VCD waveform dump.
//   - Generate: a Verilog generator emitting the structural description the
//     δ framework's GUI tool would produce (one instance line per matrix
//     cell, as in the original generator, so the lines-of-Verilog metric is
//     comparable with Table 1).
//   - Synthesize: a gate-level area estimate in NAND2 equivalents.
package ddu

import (
	"fmt"

	"deltartos/internal/gates"
	"deltartos/internal/pdda"
	"deltartos/internal/rag"
	"deltartos/internal/verilog"
)

// Config sizes a DDU for n processes and m resources.
type Config struct {
	Procs     int // n
	Resources int // m
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Procs <= 0 || c.Resources <= 0 {
		return fmt.Errorf("ddu: invalid size %d processes x %d resources", c.Procs, c.Resources)
	}
	return nil
}

// Result is the outcome of one hardware detection run.
type Result struct {
	Deadlock   bool
	Iterations int // terminal reduction iterations k
	Steps      int // hardware clock steps consumed (see HardwareSteps)
}

// Unit is the functional DDU model.  Its cells are a single-unit RAG: the
// surrounding system (RTOS or DAU) writes them through the command
// interface, mirroring how PEs program the real unit over the bus, and a
// detection scans them where they are, with no copy or reload.
type Unit struct {
	g  *rag.Graph   // the cells
	sc pdda.Scratch // detection working matrix

	// cumulative instrumentation
	Detections int
	TotalSteps int
}

// New allocates a DDU.
func New(cfg Config) (*Unit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return On(rag.NewGraph(cfg.Resources, cfg.Procs)), nil
}

// On returns a DDU whose cells are g itself: the unit's commands write g
// and its detections scan g.  A system that already tracks its RAG as a
// graph (the DAU's avoider) embeds a DDU this way without a second cell
// store.
func On(g *rag.Graph) *Unit { return &Unit{g: g} }

// Config returns the unit's configuration.
func (u *Unit) Config() Config {
	m, n := u.g.Size()
	return Config{Procs: n, Resources: m}
}

// Matrix returns a copy of the unit's cells as a state matrix.
func (u *Unit) Matrix() *rag.Matrix { return u.g.Matrix() }

// SetRequest asserts the request bit for (resource s, process t).  As in
// the generated ddu_cell, set_r clears the cell's grant bit: a process
// that held s and now requests it no longer holds it.
func (u *Unit) SetRequest(s, t int) {
	if u.g.Holder(s) == t {
		_ = u.g.Release(s, t) // t holds s: cannot fail
	}
	u.g.AddRequest(s, t)
}

// SetGrant asserts the grant bit for (resource s, process t), clearing the
// cell's request bit as set_g does.  Resources are single-unit (Section
// 3.2.2), so a grant of a resource another process holds is a protocol
// error the cells cannot represent: it panics.
func (u *Unit) SetGrant(s, t int) {
	if err := u.g.SetGrant(s, t); err != nil {
		panic("ddu: set_g: " + err.Error())
	}
}

// ClearCell clears both bits of cell (s,t).
func (u *Unit) ClearCell(s, t int) {
	if u.g.Holder(s) == t {
		_ = u.g.Release(s, t) // t holds s: cannot fail
	}
	u.g.RemoveRequest(s, t)
}

// Detect runs the hardware algorithm on the unit's cells and returns the
// decision.  The cells are not consumed: the real DDU also keeps its
// cells, re-evaluating weights combinationally.  The reduction runs in the
// unit's scratch, so a warm unit does not allocate.
func (u *Unit) Detect() Result {
	dead, st := pdda.DetectGraphInto(&u.sc, u.g)
	return u.count(dead, st)
}

// DetectGraph runs the hardware algorithm on the state matrix of g, a
// graph of the unit's size, without writing the unit's cells: the result
// and the instrumentation are those of a unit whose cells hold g.
func (u *Unit) DetectGraph(g *rag.Graph) (Result, error) {
	um, un := u.g.Size()
	if m, n := g.Size(); m != um || n != un {
		return Result{}, fmt.Errorf("ddu: graph %dx%d is not the unit's %dx%d", m, n, um, un)
	}
	dead, st := pdda.DetectGraphInto(&u.sc, g)
	return u.count(dead, st), nil
}

// count turns a detection's verdict and stats into a Result and charges it
// to the unit's instrumentation.
func (u *Unit) count(dead bool, st pdda.Stats) Result {
	res := Result{
		Deadlock:   dead,
		Iterations: st.Iterations,
		Steps:      HardwareSteps(st.Iterations),
	}
	u.Detections++
	u.TotalSteps += res.Steps
	return res
}

// HardwareSteps converts reduction iterations into DDU clock steps.  The unit
// pipelines weight evaluation with the clear phase: after the initial load,
// each iteration beyond the second costs two steps (weight settle + clear
// latch), while the first two iterations overlap with the load and the final
// termination check overlaps the decide cell.  This gives 2k−4 steps for k≥3
// with a floor of 2, the counting that reproduces the "worst case #
// iterations" column of Table 1 (k = min(m,n) on the adversarial chain RAG).
func HardwareSteps(k int) int {
	s := 2*k - 4
	if s < 2 {
		return 2
	}
	return s
}

// WorstCaseSteps returns the unit's worst-case step count, measured by
// driving the adversarial chain RAG (the configuration that maximizes the
// number of reduction iterations for the unit's size).
func WorstCaseSteps(cfg Config) int {
	g := rag.Chain(cfg.Resources, cfg.Procs)
	return On(g).Detect().Steps
}

// SynthResult mirrors one row of Table 1.
type SynthResult struct {
	Procs        int
	Resources    int
	VerilogLines int
	AreaGates    int
	WorstSteps   int
}

// Synthesize generates the unit's Verilog and structural netlist and returns
// the synthesis summary.
func Synthesize(cfg Config) (SynthResult, error) {
	if err := cfg.Validate(); err != nil {
		return SynthResult{}, err
	}
	f, err := Generate(cfg)
	if err != nil {
		return SynthResult{}, err
	}
	nl := Netlist(cfg)
	return SynthResult{
		Procs:        cfg.Procs,
		Resources:    cfg.Resources,
		VerilogLines: verilog.CountLines(f.Emit()),
		AreaGates:    nl.AreaGates(),
		WorstSteps:   WorstCaseSteps(cfg),
	}, nil
}

// Netlist builds the structural gate netlist of the DDU:
//
//   - one matrix cell per (s,t): two set/clear SR latches (request and grant
//     bits, 2 NAND2 each) plus clear gating;
//   - one weight cell per row and per column: two wide-OR reduction trees
//     (request plane, grant plane), an XOR for τ and an AND for φ
//     (Equations 3–6);
//   - a decide cell: wide-OR over all τ (T_iter) and all φ (D_iter);
//   - a small control block: step counter, iteration FSM and bus interface
//     registers, which dominates the area of small configurations.
func Netlist(cfg Config) *gates.Netlist {
	m, n := cfg.Resources, cfg.Procs

	var cell gates.Netlist
	// Two cross-coupled set/clear NAND latch pairs; the parallel-clear input
	// folds into the reset leg of each latch, so the cell is 4 NAND2.
	cell.Add(gates.NAND2, 4)

	var rowWeight gates.Netlist
	rowWeight.AddWiredOR(n) // request plane BWO (dynamic wired-OR)
	rowWeight.AddWiredOR(n) // grant plane BWO
	rowWeight.Add(gates.XOR2, 1)
	rowWeight.Add(gates.AND2, 1)

	var colWeight gates.Netlist
	colWeight.AddWiredOR(m)
	colWeight.AddWiredOR(m)
	colWeight.Add(gates.XOR2, 1)
	colWeight.Add(gates.AND2, 1)

	var decide gates.Netlist
	decide.AddWiredOR(m + n) // T_iter over all τ
	decide.AddWiredOR(m + n) // D_iter over all φ
	decide.Add(gates.DFFR, 2)

	var control gates.Netlist
	control.Add(gates.DFF, 6)    // command register
	control.Add(gates.DFF, 4)    // status register
	control.Add(gates.DFFR, 6)   // step counter
	control.Add(gates.NAND2, 18) // FSM next-state logic
	control.Add(gates.INV, 8)
	control.AddDecoder(2)      // command decode
	control.Add(gates.AND2, 6) // handshake

	var top gates.Netlist
	top.AddSub("cell", &cell, m*n)
	top.AddSub("row_weight", &rowWeight, m)
	top.AddSub("col_weight", &colWeight, n)
	top.AddSub("decide", &decide, 1)
	top.AddSub("control", &control, 1)
	return &top
}
