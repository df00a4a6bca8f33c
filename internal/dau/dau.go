// Package dau models the Deadlock Avoidance hardware Unit of Lee & Mooney
// (Section 4.3.2, Figure 14): an embedded DDU, command registers fed by the
// PEs, status registers read back by the PEs, and an FSM implementing the
// deadlock avoidance algorithm (Algorithm 3).
//
// The unit executes one command (a request or a release of a resource) at a
// time.  Every command's cost is counted in hardware steps: a fixed FSM
// overhead plus the steps of each embedded-DDU detection run, which is how
// the worst case of Table 2 (6·n + 8 for a 5-process unit) arises.
package dau

import (
	"fmt"

	"deltartos/internal/daa"
	"deltartos/internal/ddu"
	"deltartos/internal/gates"
	"deltartos/internal/rag"
	"deltartos/internal/verilog"
)

// Config sizes a DAU.
type Config struct {
	Procs     int
	Resources int
	// LivelockThreshold forwards to the avoidance algorithm (0 = default).
	LivelockThreshold int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Procs <= 0 || c.Resources <= 0 {
		return fmt.Errorf("dau: invalid size %d procs x %d resources", c.Procs, c.Resources)
	}
	return nil
}

// Op is a command opcode.
type Op int

// Command opcodes written by PEs into the command registers.
const (
	OpRequest Op = iota
	OpRelease
)

func (o Op) String() string {
	if o == OpRequest {
		return "request"
	}
	return "release"
}

// Command is one entry of the DAU command register file.
type Command struct {
	Op      Op
	Process int
	Res     int
}

// Status mirrors the DAU status register fields listed in Section 4.3.2:
// done, busy, successful, pending, give-up, which-process, which-resource,
// livelock, G-dl and R-dl.
type Status struct {
	Done       bool
	Busy       bool
	Successful bool // request granted / release completed
	Pending    bool // request parked
	GiveUp     bool // the addressed process must give up its resources
	Livelock   bool
	GDl        bool
	RDl        bool
	// WhichProcess/WhichResource identify the process asked to act and the
	// resource involved (-1 when not applicable).
	WhichProcess  int
	WhichResource int
	// GrantedTo is the process a released resource was handed to (-1 none).
	GrantedTo int
}

// FSM step costs.  The DAA FSM of Figure 14 spends fsmBaseSteps on command
// fetch/decode, matrix update and status writeback, and up to fsmWorstSteps
// when the full decision path (priority compare, pending queue update,
// give-up signalling) is exercised.  Worst case per command is therefore
// fsmWorstSteps + procs × (DDU worst steps), the 6×5+8 = 38 of Table 2.
const (
	fsmBaseSteps  = 4
	fsmWorstSteps = 8
)

// Unit is the functional DAU model.
type Unit struct {
	cfg Config
	av  *daa.Avoider
	dd  *ddu.Unit

	stepsThisCmd int
	// Cumulative instrumentation.
	Commands   int
	TotalSteps int
}

// New builds a DAU.
func New(cfg Config) (*Unit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	av, err := daa.New(daa.Config{
		Procs:             cfg.Procs,
		Resources:         cfg.Resources,
		LivelockThreshold: cfg.LivelockThreshold,
	})
	if err != nil {
		return nil, err
	}
	dd, err := ddu.New(ddu.Config{Procs: cfg.Procs, Resources: cfg.Resources})
	if err != nil {
		return nil, err
	}
	u := &Unit{cfg: cfg, av: av, dd: dd}
	av.SetDetector(u.hardwareDetect)
	return u, nil
}

// hardwareDetect runs the embedded DDU on the candidate graph, charging its
// steps to the current command.  The graph maps straight into the DDU's
// scratch, row by occupied row, so a warm unit decides a command without
// allocating and without a full-width reload.
func (u *Unit) hardwareDetect(g *rag.Graph) bool {
	res, err := u.dd.DetectGraph(g)
	if err != nil {
		panic("dau: internal ddu size mismatch: " + err.Error())
	}
	u.stepsThisCmd += res.Steps
	return res.Deadlock
}

// Config returns the unit's configuration.
func (u *Unit) Config() Config { return u.cfg }

// SetPriority programs a process priority into the DAU priority table.
func (u *Unit) SetPriority(p int, prio daa.Priority) { u.av.SetPriority(p, prio) }

// Avoider exposes the embedded algorithm state (read-only use).
func (u *Unit) Avoider() *daa.Avoider { return u.av }

// Holder returns the tracked owner of resource q, or -1.
func (u *Unit) Holder(q int) int { return u.av.Holder(q) }

// Exec executes one command and returns the status register contents plus
// the hardware steps the command consumed.
func (u *Unit) Exec(cmd Command) (Status, int, error) {
	u.Commands++
	u.stepsThisCmd = fsmBaseSteps
	st := Status{Done: true, WhichProcess: -1, WhichResource: -1, GrantedTo: -1}

	switch cmd.Op {
	case OpRequest:
		res, err := u.av.Request(cmd.Process, cmd.Res)
		if err != nil {
			return Status{}, 0, err
		}
		st.RDl = res.RDl
		st.Livelock = res.Livelock
		switch res.Decision {
		case daa.Granted:
			st.Successful = true
		case daa.Pending:
			st.Pending = true
		case daa.PendingOwnerAsked:
			st.Pending = true
			st.WhichProcess = res.AskedProcess
			st.WhichResource = cmd.Res
			u.stepsThisCmd += fsmWorstSteps - fsmBaseSteps // full decision path
		case daa.GiveUpRequested:
			st.GiveUp = true
			st.WhichProcess = res.AskedProcess
			st.WhichResource = cmd.Res
			u.stepsThisCmd += fsmWorstSteps - fsmBaseSteps
		}
	case OpRelease:
		res, err := u.av.Release(cmd.Process, cmd.Res)
		if err != nil {
			return Status{}, 0, err
		}
		st.Successful = true
		st.GDl = res.GDl
		st.GrantedTo = res.GrantedTo
		if res.GrantedTo != -1 {
			st.WhichProcess = res.GrantedTo
			st.WhichResource = cmd.Res
		}
	default:
		return Status{}, 0, fmt.Errorf("dau: unknown opcode %d", cmd.Op)
	}

	steps := u.stepsThisCmd
	u.TotalSteps += steps
	return st, steps, nil
}

// Request is shorthand for Exec of an OpRequest command.
func (u *Unit) Request(p, q int) (Status, int, error) {
	return u.Exec(Command{Op: OpRequest, Process: p, Res: q})
}

// Release is shorthand for Exec of an OpRelease command.
func (u *Unit) Release(p, q int) (Status, int, error) {
	return u.Exec(Command{Op: OpRelease, Process: p, Res: q})
}

// WorstCaseSteps returns the analytic worst case of Table 2: a release whose
// grant scan runs the embedded DDU once per process, plus full FSM overhead.
func WorstCaseSteps(cfg Config) int {
	dduWorst := ddu.WorstCaseSteps(ddu.Config{Procs: cfg.Procs, Resources: cfg.Resources})
	return cfg.Procs*dduWorst + fsmWorstSteps
}

// SynthResult mirrors Table 2.
type SynthResult struct {
	DDULines       int
	DDUArea        int
	DDUSteps       int // worst-case detection steps
	OtherLines     int
	OtherArea      int
	AvoidanceSteps int // worst-case avoidance steps
	TotalLines     int
	TotalArea      int
}

// Synthesize generates the DAU Verilog and netlist and summarizes them in the
// layout of Table 2.
func Synthesize(cfg Config) (SynthResult, error) {
	if err := cfg.Validate(); err != nil {
		return SynthResult{}, err
	}
	dduCfg := ddu.Config{Procs: cfg.Procs, Resources: cfg.Resources}
	dduSyn, err := ddu.Synthesize(dduCfg)
	if err != nil {
		return SynthResult{}, err
	}
	f, err := Generate(cfg)
	if err != nil {
		return SynthResult{}, err
	}
	totalLines := verilog.CountLines(f.Emit())
	otherNl := othersNetlist(cfg)
	res := SynthResult{
		DDULines:       dduSyn.VerilogLines,
		DDUArea:        dduSyn.AreaGates,
		DDUSteps:       dduSyn.WorstSteps,
		OtherLines:     totalLines - dduSyn.VerilogLines,
		OtherArea:      otherNl.AreaGates(),
		AvoidanceSteps: WorstCaseSteps(cfg),
		TotalLines:     totalLines,
	}
	res.TotalArea = res.DDUArea + res.OtherArea
	return res, nil
}

// othersNetlist models everything in Figure 14 except the DDU: the command
// register file (one per PE), the status registers, the priority table, the
// priority comparator, the waiter scan logic and the DAA FSM.
func othersNetlist(cfg Config) *gates.Netlist {
	n, m := cfg.Procs, cfg.Resources
	prioBits := 4
	idBits := verilog.BitsFor(n)
	resBits := verilog.BitsFor(m)

	var cmdReg gates.Netlist
	cmdReg.AddRegister(2 + idBits + resBits) // op + proc + res fields

	var statusReg gates.Netlist
	statusReg.AddRegister(10 + idBits + resBits) // flags + which-process/resource

	var prioTable gates.Netlist
	prioTable.AddRegister(prioBits)

	var fsm gates.Netlist
	fsm.Add(gates.DFFR, 5) // state register
	fsm.Add(gates.NAND2, 60)
	fsm.Add(gates.NAND3, 20)
	fsm.Add(gates.INV, 30)
	fsm.AddMagnitudeComparator(prioBits) // requester vs owner priority
	fsm.AddPriorityEncoder(n)            // waiter scan
	fsm.AddMux(n, prioBits)              // priority table read port
	fsm.AddDecoder(idBits)               // matrix row/col select
	fsm.AddDecoder(resBits)
	fsm.AddRegister(idBits) // livelock counter victim id
	fsm.Add(gates.DFFR, 4)  // livelock counters
	fsm.AddComparator(2)    // threshold compare

	var top gates.Netlist
	top.AddSub("cmd_reg", &cmdReg, n)
	top.AddSub("status_reg", &statusReg, n)
	top.AddSub("prio_table", &prioTable, n)
	top.AddSub("daa_fsm", &fsm, 1)
	return &top
}
