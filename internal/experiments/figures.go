package experiments

import (
	"fmt"
	"strings"

	"deltartos/internal/app"
	"deltartos/internal/dau"
	"deltartos/internal/ddu"
	"deltartos/internal/delta"
	"deltartos/internal/pdda"
	"deltartos/internal/rag"
	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

func init() {
	register(Experiment{ID: "fig7", Title: "Archi_gen top-file generation (Figure 7, Example 1)", Run: runFig7})
	register(Experiment{ID: "fig11", Title: "State matrix representation (Figure 11, Example 3)", Run: runFig11})
	register(Experiment{ID: "fig12", Title: "One terminal reduction step (Figure 12, Example 4)", Run: runFig12})
	register(Experiment{ID: "fig13", Title: "DDU architecture cells (Figure 13)", Run: runFig13})
	register(Experiment{ID: "fig14", Title: "DAU architecture modules (Figure 14)", Run: runFig14})
	register(Experiment{ID: "fig15", Title: "Events RAG of the detection scenario (Figure 15)", Run: runFig15})
	register(Experiment{ID: "fig16", Title: "Events RAG of the G-dl scenario (Figure 16)", Run: runFig16})
	register(Experiment{ID: "fig17", Title: "Events RAG of the R-dl scenario (Figure 17)", Run: runFig17})
	register(Experiment{ID: "fig20", Title: "Robot execution trace with IPCP (Figure 20)", Run: runFig20})
}

func runFig7(rc *RunCtx) (Result, error) {
	c := delta.BaseMPSoC()
	c.Name = "example1"
	c.Subsystems[0].PEs = 3
	c.Components = []delta.Component{delta.CompSoCLC}
	c.SoCLC.ShortLocks = 8
	c.SoCLC.LongLocks = 8
	c.SoCLC.PEs = 3
	g, err := delta.Generate(&c)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		ID:     "fig7",
		Title:  "Top file generation: LockCache description -> Top.v",
		Header: []string{"artifact", "value"},
		Rows: [][]string{
			{"top file lines", fmt.Sprint(countVerilogLines(g.Top))},
			{"SoCLC component lines", fmt.Sprint(countVerilogLines(g.Components[delta.CompSoCLC]))},
			{"RTOS header lines", fmt.Sprint(len(strings.Split(strings.TrimSpace(g.RTOSHeader), "\n")))},
			{"instantiated PEs", "3 (pe0, pe1, pe2 with distinct ids)"},
		},
	}
	return r, nil
}

func runFig11(rc *RunCtx) (Result, error) {
	// The worked 3-resource / 6-process example family of Section 4.2.1.
	mx := rag.NewMatrix(3, 6)
	mx.Set(0, 0, rag.Grant)
	mx.Set(0, 2, rag.Request)
	mx.Set(1, 1, rag.Request)
	mx.Set(1, 2, rag.Request)
	mx.Set(1, 5, rag.Request)
	mx.Set(2, 3, rag.Grant)
	req, gr := mx.Edges()
	r := Result{
		ID:     "fig11",
		Title:  "Matrix representation of the worked example state",
		Header: []string{"property", "value"},
		Rows: [][]string{
			{"request edges", fmt.Sprint(req)},
			{"grant edges", fmt.Sprint(gr)},
		},
		Notes: []string{"matrix:\n" + mx.String()},
	}
	return r, nil
}

func runFig12(rc *RunCtx) (Result, error) {
	mx := rag.NewMatrix(3, 6)
	mx.Set(0, 0, rag.Grant)
	mx.Set(0, 2, rag.Request)
	mx.Set(1, 1, rag.Request)
	mx.Set(1, 2, rag.Request)
	mx.Set(1, 5, rag.Request)
	mx.Set(2, 3, rag.Grant)
	k, _, trace := pdda.ReduceTraced(mx.Clone())
	if len(trace) == 0 {
		return Result{}, fmt.Errorf("no reduction steps")
	}
	first := trace[0]
	rows := make([]string, len(first.TerminalRows))
	for i, s := range first.TerminalRows {
		rows[i] = fmt.Sprintf("q%d", s+1)
	}
	cols := make([]string, len(first.TerminalCols))
	for i, t := range first.TerminalCols {
		cols[i] = fmt.Sprintf("p%d", t+1)
	}
	r := Result{
		ID:     "fig12",
		Title:  "Terminal reduction sequence on the worked example",
		Header: []string{"property", "value"},
		Rows: [][]string{
			{"terminal rows (step 1)", strings.Join(rows, " ")},
			{"terminal columns (step 1)", strings.Join(cols, " ")},
			{"total reduction steps k", fmt.Sprint(k)},
			{"complete reduction", fmt.Sprint(func() bool { m := mx.Clone(); pdda.Reduce(m); return m.Empty() }())},
		},
	}
	return r, nil
}

func runFig13(rc *RunCtx) (Result, error) {
	cfg := ddu.Config{Procs: 3, Resources: 3}
	nl := ddu.Netlist(cfg)
	f, err := ddu.Generate(cfg)
	if err != nil {
		return Result{}, err
	}
	r := Result{
		ID:     "fig13",
		Title:  "DDU architecture for 3 processes x 3 resources",
		Header: []string{"part", "value"},
		Rows: [][]string{
			{"matrix cells", "9 (3x3)"},
			{"weight cells", "6 (3 row + 3 column)"},
			{"decide cells", "1"},
			{"flip-flops in netlist", fmt.Sprint(nl.FlipFlops())},
			{"NAND2-equivalent area", fmt.Sprint(nl.AreaGates())},
			{"generated Verilog lines", fmt.Sprint(countVerilogLines(f))},
		},
	}
	return r, nil
}

func runFig14(rc *RunCtx) (Result, error) {
	sr, err := dau.Synthesize(dau.Config{Procs: 5, Resources: 5})
	if err != nil {
		return Result{}, err
	}
	r := Result{
		ID:     "fig14",
		Title:  "DAU architecture: DDU + command/status registers + DAA FSM",
		Header: []string{"part", "value"},
		Rows: [][]string{
			{"embedded DDU area", fmt.Sprint(sr.DDUArea)},
			{"command/status/FSM area", fmt.Sprint(sr.OtherArea)},
			{"total area", fmt.Sprint(sr.TotalArea)},
			{"worst-case avoidance steps", fmt.Sprint(sr.AvoidanceSteps)},
		},
	}
	return r, nil
}

func runFig15(rc *RunCtx) (Result, error) {
	// Replay the Table 4 events on a bare graph and show the final RAG that
	// the DDU sees at detection time.
	g := rag.NewGraph(4, 4)
	const vi, idct, wi = 0, 1, 3
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(g.SetGrant(idct, 0)) // e1
	must(g.SetGrant(vi, 0))
	g.AddRequest(idct, 2) // e2
	must(g.SetGrant(wi, 2))
	g.AddRequest(idct, 1) // e3
	g.AddRequest(wi, 1)
	must(g.Release(idct, 0)) // e4
	g.RemoveRequest(idct, 1)
	must(g.SetGrant(idct, 1)) // e5: grant to p2 closes the cycle
	dead, _ := pdda.DetectGraph(g)
	r := Result{
		ID:     "fig15",
		Title:  "Events RAG after e5 (deadlock state)",
		Header: []string{"property", "value"},
		Rows: [][]string{
			{"deadlock", fmt.Sprint(dead)},
			{"deadlocked processes", fmt.Sprint(fmtProcs(g.DeadlockedProcesses()))},
		},
		Notes: []string{"matrix:\n" + g.Matrix().String()},
	}
	if !dead {
		return r, fmt.Errorf("figure 15 state should deadlock")
	}
	return r, nil
}

func runFig16(rc *RunCtx) (Result, error) {
	unit, err := app.NewHardwareAvoidance(5, 5)
	if err != nil {
		return Result{}, err
	}
	hw := app.RunGrantDeadlockScenario(unit, sim.WithHooks(rc.SimHooks()))
	r := Result{
		ID:     "fig16",
		Title:  "G-dl scenario outcome with the DAU",
		Header: []string{"property", "value"},
		Rows: [][]string{
			{"grant deadlock avoided", fmt.Sprint(hw.GDlAvoided)},
			{"application completed", fmt.Sprint(hw.Completed)},
			{"application cycles", fmt.Sprint(hw.AppCycles)},
		},
	}
	return r, nil
}

func runFig17(rc *RunCtx) (Result, error) {
	unit, err := app.NewHardwareAvoidance(5, 5)
	if err != nil {
		return Result{}, err
	}
	hw := app.RunRequestDeadlockScenario(unit, sim.WithHooks(rc.SimHooks()))
	r := Result{
		ID:     "fig17",
		Title:  "R-dl scenario outcome with the DAU",
		Header: []string{"property", "value"},
		Rows: [][]string{
			{"request deadlock avoided", fmt.Sprint(hw.RDlAvoided)},
			{"application completed", fmt.Sprint(hw.Completed)},
			{"application cycles", fmt.Sprint(hw.AppCycles)},
		},
	}
	return r, nil
}

func runFig20(rc *RunCtx) (Result, error) {
	r, _, err := RunFig20(rc)
	return r, err
}

// RunFig20 runs the robot scenario once and returns both the rendered
// Figure 20 excerpt and the full scheduler trace, so callers that also want
// a waveform dump (deltasim -exp fig20 -vcd) do not re-run the scenario.
func RunFig20(rc *RunCtx) (Result, []trace.Event, error) {
	res := app.RunRobotScenario(app.NewRTOS6Locks, true, sim.WithHooks(rc.SimHooks()))
	r := Result{
		ID:     "fig20",
		Title:  "Execution trace of task1/task2/task3 under IPCP (first events)",
		Header: []string{"time", "PE", "task", "event"},
	}
	count := 0
	sawPreempt := false
	for _, ev := range res.Trace {
		if !strings.HasPrefix(ev.Proc, "task") {
			continue
		}
		what := strings.TrimPrefix(ev.Name, "sched.")
		if count < 30 {
			r.Rows = append(r.Rows, []string{
				fmt.Sprint(ev.Cycle), fmt.Sprint(ev.PE + 1), ev.Proc, what,
			})
			count++
		}
		if what == "preempt" {
			sawPreempt = true
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("full trace: %d events; preemptions observed: %v", len(res.Trace), sawPreempt),
		"with IPCP, task3's CS raises it to the ceiling, so task2's arrival does not preempt mid-CS")
	return r, res.Trace, nil
}

func fmtProcs(ps []int) string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = fmt.Sprintf("p%d", p+1)
	}
	return strings.Join(out, " ")
}
