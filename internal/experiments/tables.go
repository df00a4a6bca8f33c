package experiments

import (
	"fmt"

	"deltartos/internal/app"
	"deltartos/internal/dau"
	"deltartos/internal/ddu"
	"deltartos/internal/delta"
	"deltartos/internal/socdmmu"
	"deltartos/internal/verilog"
)

func init() {
	register(Experiment{ID: "table1", Title: "DDU synthesis results (Table 1)", Run: runTable1})
	register(Experiment{ID: "table2", Title: "DAU synthesis results (Table 2)", Run: runTable2})
	register(Experiment{ID: "table3", Title: "Configured RTOS/MPSoCs (Table 3)", Run: runTable3})
	register(Experiment{ID: "table45", Title: "Deadlock detection: DDU vs PDDA in software (Tables 4-5, Fig. 15)", Run: runTable45})
	register(Experiment{ID: "table67", Title: "Grant-deadlock avoidance: DAU vs DAA in software (Tables 6-7, Fig. 16)", Run: runTable67})
	register(Experiment{ID: "table89", Title: "Request-deadlock avoidance: DAU vs DAA in software (Tables 8-9, Fig. 17)", Run: runTable89})
	register(Experiment{ID: "table10", Title: "Robot application: RTOS5 vs RTOS6/SoCLC (Table 10, Figs. 18-20)", Run: runTable10})
	register(Experiment{ID: "table11", Title: "SPLASH-2 kernels with glibc malloc/free (Table 11)", Run: runTable11})
	register(Experiment{ID: "table12", Title: "SPLASH-2 kernels with the SoCDMMU (Table 12)", Run: runTable12})
}

// paperTable1 holds the published synthesis rows.
var paperTable1 = []struct {
	procs, res         int
	lines, area, steps int
}{
	{2, 3, 49, 186, 2},
	{5, 5, 73, 364, 6},
	{7, 7, 102, 455, 10},
	{10, 10, 162, 622, 16},
	{50, 50, 2682, 14142, 96},
}

func runTable1(rc *RunCtx) (Result, error) {
	r := Result{
		ID:     "table1",
		Title:  "DDU synthesis: lines of Verilog, NAND2 area, worst-case iterations",
		Header: []string{"size (PxR)", "lines", "paper", "area", "paper", "steps", "paper"},
	}
	for _, p := range paperTable1 {
		sr, err := ddu.Synthesize(ddu.Config{Procs: p.procs, Resources: p.res})
		if err != nil {
			return r, err
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%dx%d", p.procs, p.res),
			fmt.Sprint(sr.VerilogLines), fmt.Sprint(p.lines),
			fmt.Sprint(sr.AreaGates), fmt.Sprint(p.area),
			fmt.Sprint(sr.WorstSteps), fmt.Sprint(p.steps),
		})
	}
	r.Notes = append(r.Notes,
		"worst-case steps measured by driving the adversarial chain RAG through the hardware step counter")
	return r, nil
}

func runTable2(rc *RunCtx) (Result, error) {
	sr, err := dau.Synthesize(dau.Config{Procs: 5, Resources: 5})
	if err != nil {
		return Result{}, err
	}
	const mpsocGates = 4*1_700_000 + 33_500_000 + 44_000 // 4x MPC755 + 16MB + misc (paper: 40.344M)
	share := 100 * float64(sr.TotalArea) / float64(mpsocGates)
	r := Result{
		ID:     "table2",
		Title:  "DAU synthesis (5 processes x 5 resources)",
		Header: []string{"module", "lines", "paper", "area", "paper", "steps", "paper"},
		Rows: [][]string{
			{"DDU 5x5", fmt.Sprint(sr.DDULines), "203", fmt.Sprint(sr.DDUArea), "364", fmt.Sprint(sr.DDUSteps), "6"},
			{"others (Fig. 14)", fmt.Sprint(sr.OtherLines), "344", fmt.Sprint(sr.OtherArea), "1472", "8", "8"},
			{"total", fmt.Sprint(sr.TotalLines), "547", fmt.Sprint(sr.TotalArea), "1836", fmt.Sprint(sr.AvoidanceSteps), "6x5+8=38"},
		},
		Notes: []string{
			fmt.Sprintf("DAU share of the 40.3M-gate MPSoC: %.4f%% (paper: ~.005%%)", share),
		},
	}
	return r, nil
}

func runTable3(rc *RunCtx) (Result, error) {
	r := Result{
		ID:     "table3",
		Title:  "Configured RTOS/MPSoCs",
		Header: []string{"system", "configured components on top of essential pure software RTOS"},
	}
	for _, name := range delta.PresetNames() {
		c, err := delta.Preset(name)
		if err != nil {
			return r, err
		}
		r.Rows = append(r.Rows, []string{name, delta.Describe(&c)})
	}
	return r, nil
}

func runTable45(rc *RunCtx) (Result, error) {
	hooks := app.WithSimHooks(rc.SimHooks())
	unit, err := app.NewHardwareDetector(5, 5)
	if err != nil {
		return Result{}, err
	}
	hw := app.RunDetectionScenario(unit, hooks)
	sw := app.RunDetectionScenario(app.NewSoftwareDetector(5, 5), hooks)
	if !hw.DeadlockFound || !sw.DeadlockFound {
		return Result{}, fmt.Errorf("detection scenario did not reach deadlock")
	}
	sp := speedup(float64(sw.AppCycles), float64(hw.AppCycles))
	r := Result{
		ID:     "table45",
		Title:  "Deadlock detection time and application execution time",
		Header: []string{"method", "alg run time", "paper", "app run time", "paper", "invocations", "paper"},
		Rows: [][]string{
			{"DDU (hardware)", f1(hw.AvgDetectCycles), "1.3", fmt.Sprint(hw.AppCycles), "27714", fmt.Sprint(hw.Invocations), "10"},
			{"PDDA in software", f1(sw.AvgDetectCycles), "1830", fmt.Sprint(sw.AppCycles), "40523", fmt.Sprint(sw.Invocations), "10"},
		},
		Notes: []string{
			fmt.Sprintf("algorithm speed-up: %.0fX (paper: 1408X)", sw.AvgDetectCycles/hw.AvgDetectCycles),
			fmt.Sprintf("application speed-up: %s (paper: 46%%)", pct(sp)),
			"time unit: bus clock cycles; app run time is start to deadlock detection (the app cannot finish)",
		},
	}
	return r, nil
}

// avoidanceBackends builds the pair Tables 7 and 9 compare, both sized for
// the 5-process/5-resource system: the DAU and DAA in software.
func avoidanceBackends() (*app.HardwareAvoidance, *app.SoftwareAvoidance, error) {
	hw, err := app.NewHardwareAvoidance(5, 5)
	if err != nil {
		return nil, nil, err
	}
	sw, err := app.NewSoftwareAvoidance(5, 5)
	return hw, sw, err
}

func runTable67(rc *RunCtx) (Result, error) {
	hooks := app.WithSimHooks(rc.SimHooks())
	unit, soft, err := avoidanceBackends()
	if err != nil {
		return Result{}, err
	}
	hw := app.RunGrantDeadlockScenario(unit, hooks)
	sw := app.RunGrantDeadlockScenario(soft, hooks)
	if !hw.GDlAvoided || !sw.GDlAvoided {
		return Result{}, fmt.Errorf("grant deadlock not avoided: hw=%v sw=%v", hw.GDlAvoided, sw.GDlAvoided)
	}
	r := Result{
		ID:     "table67",
		Title:  "Execution time comparison (G-dl)",
		Header: []string{"method", "alg run time", "paper", "app run time", "paper", "invocations", "paper"},
		Rows: [][]string{
			{"DAU (hardware)", f2(hw.AvgAlgCycles), "7", fmt.Sprint(hw.AppCycles), "34791", fmt.Sprint(hw.Invocations), "12"},
			{"DAA in software", f2(sw.AvgAlgCycles), "2188", fmt.Sprint(sw.AppCycles), "47704", fmt.Sprint(sw.Invocations), "12"},
		},
		Notes: []string{
			fmt.Sprintf("algorithm speed-up: %.0fX (paper: 312X)", sw.AvgAlgCycles/hw.AvgAlgCycles),
			fmt.Sprintf("application speed-up: %s (paper: 37%%)", pct(speedup(float64(sw.AppCycles), float64(hw.AppCycles)))),
			"both runs complete the application with the grant deadlock avoided (IDCT granted to p3 past p2)",
		},
	}
	return r, nil
}

func runTable89(rc *RunCtx) (Result, error) {
	hooks := app.WithSimHooks(rc.SimHooks())
	unit, soft, err := avoidanceBackends()
	if err != nil {
		return Result{}, err
	}
	hw := app.RunRequestDeadlockScenario(unit, hooks)
	sw := app.RunRequestDeadlockScenario(soft, hooks)
	if !hw.RDlAvoided || !sw.RDlAvoided {
		return Result{}, fmt.Errorf("request deadlock not avoided: hw=%v sw=%v", hw.RDlAvoided, sw.RDlAvoided)
	}
	r := Result{
		ID:     "table89",
		Title:  "Execution time comparison (R-dl)",
		Header: []string{"method", "alg run time", "paper", "app run time", "paper", "invocations", "paper"},
		Rows: [][]string{
			{"DAU (hardware)", f2(hw.AvgAlgCycles), "7.14", fmt.Sprint(hw.AppCycles), "38508", fmt.Sprint(hw.Invocations), "14"},
			{"DAA in software", f2(sw.AvgAlgCycles), "2102", fmt.Sprint(sw.AppCycles), "55627", fmt.Sprint(sw.Invocations), "14"},
		},
		Notes: []string{
			fmt.Sprintf("algorithm speed-up: %.0fX (paper: 294X)", sw.AvgAlgCycles/hw.AvgAlgCycles),
			fmt.Sprintf("application speed-up: %s (paper: 44%%)", pct(speedup(float64(sw.AppCycles), float64(hw.AppCycles)))),
			"R-dl at t6 resolved by asking p2 (lower priority than p1) to give up the IDCT",
		},
	}
	return r, nil
}

func runTable10(rc *RunCtx) (Result, error) {
	hooks := app.WithSimHooks(rc.SimHooks())
	sw := app.RunRobotScenario(app.NewRTOS5Locks, false, hooks)
	hw := app.RunRobotScenario(app.NewRTOS6Locks, false, hooks)
	r := Result{
		ID:     "table10",
		Title:  "Simulation results of the robot application",
		Header: []string{"metric", "RTOS5", "paper", "RTOS6", "paper", "speedup", "paper"},
		Rows: [][]string{
			{"lock latency", f0(sw.LockLatency), "570", f0(hw.LockLatency), "318",
				fmt.Sprintf("%.2fX", sw.LockLatency/hw.LockLatency), "1.79X"},
			{"lock delay", f0(sw.LockDelay), "6701", f0(hw.LockDelay), "3834",
				fmt.Sprintf("%.2fX", sw.LockDelay/hw.LockDelay), "1.75X"},
			{"overall execution", fmt.Sprint(sw.OverallCycles), "112170", fmt.Sprint(hw.OverallCycles), "78226",
				fmt.Sprintf("%.2fX", float64(sw.OverallCycles)/float64(hw.OverallCycles)), "1.43X"},
		},
		Notes: []string{
			fmt.Sprintf("hard deadlines met: RTOS5=%v RTOS6=%v", sw.DeadlinesMet, hw.DeadlinesMet),
		},
	}
	return r, nil
}

var paperTable11 = map[string][3]float64{ // total, mgmt, pct
	"LU":    {318307, 31512, 9.90},
	"FFT":   {375988, 101998, 27.13},
	"RADIX": {694333, 141491, 20.38},
}

func runTable11(rc *RunCtx) (Result, error) {
	r := Result{
		ID:     "table11",
		Title:  "SPLASH-2 kernels using glibc malloc()/free()",
		Header: []string{"benchmark", "total", "paper", "mem mgmt", "paper", "% mgmt", "paper"},
	}
	for _, run := range []func(func() socdmmu.Allocator, ...app.Option) app.SplashResult{app.RunLU, app.RunFFT, app.RunRadix} {
		res := run(app.NewGlibcAllocator, app.WithSimHooks(rc.SimHooks()))
		if !res.Verified {
			return r, fmt.Errorf("%s: kernel output verification failed", res.Benchmark)
		}
		p := paperTable11[res.Benchmark]
		r.Rows = append(r.Rows, []string{
			res.Benchmark,
			fmt.Sprint(res.TotalCycles), f0(p[0]),
			fmt.Sprint(res.MgmtCycles), f0(p[1]),
			pct(res.MgmtPercent), pct(p[2]),
		})
	}
	return r, nil
}

var paperTable12 = map[string][4]float64{ // total, mgmt, mgmt reduction %, exe reduction %
	"LU":    {288271, 1476, 95.31, 9.44},
	"FFT":   {276941, 2951, 97.10, 26.34},
	"RADIX": {558347, 5505, 96.10, 19.59},
}

func runTable12(rc *RunCtx) (Result, error) {
	r := Result{
		ID:     "table12",
		Title:  "SPLASH-2 kernels using the SoCDMMU",
		Header: []string{"benchmark", "total", "paper", "mgmt", "paper", "mgmt reduction", "paper", "exe reduction", "paper"},
	}
	for _, run := range []func(func() socdmmu.Allocator, ...app.Option) app.SplashResult{app.RunLU, app.RunFFT, app.RunRadix} {
		hooks := app.WithSimHooks(rc.SimHooks())
		swRes := run(app.NewGlibcAllocator, hooks)
		hwRes := run(app.NewSoCDMMUAllocator, hooks)
		if !hwRes.Verified {
			return r, fmt.Errorf("%s: kernel output verification failed", hwRes.Benchmark)
		}
		p := paperTable12[hwRes.Benchmark]
		mgmtRed := 100 * (1 - float64(hwRes.MgmtCycles)/float64(swRes.MgmtCycles))
		exeRed := 100 * (1 - float64(hwRes.TotalCycles)/float64(swRes.TotalCycles))
		r.Rows = append(r.Rows, []string{
			hwRes.Benchmark,
			fmt.Sprint(hwRes.TotalCycles), f0(p[0]),
			fmt.Sprint(hwRes.MgmtCycles), f0(p[1]),
			pct(mgmtRed), pct(p[2]),
			pct(exeRed), pct(p[3]),
		})
	}
	return r, nil
}

// countVerilogLines is a small helper shared by the figure experiments.
func countVerilogLines(f *verilog.File) int { return verilog.CountLines(f.Emit()) }
