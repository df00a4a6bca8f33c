// Command deltasim reproduces the paper's evaluation: it runs the registered
// experiment for every table and figure of Section 5 and prints the measured
// rows next to the published values.
//
// Usage:
//
//	deltasim -list
//	deltasim -exp table45
//	deltasim -all -parallel 8
//	deltasim -exp fig20 -vcd robot.vcd
//	deltasim -exp table45 -trace table45.json -metrics table45.metrics.json
//	deltasim -chaos -chaos-seeds 32 -parallel 8
//	deltasim -fuzz -fuzz-seeds 12500 -fuzz-report BENCH_fuzz.json -parallel 8
//	deltasim -fuzz-ipc -fuzz-seeds 2000 -fuzz-report BENCH_ipc_fuzz.json -parallel 8
//	deltasim -all -parallel 1 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -parallel shards independent runs — the seeds of a -chaos campaign and
// the experiments of -all — across a worker pool (default: all cores).
// Results are merged in input order, so output, -metrics JSON and -trace
// exports are byte-identical to a -parallel 1 run.
//
// -trace writes a Chrome trace-event file (load it in chrome://tracing or
// Perfetto) with one process per simulation run and one thread per PE, plus
// dedicated tracks for the shared bus and for device/unit contexts.
// -metrics writes machine-readable per-experiment summaries: the rendered
// table rows plus the cycle-attributed counters the tracing layer collected.
// Both flags are valid for any -exp or -all selection.
//
// -cpuprofile and -memprofile write runtime/pprof CPU and heap profiles of
// any run (read them with `go tool pprof`).
package main

import (
	"flag"
	"fmt"
	"os"

	"deltartos/internal/campaign"
	"deltartos/internal/experiments"
	"deltartos/internal/fuzz"
	"deltartos/internal/profile"
	"deltartos/internal/rtos"
	"deltartos/internal/trace"
)

func main() { os.Exit(deltasim(os.Args[1:])) }

// deltasim is the command body.  It returns the exit status instead of
// exiting, so the profiles are written on every path out.
func deltasim(args []string) (code int) {
	fs := flag.NewFlagSet("deltasim", flag.ExitOnError)
	list := fs.Bool("list", false, "list available experiments")
	exp := fs.String("exp", "", "run one experiment by id (e.g. table1, fig15)")
	all := fs.Bool("all", false, "run every experiment")
	parallel := fs.Int("parallel", campaign.DefaultWorkers(),
		"worker count for seed sweeps and -all (1 = sequential; output is identical either way)")
	vcdPath := fs.String("vcd", "", "with -exp fig20: also write the robot schedule waveform to this file")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON file covering every simulation run")
	metricsPath := fs.String("metrics", "", "write per-experiment JSON summaries (table rows + trace counters)")
	chaos := fs.Bool("chaos", false, "run a fault-injection campaign over the chaos workload")
	chaosSeeds := fs.Int("chaos-seeds", 5, "with -chaos: number of seeds to sweep")
	chaosSeed := fs.Uint64("chaos-seed", 1, "with -chaos: first seed (run i uses seed+i)")
	chaosFaults := fs.Int("chaos-faults", 6, "with -chaos: faults injected per run")
	chaosSystem := fs.String("chaos-system", "rtos5", "with -chaos: lock system under test (rtos5 or rtos6)")
	ipcChaos := fs.Bool("ipc-chaos", false, "run a message-fault campaign over the producer/consumer ring")
	ipcChaosSeeds := fs.Int("ipc-chaos-seeds", 8, "with -ipc-chaos: number of seeds to sweep")
	ipcChaosSeed := fs.Uint64("ipc-chaos-seed", 1, "with -ipc-chaos: first seed (run i uses seed+i)")
	ipcChaosFaults := fs.Int("ipc-chaos-faults", 6, "with -ipc-chaos: message faults injected per run")
	ipcChaosVariant := fs.String("ipc-chaos-variant", "timeout", "with -ipc-chaos: ring variant under test (blocking or timeout)")
	fuzzRun := fs.Bool("fuzz", false, "run the generative scenario sweep (deadlock probability vs contention)")
	fuzzSeeds := fs.Int("fuzz-seeds", 12500, "with -fuzz: seeds per parameter point (8 points, so the default sweeps 1e5 seeds)")
	fuzzBaseSeed := fs.Uint64("fuzz-base-seed", 1, "with -fuzz: first seed of the sweep")
	fuzzReport := fs.String("fuzz-report", "", "with -fuzz: write the machine-readable sweep report (BENCH_fuzz.json) to this file")
	fuzzIPC := fs.Bool("fuzz-ipc", false, "run the generative IPC-topology sweep (wedge probability vs message loss); reuses -fuzz-seeds, -fuzz-base-seed and -fuzz-report")
	prof := profile.Register(fs)
	fs.Parse(args)
	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "deltasim: %v\n", err)
		return 2
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "deltasim: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *vcdPath != "" && *exp != "fig20" {
		fmt.Fprintln(os.Stderr, "deltasim: -vcd is only valid together with -exp fig20")
		return 2
	}

	var session *trace.Session
	if *tracePath != "" || *metricsPath != "" {
		session = trace.NewSession()
	}

	var summaries []experiments.Summary
	collect := *metricsPath != ""

	switch {
	case *fuzzIPC:
		if err := runIPCFuzz(*fuzzSeeds, *fuzzBaseSeed, *fuzzReport, *parallel); err != nil {
			fmt.Fprintln(os.Stderr, "deltasim: fuzz-ipc:", err)
			return 1
		}
	case *fuzzRun:
		if err := runFuzz(*fuzzSeeds, *fuzzBaseSeed, *fuzzReport, *parallel); err != nil {
			fmt.Fprintln(os.Stderr, "deltasim: fuzz:", err)
			return 1
		}
	case *ipcChaos:
		cfg := experiments.DefaultIPCChaosConfig()
		cfg.Seeds = *ipcChaosSeeds
		cfg.BaseSeed = *ipcChaosSeed
		cfg.Faults = *ipcChaosFaults
		cfg.Variant = *ipcChaosVariant
		rc := &experiments.RunCtx{Parallel: *parallel, Session: session, Label: "ipc-chaos"}
		if err := runIPCChaos(cfg, rc, collect, &summaries); err != nil {
			fmt.Fprintln(os.Stderr, "deltasim: ipc-chaos:", err)
			return 1
		}
	case *chaos:
		cfg := experiments.DefaultChaosConfig()
		cfg.Seeds = *chaosSeeds
		cfg.BaseSeed = *chaosSeed
		cfg.Faults = *chaosFaults
		cfg.System = *chaosSystem
		rc := &experiments.RunCtx{Parallel: *parallel, Session: session, Label: "chaos"}
		if err := runChaos(cfg, rc, collect, &summaries); err != nil {
			fmt.Fprintln(os.Stderr, "deltasim: chaos:", err)
			return 1
		}
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-9s %s\n", e.ID, e.Title)
		}
	case *exp != "":
		e, ok := experiments.Find(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "deltasim: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		rc := &experiments.RunCtx{Parallel: *parallel, Session: session, Label: e.ID}
		var err error
		if *vcdPath != "" {
			err = runFig20WithVCD(*vcdPath, rc, collect, &summaries)
		} else {
			err = runOne(e, rc, collect, &summaries)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "deltasim: %s: %v\n", e.ID, err)
			return 1
		}
	case *all:
		failed := 0
		for _, out := range experiments.RunMatrix(experiments.All(), *parallel, session, collect) {
			if out.Err != nil {
				fmt.Fprintf(os.Stderr, "deltasim: %s: %v\n", out.ID, out.Err)
				failed++
			} else {
				fmt.Print(out.Rendered)
				if collect {
					summaries = append(summaries, out.Summary)
				}
			}
			fmt.Println()
		}
		if failed > 0 {
			return 1
		}
	default:
		fs.Usage()
		return 2
	}

	if *tracePath != "" {
		if err := writeTrace(*tracePath, session); err != nil {
			fmt.Fprintln(os.Stderr, "deltasim:", err)
			return 1
		}
	}
	if *metricsPath != "" {
		if err := writeMetrics(*metricsPath, summaries); err != nil {
			fmt.Fprintln(os.Stderr, "deltasim:", err)
			return 1
		}
	}
	return 0
}

// runOne executes an experiment, prints its table, and (when requested)
// captures the counters its simulations produced.
func runOne(e experiments.Experiment, rc *experiments.RunCtx, collect bool, summaries *[]experiments.Summary) error {
	res, err := e.Run(rc)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Render(res))
	if collect {
		*summaries = append(*summaries, experiments.NewSummary(res, rc.Counters()))
	}
	return nil
}

// runChaos runs a configured fault-injection campaign.  Its summary merges
// the per-run recovery counters with whatever the tracing layer collected.
func runChaos(cfg experiments.ChaosConfig, rc *experiments.RunCtx, collect bool, summaries *[]experiments.Summary) error {
	res, runs, err := experiments.RunChaosCampaign(cfg, rc)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Render(res))
	if collect {
		counters := experiments.ChaosCounters(runs)
		for k, v := range rc.Counters() {
			counters[k] += v
		}
		*summaries = append(*summaries, experiments.NewSummary(res, counters))
	}
	// An unexplained leak means recovery failed its reclaim obligation —
	// that is a bug in the stack, not a fault outcome, so the campaign
	// itself fails (this is what `make chaos` gates on in CI).
	for _, run := range runs {
		if run.UnexplainedLeaks > 0 {
			return fmt.Errorf("seed %d: %d allocation block(s) recovery failed to reclaim", run.Seed, run.UnexplainedLeaks)
		}
	}
	return nil
}

// runIPCChaos runs a configured message-fault campaign.  A wedged run on
// the timeout-hardened variant means the retry machinery failed its
// liveness obligation — that is a bug, not a fault outcome, so the campaign
// itself fails (this is what `make ipc-chaos` gates on in CI).
func runIPCChaos(cfg experiments.IPCChaosConfig, rc *experiments.RunCtx, collect bool, summaries *[]experiments.Summary) error {
	res, runs, err := experiments.RunIPCChaosCampaign(cfg, rc)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Render(res))
	if collect {
		counters := experiments.IPCChaosCounters(runs)
		for k, v := range rc.Counters() {
			counters[k] += v
		}
		*summaries = append(*summaries, experiments.NewSummary(res, counters))
	}
	if cfg.Variant == "timeout" {
		for _, run := range runs {
			if run.Outcome == "wedged" {
				return fmt.Errorf("seed %d: timeout variant wedged (%s)", run.Seed, run.Diagnosis)
			}
		}
	}
	return nil
}

// runFuzz sweeps the generative scenario engine across the default
// contention curve and prints one line per parameter point.  The report is
// a pure function of (seeds, base seed) — worker count never changes a
// byte — so -fuzz-report output can be diffed across -parallel settings.
func runFuzz(seedsPerPoint int, baseSeed uint64, reportPath string, parallel int) error {
	sw := fuzz.DefaultSweep(seedsPerPoint, baseSeed)
	rc := &experiments.RunCtx{Parallel: parallel}
	rep, err := experiments.RunFuzzSweep(sw, rc)
	if err != nil {
		return err
	}
	fmt.Printf("fuzz sweep: %d points x %d seeds, base seed %d\n",
		len(rep.Points), rep.Config.SeedsPerPoint, rep.Config.BaseSeed)
	fmt.Printf("%-6s %10s %12s %15s %12s %8s\n",
		"point", "contention", "P(deadlock)", "P(static cyc)", "det.latency", "wedged")
	for _, p := range rep.Points {
		fmt.Printf("%-6s %10.2f %12.4f %15.4f %12.1f %8d\n",
			p.Label, p.Contention, p.DeadlockProbability, p.StaticCycleProbability,
			p.DetectionLatencyMean, p.Wedged)
	}
	if reportPath != "" {
		out, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d parameter points\n", reportPath, len(rep.Points))
	}
	return nil
}

// runIPCFuzz sweeps random message topologies across the default drop-rate
// curve and prints one line per parameter point.  Every seed re-checks that
// the statically flagged task set contains the runtime quiescence core; a
// single violation fails the sweep with a witness.
func runIPCFuzz(seedsPerPoint int, baseSeed uint64, reportPath string, parallel int) error {
	sw := fuzz.DefaultIPCSweep(seedsPerPoint, baseSeed)
	rc := &experiments.RunCtx{Parallel: parallel}
	rep, err := experiments.RunIPCFuzzSweep(sw, rc)
	if err != nil {
		return err
	}
	fmt.Printf("ipc fuzz sweep: %d points x %d seeds, base seed %d\n",
		len(rep.Points), rep.Config.SeedsPerPoint, rep.Config.BaseSeed)
	fmt.Printf("%-10s %10s %15s %10s %13s %9s %10s\n",
		"point", "P(wedge)", "P(static flag)", "mean core", "mean flagged", "dropped", "completed")
	for _, p := range rep.Points {
		fmt.Printf("%-10s %10.4f %15.4f %10.2f %13.2f %9d %10d\n",
			p.Label, p.WedgeProbability, p.StaticFlagProbability,
			p.MeanCoreTasks, p.MeanFlaggedTasks, p.DroppedSends, p.Completed)
	}
	if reportPath != "" {
		out, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d parameter points\n", reportPath, len(rep.Points))
	}
	return nil
}

// runFig20WithVCD runs the robot scenario ONCE, prints the Figure 20 table,
// and dumps the schedule waveform from the same run.
func runFig20WithVCD(path string, rc *experiments.RunCtx, collect bool, summaries *[]experiments.Summary) error {
	res, tr, err := experiments.RunFig20(rc)
	if err != nil {
		return err
	}
	fmt.Print(experiments.Render(res))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rtos.WriteScheduleVCD(f, tr, 4); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d trace events\n", path, len(tr))
	if collect {
		*summaries = append(*summaries, experiments.NewSummary(res, rc.Counters()))
	}
	return nil
}

func writeTrace(path string, session *trace.Session) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := session.WriteChromeTrace(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d events from %d runs\n", path, session.Events(), session.Len())
	return nil
}

func writeMetrics(path string, summaries []experiments.Summary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := experiments.WriteSummaries(f, summaries); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d experiment summaries\n", path, len(summaries))
	return nil
}
