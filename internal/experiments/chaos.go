package experiments

// The chaos campaign: sweep N seeds of randomized fault plans over the
// chaos scenario (a robot-like workload with SoCDMMU allocations and an
// IDCT ISR), with watchdog-driven recovery attached, and classify every run
// as survived / recovered / degraded / wedged.  Everything is deterministic:
// the same config and seed set produce byte-identical reports.

import (
	"fmt"
	"strings"

	"deltartos/internal/app"
	"deltartos/internal/fault"
	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/soclc"
)

func init() {
	register(Experiment{
		ID:    "chaos",
		Title: "Fault-injection campaign: watchdog recovery over the chaos workload",
		Run: func(rc *RunCtx) (Result, error) {
			res, _, err := RunChaosCampaign(DefaultChaosConfig(), rc)
			return res, err
		},
	})
}

// ChaosConfig parameterizes one campaign.
type ChaosConfig struct {
	System        string       // "rtos5" (software locks) or "rtos6" (SoCLC)
	Seeds         int          // number of seeds swept
	BaseSeed      uint64       // first seed; run i uses BaseSeed+i
	Faults        int          // faults per plan
	Kinds         []fault.Kind // fault mix (nil = every kind)
	Horizon       sim.Cycles   // fault arm-time horizon
	Budget        sim.Cycles   // per-task watchdog budget
	MaxRecoveries int          // recovery cap before a run reports wedged
	Fuse          sim.Cycles   // hard simulation limit for wedged runs
}

// DefaultChaosConfig returns the stock campaign: 5 seeds, 6 faults per run
// over the software lock system.  The clean chaos run finishes near 38.5k
// cycles, so the horizon covers the active window, the budget is roughly 2x
// nominal, and the fuse is far beyond any recoverable schedule.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		System:        "rtos5",
		Seeds:         5,
		BaseSeed:      1,
		Faults:        6,
		Horizon:       40000,
		Budget:        80000,
		MaxRecoveries: 10,
		Fuse:          1_000_000,
	}
}

// AllFaultKinds is the default campaign fault mix.
var AllFaultKinds = []fault.Kind{
	fault.LostRelease, fault.TaskCrash, fault.TaskHang, fault.ComputeOverrun,
	fault.SpuriousIRQ, fault.BusStall, fault.LeakedBlock,
}

// ChaosRun is the report of one seeded run.
type ChaosRun struct {
	Seed      uint64     `json:"seed"`
	Outcome   string     `json:"outcome"` // survived | recovered | degraded | wedged
	Diagnosis string     `json:"diagnosis,omitempty"`
	Cycles    sim.Cycles `json:"cycles"` // last task activity (finish or kill)

	Fired     int `json:"fired"`
	Pending   int `json:"pending"`
	Tolerated int `json:"tolerated"`

	Recoveries      int     `json:"recoveries"`
	Restarted       int     `json:"restarted"`
	Abandoned       int     `json:"abandoned"`
	ReclaimedLocks  int     `json:"reclaimed_locks"`
	ReclaimedShorts int     `json:"reclaimed_shorts"`
	ReclaimedBlocks int     `json:"reclaimed_blocks"`
	MeanLatency     float64 `json:"mean_recovery_latency"`

	PlannedLeaks     int `json:"planned_leaks"`     // residual blocks attributed to the plan
	UnexplainedLeaks int `json:"unexplained_leaks"` // residual blocks recovery should have reclaimed
	AllocFailures    int `json:"alloc_failures"`
}

func chaosLockBuilder(system string) (func(k *rtos.Kernel) soclc.Manager, error) {
	switch system {
	case "rtos5":
		return app.NewRTOS5Locks, nil
	case "rtos6":
		return app.NewRTOS6Locks, nil
	}
	return nil, fmt.Errorf("chaos: unknown lock system %q (want rtos5 or rtos6)", system)
}

// RunChaosSeed executes one seeded fault-injection run and classifies it.
// hooks (nil = tracing off) are applied to the simulation the run builds.
func RunChaosSeed(cfg ChaosConfig, seed uint64, hooks *sim.Hooks) (ChaosRun, error) {
	mk, err := chaosLockBuilder(cfg.System)
	if err != nil {
		return ChaosRun{}, err
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = AllFaultKinds
	}

	w := app.BuildChaosScenario(mk, sim.WithHooks(hooks))
	defer w.S.Close()
	plan := fault.NewPlan(seed).Randomize(cfg.Faults, kinds, fault.Profile{
		Tasks:   app.ChaosTaskNames,
		Devices: []string{"IDCT"},
		Horizon: cfg.Horizon,
	})
	plan.Attach(w.K, w.Locks, w.Mem, w.Devices)
	rec := fault.NewRecovery(w.K, plan, w.Locks, w.Mem,
		fault.RestartOnce, cfg.Budget, cfg.MaxRecoveries)
	rec.WatchAll()

	end := w.S.RunUntil(cfg.Fuse)
	cycles, stuck := taskCensus(w.K, end)

	run := ChaosRun{
		Seed:            seed,
		Cycles:          cycles,
		Fired:           len(plan.Fired()),
		Pending:         plan.Pending(),
		Tolerated:       plan.Tolerated,
		Recoveries:      rec.Recoveries,
		Restarted:       rec.Restarted,
		Abandoned:       rec.Abandoned,
		ReclaimedLocks:  rec.ReclaimedLocks,
		ReclaimedShorts: rec.ReclaimedShorts,
		ReclaimedBlocks: rec.ReclaimedBlocks,
		MeanLatency:     rec.MeanLatency(),
		AllocFailures:   w.AllocFailures,
	}

	// Leak audit: residual live blocks are fine only when the plan leaked
	// them (a dropped G_dealloc whose owner was never a recovery victim);
	// anything else is a block recovery failed to reclaim.
	for _, addr := range w.Mem.Live() {
		switch {
		case w.Mem.Leaked(addr):
			run.PlannedLeaks++
		case chaosTaskLive(w.K, w.Mem.Tag(addr)):
			// A stuck task holding its frame buffer: accounted for by the
			// wedge diagnosis, not as a reclaim failure.
		default:
			run.UnexplainedLeaks++
		}
	}

	switch {
	case rec.GaveUp:
		run.Outcome = "wedged"
		run.Diagnosis = fmt.Sprintf("recovery cap (%d) exhausted", cfg.MaxRecoveries)
		if len(stuck) > 0 {
			run.Diagnosis += "; stuck: " + strings.Join(stuck, " ")
		}
	case len(stuck) > 0:
		run.Outcome = "wedged"
		run.Diagnosis = "non-terminal tasks at fuse: " + strings.Join(stuck, " ")
	case run.UnexplainedLeaks > 0:
		run.Outcome = "wedged"
		run.Diagnosis = fmt.Sprintf("%d residual blocks not plan-attributed", run.UnexplainedLeaks)
	case rec.Abandoned > 0:
		run.Outcome = "degraded"
		run.Diagnosis = fmt.Sprintf("%d task(s) abandoned", rec.Abandoned)
	case rec.Recoveries > 0:
		run.Outcome = "recovered"
	default:
		run.Outcome = "survived"
	}
	return run, nil
}

func chaosTaskLive(k *rtos.Kernel, name string) bool {
	for _, t := range k.Tasks() {
		if t.Name == name {
			st := t.State()
			return st != rtos.StateDone && st != rtos.StateKilled
		}
	}
	return false
}

// RunChaosCampaign sweeps cfg.Seeds seeds across rc.Workers() cores and
// renders the campaign table.  Each seed is an independent job with its own
// simulation and trace shard (see runSeeded for the ordering and error-path
// guarantees).  The returned runs back the machine-readable -chaos-report
// output, and the Result's notes carry the survived/recovered/degraded/
// wedged totals.
func RunChaosCampaign(cfg ChaosConfig, rc *RunCtx) (Result, []ChaosRun, error) {
	if cfg.Seeds <= 0 {
		return Result{}, nil, fmt.Errorf("chaos: need at least one seed")
	}
	runs, err := runSeeded(rc, cfg.Seeds, cfg.BaseSeed, func(seed uint64, hooks *sim.Hooks) (ChaosRun, error) {
		return RunChaosSeed(cfg, seed, hooks)
	})
	if err != nil {
		return Result{}, nil, err
	}

	r := Result{
		ID:    "chaos",
		Title: fmt.Sprintf("Chaos campaign: %d seeds x %d faults over %s", cfg.Seeds, cfg.Faults, cfg.System),
		Header: []string{"seed", "outcome", "cycles", "fired", "recov", "restart",
			"abandon", "locks", "blocks", "latency", "diagnosis"},
	}
	counts := map[string]int{}
	totalRecov, totalFired := 0, 0
	var latSum float64
	latRuns := 0
	for _, run := range runs {
		counts[run.Outcome]++
		totalRecov += run.Recoveries
		totalFired += run.Fired
		if run.Recoveries > 0 {
			latSum += run.MeanLatency
			latRuns++
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(run.Seed), run.Outcome, fmt.Sprint(run.Cycles),
			fmt.Sprint(run.Fired), fmt.Sprint(run.Recoveries), fmt.Sprint(run.Restarted),
			fmt.Sprint(run.Abandoned), fmt.Sprint(run.ReclaimedLocks),
			fmt.Sprint(run.ReclaimedBlocks), f0(run.MeanLatency), run.Diagnosis,
		})
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"outcomes: %d survived, %d recovered, %d degraded, %d wedged (of %d)",
		counts["survived"], counts["recovered"], counts["degraded"], counts["wedged"], cfg.Seeds))
	r.Notes = append(r.Notes, fmt.Sprintf("faults fired: %d; recovery actions: %d", totalFired, totalRecov))
	if latRuns > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"mean fault-to-reclaimed latency: %.0f cycles over %d recovering runs", latSum/float64(latRuns), latRuns))
	}
	return r, runs, nil
}

// ChaosCounters folds a campaign's runs into the counters registry shape
// (merged into the -metrics summaries next to the tracing-layer counters).
func ChaosCounters(runs []ChaosRun) map[string]uint64 {
	c := map[string]uint64{}
	for _, run := range runs {
		c["chaos.runs"]++
		c["chaos.outcome."+run.Outcome]++
		c["chaos.faults_fired"] += uint64(run.Fired)
		c["chaos.faults_pending"] += uint64(run.Pending)
		c["chaos.misuse_tolerated"] += uint64(run.Tolerated)
		c["chaos.recoveries"] += uint64(run.Recoveries)
		c["chaos.restarted"] += uint64(run.Restarted)
		c["chaos.abandoned"] += uint64(run.Abandoned)
		c["chaos.reclaimed_locks"] += uint64(run.ReclaimedLocks)
		c["chaos.reclaimed_shorts"] += uint64(run.ReclaimedShorts)
		c["chaos.reclaimed_blocks"] += uint64(run.ReclaimedBlocks)
		c["chaos.planned_leaks"] += uint64(run.PlannedLeaks)
		c["chaos.unexplained_leaks"] += uint64(run.UnexplainedLeaks)
		c["chaos.alloc_failures"] += uint64(run.AllocFailures)
	}
	return c
}
