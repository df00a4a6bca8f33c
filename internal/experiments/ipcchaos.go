package experiments

// The IPC chaos campaign: sweep N seeds of randomized message-fault plans
// (drops, delays, duplicates, jammed queues) over the producer/consumer
// ring, and classify every run as survived / recovered / degraded / wedged.
// Two scenario variants make the robustness claim measurable: the blocking
// ring wedges once enough tokens are lost, and the latched IPC deadlock
// core names exactly which tasks are irreducibly stuck; the timeout/retry
// variant bounds every operation and re-mints lost tokens, so the same
// fault mix costs throughput instead of liveness.

import (
	"fmt"
	"strings"

	"deltartos/internal/app"
	"deltartos/internal/fault"
	"deltartos/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "ipc-chaos",
		Title: "IPC fault-injection campaign: message faults over the producer/consumer ring",
		Run: func(rc *RunCtx) (Result, error) {
			res, _, err := RunIPCChaosCampaign(DefaultIPCChaosConfig(), rc)
			return res, err
		},
	})
}

// IPCFaultKinds is the message-fault mix (the IPC campaign default).
var IPCFaultKinds = []fault.Kind{
	fault.MsgDrop, fault.MsgDelay, fault.MsgDup, fault.QueueStuckFull,
}

// IPCChaosConfig parameterizes one IPC campaign.
type IPCChaosConfig struct {
	Variant  string       // "blocking" (fragile ring) or "timeout" (retry-hardened)
	Seeds    int          // number of seeds swept
	BaseSeed uint64       // first seed; run i uses BaseSeed+i
	Faults   int          // faults per plan
	Kinds    []fault.Kind // fault mix (nil = IPCFaultKinds)
	Horizon  sim.Cycles   // fault arm-time horizon
	Fuse     sim.Cycles   // hard simulation limit for wedged runs
}

// DefaultIPCChaosConfig returns the stock IPC campaign: 8 seeds of 6
// message faults over the timeout-hardened ring.  The clean ring finishes
// near 8k cycles, so the horizon covers the active window; retries and
// backoffs can stretch a faulted run well past nominal, so the fuse is
// generous.
func DefaultIPCChaosConfig() IPCChaosConfig {
	return IPCChaosConfig{
		Variant:  "timeout",
		Seeds:    8,
		BaseSeed: 1,
		Faults:   6,
		Horizon:  12000,
		Fuse:     1_000_000,
	}
}

// IPCChaosRun is the report of one seeded run.
type IPCChaosRun struct {
	Seed      uint64     `json:"seed"`
	Variant   string     `json:"variant"`
	Outcome   string     `json:"outcome"` // survived | recovered | degraded | wedged
	Diagnosis string     `json:"diagnosis,omitempty"`
	Cycles    sim.Cycles `json:"cycles"`

	Fired   int `json:"fired"`
	Pending int `json:"pending"`

	Completed    int `json:"completed"`     // ring tasks that finished their rounds
	Regenerated  int `json:"regenerated"`   // tokens re-minted by the retry path
	SendFailures int `json:"send_failures"` // bounded sends that exhausted retries

	// Core is the latched IPC deadlock core of a wedged run: the tasks
	// irreducibly stuck on message passing when the simulation drained
	// (the runtime half of the static ipc-pass cross-check).
	Core []string `json:"core,omitempty"`
}

func ringBuilder(variant string) (func(opts ...app.Option) *app.RingWorld, error) {
	switch variant {
	case "blocking":
		return app.BuildRingScenario, nil
	case "timeout":
		return app.BuildRingTimeoutScenario, nil
	}
	return nil, fmt.Errorf("unknown variant %q (want blocking or timeout)", variant)
}

// RunIPCChaosSeed executes one seeded message-fault run and classifies it.
func RunIPCChaosSeed(cfg IPCChaosConfig, seed uint64, hooks *sim.Hooks) (IPCChaosRun, error) {
	build, err := ringBuilder(cfg.Variant)
	if err != nil {
		return IPCChaosRun{}, err
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = IPCFaultKinds
	}

	w := build(app.WithSimHooks(hooks))
	defer w.S.Close()
	plan := fault.NewPlan(seed).Randomize(cfg.Faults, kinds, fault.Profile{
		Tasks:     app.RingTaskNames,
		Endpoints: app.RingEndpointNames,
		Horizon:   cfg.Horizon,
	})
	plan.Attach(w.K, nil, nil, nil)

	end := w.S.RunUntil(cfg.Fuse)
	cycles, stuck := taskCensus(w.K, end)

	run := IPCChaosRun{
		Seed:         seed,
		Cycles:       cycles,
		Variant:      cfg.Variant,
		Fired:        len(plan.Fired()),
		Pending:      plan.Pending(),
		Completed:    w.Completed,
		Regenerated:  w.Regenerated,
		SendFailures: w.SendFailures,
	}

	switch {
	case len(stuck) > 0:
		run.Outcome = "wedged"
		run.Diagnosis = "non-terminal tasks at drain: " + strings.Join(stuck, " ")
		run.Core = w.K.IPCDeadlockCore()
	case run.SendFailures > 0:
		run.Outcome = "degraded"
		run.Diagnosis = fmt.Sprintf("%d send(s) exhausted retries (token lost downstream)", run.SendFailures)
	case run.Regenerated > 0:
		run.Outcome = "recovered"
		run.Diagnosis = fmt.Sprintf("%d token(s) re-minted", run.Regenerated)
	default:
		run.Outcome = "survived"
	}
	return run, nil
}

// RunIPCChaosCampaign sweeps cfg.Seeds seeds across rc.Workers() cores and
// renders the campaign table.  It runs on runSeeded, as RunChaosCampaign
// does, with the same seed-order and error-path guarantees.
func RunIPCChaosCampaign(cfg IPCChaosConfig, rc *RunCtx) (Result, []IPCChaosRun, error) {
	if cfg.Seeds <= 0 {
		return Result{}, nil, fmt.Errorf("ipc-chaos: need at least one seed")
	}
	if _, err := ringBuilder(cfg.Variant); err != nil {
		return Result{}, nil, err
	}
	runs, err := runSeeded(rc, cfg.Seeds, cfg.BaseSeed, func(seed uint64, hooks *sim.Hooks) (IPCChaosRun, error) {
		return RunIPCChaosSeed(cfg, seed, hooks)
	})
	if err != nil {
		return Result{}, nil, err
	}

	r := Result{
		ID: "ipc-chaos",
		Title: fmt.Sprintf("IPC chaos campaign: %d seeds x %d message faults over the %s ring",
			cfg.Seeds, cfg.Faults, cfg.Variant),
		Header: []string{"seed", "outcome", "cycles", "fired", "regen", "sendfail", "core", "diagnosis"},
	}
	counts := map[string]int{}
	totalFired, totalRegen := 0, 0
	for _, run := range runs {
		counts[run.Outcome]++
		totalFired += run.Fired
		totalRegen += run.Regenerated
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(run.Seed), run.Outcome, fmt.Sprint(run.Cycles),
			fmt.Sprint(run.Fired), fmt.Sprint(run.Regenerated), fmt.Sprint(run.SendFailures),
			strings.Join(run.Core, " "), run.Diagnosis,
		})
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"outcomes: %d survived, %d recovered, %d degraded, %d wedged (of %d)",
		counts["survived"], counts["recovered"], counts["degraded"], counts["wedged"], cfg.Seeds))
	r.Notes = append(r.Notes, fmt.Sprintf("faults fired: %d; tokens re-minted: %d", totalFired, totalRegen))
	return r, runs, nil
}

// IPCChaosCounters folds a campaign's runs into the counters registry shape
// (merged into the -metrics summaries next to the tracing-layer counters).
func IPCChaosCounters(runs []IPCChaosRun) map[string]uint64 {
	c := map[string]uint64{}
	for _, run := range runs {
		c["ipcchaos.runs"]++
		c["ipcchaos.outcome."+run.Outcome]++
		c["ipcchaos.faults_fired"] += uint64(run.Fired)
		c["ipcchaos.faults_pending"] += uint64(run.Pending)
		c["ipcchaos.regenerated"] += uint64(run.Regenerated)
		c["ipcchaos.send_failures"] += uint64(run.SendFailures)
		c["ipcchaos.core_tasks"] += uint64(len(run.Core))
	}
	return c
}
