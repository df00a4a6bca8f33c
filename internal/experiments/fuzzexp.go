package experiments

import (
	"fmt"

	"deltartos/internal/fuzz"
)

// The fuzz experiment: a small-budget slice of the generative scenario
// sweep (`deltasim -fuzz` runs the full-size version).  It reproduces the
// deadlock-probability phase transition as contention rises and fails hard
// if any standing invariant — PDDA vs the HasCycle oracle, static ⊇
// runtime, the deltalint round-trip — breaks on a sampled seed.

func init() {
	register(Experiment{
		ID:    "ext-fuzz",
		Title: "Extension: generative scenario fuzzing — deadlock probability vs contention",
		Run:   runExtFuzz,
	})
	register(Experiment{
		ID:    "ext-ipc-fuzz",
		Title: "Extension: generative IPC-topology fuzzing — wedge probability vs message loss",
		Run:   runExtIPCFuzz,
	})
}

func runExtFuzz(rc *RunCtx) (Result, error) {
	r := Result{
		ID:     "ext-fuzz",
		Title:  "200 seeds/point, 12 tasks, resource count swept (PDDA scan every 4 rounds)",
		Header: []string{"point", "contention", "P(deadlock)", "P(static cycle)", "det.latency", "wedged", "oracle ok", "lint ok"},
	}
	sw := fuzz.DefaultSweep(200, 0x5eed)
	rep, err := RunFuzzSweep(sw, rc)
	if err != nil {
		return r, err
	}
	for _, p := range rep.Points {
		r.Rows = append(r.Rows, []string{
			p.Label,
			f2(p.Contention),
			fmt.Sprintf("%.3f", p.DeadlockProbability),
			fmt.Sprintf("%.3f", p.StaticCycleProbability),
			f1(p.DetectionLatencyMean),
			fmt.Sprintf("%d", p.Wedged),
			fmt.Sprintf("%d", p.OracleChecked),
			fmt.Sprintf("%d", p.LintChecked),
		})
	}
	r.Notes = append(r.Notes,
		"P(static cycle) >= P(deadlock) at every point: the lockorder graph over-approximates the DDU (static ⊇ runtime).",
		"det.latency is the mean rounds between cycle formation and the periodic PDDA scan that reported it.",
	)
	return r, nil
}

func runExtIPCFuzz(rc *RunCtx) (Result, error) {
	r := Result{
		ID:     "ext-ipc-fuzz",
		Title:  "2000 seeds/point, matched message topologies, drop probability swept",
		Header: []string{"point", "P(wedge)", "P(static flag)", "mean core", "mean flagged", "dropped", "completed"},
	}
	sw := fuzz.DefaultIPCSweep(2000, 0x1bc5eed)
	rep, err := RunIPCFuzzSweep(sw, rc)
	if err != nil {
		return r, err
	}
	for _, p := range rep.Points {
		r.Rows = append(r.Rows, []string{
			p.Label,
			fmt.Sprintf("%.3f", p.WedgeProbability),
			fmt.Sprintf("%.3f", p.StaticFlagProbability),
			f2(p.MeanCoreTasks),
			f2(p.MeanFlaggedTasks),
			fmt.Sprintf("%d", p.DroppedSends),
			fmt.Sprintf("%d", p.Completed),
		})
	}
	r.Notes = append(r.Notes,
		"every task in a run's quiescence core is statically flagged (ipc static ⊇ runtime core), checked on every seed.",
		"P(static flag) >= P(wedge) at every point: a wedged run has a non-empty core, and cores are contained.",
	)
	return r, nil
}

// RunFuzzSweep executes a fuzz sweep under the experiment context's worker
// budget and checks the static bound at every point: runtime deadlock
// probability never exceeds the static-cycle probability.  (Per-seed
// invariant violations already fail fuzz.RunSweep.)  The deltasim -fuzz
// path shares it so the flag and the registered experiment cannot drift.
func RunFuzzSweep(sw fuzz.Sweep, rc *RunCtx) (*fuzz.Report, error) {
	rep, err := fuzz.RunSweep(sw, rc.Workers())
	if err != nil {
		return rep, err
	}
	for _, p := range rep.Points {
		if p.DeadlockProbability > p.StaticCycleProbability {
			return rep, fmt.Errorf("point %s: runtime deadlock probability %.4f exceeds the static bound %.4f",
				p.Label, p.DeadlockProbability, p.StaticCycleProbability)
		}
	}
	return rep, nil
}

// RunIPCFuzzSweep executes an IPC-topology sweep under the experiment
// context's worker budget and checks the static bound at every point: wedge
// probability never exceeds the static-flag probability.  (Core-containment
// violations already fail fuzz.RunIPCSweep.)  The deltasim -fuzz-ipc path
// shares it so the flag and the registered experiment cannot drift.
func RunIPCFuzzSweep(sw fuzz.IPCSweep, rc *RunCtx) (*fuzz.IPCReport, error) {
	rep, err := fuzz.RunIPCSweep(sw, rc.Workers())
	if err != nil {
		return rep, err
	}
	for _, p := range rep.Points {
		if p.WedgeProbability > p.StaticFlagProbability {
			return rep, fmt.Errorf("point %s: wedge probability %.4f exceeds the static bound %.4f",
				p.Label, p.WedgeProbability, p.StaticFlagProbability)
		}
	}
	return rep, nil
}
