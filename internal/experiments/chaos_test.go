package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

// captureCampaign runs one campaign with tracing attached and returns the
// marshaled run reports plus the Chrome trace export bytes.
func captureCampaign(t *testing.T, cfg ChaosConfig, workers int) (metrics, traceJSON []byte) {
	t.Helper()
	rc := &RunCtx{Parallel: workers, Session: trace.NewSession(), Label: "chaos"}
	_, runs, err := RunChaosCampaign(cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err = json.Marshal(runs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rc.Session.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return metrics, buf.Bytes()
}

// Same seed set => byte-identical run reports and trace export; a different
// seed set must diverge.  This is the determinism contract of DESIGN.md s7.
func TestChaosCampaignDeterministic(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Seeds = 2

	m1, t1 := captureCampaign(t, cfg, 1)
	m2, t2 := captureCampaign(t, cfg, 1)
	if !bytes.Equal(m1, m2) {
		t.Errorf("same seeds produced different run reports:\n%s\n---\n%s", m1, m2)
	}
	if !bytes.Equal(t1, t2) {
		t.Error("same seeds produced different trace exports")
	}

	cfg.BaseSeed += 100
	m3, t3 := captureCampaign(t, cfg, 1)
	if bytes.Equal(m1, m3) {
		t.Error("different seeds produced identical run reports")
	}
	if bytes.Equal(t1, t3) {
		t.Error("different seeds produced identical trace exports")
	}
}

// The parallel campaign engine must be invisible in the output: any worker
// count produces byte-identical run reports, counters, and trace exports.
// This is the acceptance gate for `deltasim -parallel N`.
func TestChaosCampaignParallelMatchesSequential(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Seeds = 8

	seqM, seqT := captureCampaign(t, cfg, 1)
	for _, workers := range []int{2, 4, 32} {
		parM, parT := captureCampaign(t, cfg, workers)
		if !bytes.Equal(seqM, parM) {
			t.Errorf("workers=%d: run reports differ from sequential:\n%s\n---\n%s", workers, seqM, parM)
		}
		if !bytes.Equal(seqT, parT) {
			t.Errorf("workers=%d: trace exports differ from sequential", workers)
		}
	}
}

// Per-seed counters folded through the session must not depend on the worker
// count either (adoption order is input order, not completion order).
func TestChaosCampaignParallelCountersMatch(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Seeds = 6

	counters := func(workers int) map[string]uint64 {
		rc := &RunCtx{Parallel: workers, Session: trace.NewSession(), Label: "chaos"}
		if _, _, err := RunChaosCampaign(cfg, rc); err != nil {
			t.Fatal(err)
		}
		return rc.Counters()
	}
	seq := counters(1)
	par := counters(4)
	if len(seq) == 0 {
		t.Fatal("sequential campaign recorded no counters")
	}
	for k, v := range seq {
		if par[k] != v {
			t.Errorf("counter %s: sequential %d, parallel %d", k, v, par[k])
		}
	}
	if len(par) != len(seq) {
		t.Errorf("counter sets differ: sequential %d keys, parallel %d", len(seq), len(par))
	}
}

// Every run of the default campaign must reach a classified terminal state,
// and any wedged run must carry a diagnosis.
func TestChaosCampaignTerminalStates(t *testing.T) {
	for _, system := range []string{"rtos5", "rtos6"} {
		cfg := DefaultChaosConfig()
		cfg.System = system
		_, runs, err := RunChaosCampaign(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != cfg.Seeds {
			t.Fatalf("%s: %d runs, want %d", system, len(runs), cfg.Seeds)
		}
		for _, run := range runs {
			switch run.Outcome {
			case "survived", "recovered", "degraded":
			case "wedged":
				if run.Diagnosis == "" {
					t.Errorf("%s seed %d: wedged without diagnosis", system, run.Seed)
				}
			default:
				t.Errorf("%s seed %d: unclassified outcome %q", system, run.Seed, run.Outcome)
			}
			if run.UnexplainedLeaks != 0 {
				t.Errorf("%s seed %d: %d blocks recovery failed to reclaim", system, run.Seed, run.UnexplainedLeaks)
			}
		}
	}
}

// A campaign with zero faults must leave the workload untouched: every seed
// survives at the clean-run cycle count with no recovery actions.
func TestChaosZeroFaultsIsClean(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Seeds = 2
	cfg.Faults = 0
	_, runs, err := RunChaosCampaign(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		if run.Outcome != "survived" || run.Recoveries != 0 || run.Fired != 0 {
			t.Errorf("seed %d: zero-fault run not clean: %+v", run.Seed, run)
		}
	}
	if runs[0].Cycles != runs[1].Cycles {
		t.Errorf("zero-fault runs differ: %d vs %d", runs[0].Cycles, runs[1].Cycles)
	}
}

func TestChaosCountersFold(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Seeds = 2
	_, runs, err := RunChaosCampaign(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := ChaosCounters(runs)
	if c["chaos.runs"] != 2 {
		t.Errorf("chaos.runs = %d, want 2", c["chaos.runs"])
	}
	var outcomes uint64
	for _, o := range []string{"survived", "recovered", "degraded", "wedged"} {
		outcomes += c["chaos.outcome."+o]
	}
	if outcomes != 2 {
		t.Errorf("outcome counters sum to %d, want 2", outcomes)
	}
	if c["chaos.faults_fired"]+c["chaos.faults_pending"] != uint64(2*cfg.Faults) {
		t.Errorf("fired+pending = %d, want %d",
			c["chaos.faults_fired"]+c["chaos.faults_pending"], 2*cfg.Faults)
	}
}

// A fuse short enough that no task reaches a terminal state must still
// report WHEN the run wedged: the simulation stop time, not cycles=0.
func TestChaosFullyWedgedRunReportsFuseTime(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.Faults = 0
	cfg.Fuse = 100 // far below the ~38.5k-cycle clean schedule
	run, err := RunChaosSeed(cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Outcome != "wedged" {
		t.Fatalf("outcome = %q, want wedged (fuse cuts every task mid-flight)", run.Outcome)
	}
	if run.Cycles == 0 {
		t.Error("fully wedged run reports cycles=0; want the fuse/last-activity time")
	}
	if run.Cycles > cfg.Fuse {
		t.Errorf("cycles = %d beyond the %d-cycle fuse", run.Cycles, cfg.Fuse)
	}
}

// When a seed errors mid-campaign, the trace shards of every seed below the
// failing one are completed work and must be adopted, not silently dropped;
// shards at or above it are dropped deterministically.  Both campaigns run
// on runSeeded, so the failure is injected into each one's seed job there.
func TestChaosCampaignAdoptsCompletedShardsOnError(t *testing.T) {
	const seeds, base, failIdx = 5, 1, 3
	jobs := []struct {
		name string
		run  func(seed uint64, hooks *sim.Hooks) error
	}{
		{"chaos", func(seed uint64, hooks *sim.Hooks) error {
			_, err := RunChaosSeed(DefaultChaosConfig(), seed, hooks)
			return err
		}},
		{"ipc-chaos", func(seed uint64, hooks *sim.Hooks) error {
			_, err := RunIPCChaosSeed(DefaultIPCChaosConfig(), seed, hooks)
			return err
		}},
	}
	for _, job := range jobs {
		name, run := job.name, job.run
		for _, workers := range []int{1, 4} {
			rc := &RunCtx{Parallel: workers, Session: trace.NewSession(), Label: name}
			_, err := runSeeded(rc, seeds, base, func(seed uint64, hooks *sim.Hooks) (struct{}, error) {
				// A failing seed runs its simulation before it fails, so
				// its shard holds a recorder that must not be adopted.
				if err := run(seed, hooks); err != nil {
					return struct{}{}, err
				}
				if seed >= base+failIdx {
					return struct{}{}, fmt.Errorf("injected failure at seed %d", seed)
				}
				return struct{}{}, nil
			})
			if want := fmt.Sprintf("injected failure at seed %d", base+failIdx); err == nil || err.Error() != want {
				t.Fatalf("%s workers=%d: err = %v, want %q", name, workers, err, want)
			}
			if got := rc.Session.Len(); got != failIdx {
				t.Errorf("%s workers=%d: session adopted %d shard recorders, want %d (seeds below the failure)",
					name, workers, got, failIdx)
			}
		}
	}
}

// settledGoroutines waits briefly for exiting goroutines to leave the count
// and returns it.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// Every seed closes its simulation, so a campaign leaves no proc parked:
// the ISR loop, wedged tasks and pending timers all stop with their Sim.
func TestChaosCampaignLeavesNoProcsBehind(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := DefaultChaosConfig()
	cfg.Seeds = 32
	ipc := DefaultIPCChaosConfig()
	ipc.Variant = "blocking" // wedges, leaving tasks blocked at the fuse
	for _, workers := range []int{1, 4} {
		rc := &RunCtx{Parallel: workers}
		if _, _, err := RunChaosCampaign(cfg, rc); err != nil {
			t.Fatal(err)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("workers=%d: %d goroutines after a 32-seed chaos campaign, started with %d", workers, n, base)
		}
		if _, _, err := RunIPCChaosCampaign(ipc, rc); err != nil {
			t.Fatal(err)
		}
		if n := settledGoroutines(base); n > base {
			t.Errorf("workers=%d: %d goroutines after an IPC chaos campaign, started with %d", workers, n, base)
		}
	}
}

// A task body that panics fails its seed with an error naming the seed and
// the panic value, and the process lives on.  The lowest failing seed's
// error is the one reported at every width, only the shards below it are
// adopted, and the failing seeds' simulations still close.
func TestRunSeededPanickingTaskFailsItsSeed(t *testing.T) {
	const seeds, base, failIdx = 5, 1, 2
	goroutines := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		rc := &RunCtx{Parallel: workers, Session: trace.NewSession(), Label: "planted"}
		_, err := runSeeded(rc, seeds, base, func(seed uint64, hooks *sim.Hooks) (struct{}, error) {
			s := sim.New(sim.WithHooks(hooks))
			defer s.Close()
			k := rtos.NewKernel(s, 2)
			never := k.NewEventFlags("never")
			k.CreateTask("waiter", 1, 1, 0, func(c *rtos.TaskCtx) { never.Wait(c, 1, true) })
			k.CreateTask("planted", 0, 1, 0, func(c *rtos.TaskCtx) {
				c.Compute(10)
				if seed >= base+failIdx {
					panic(fmt.Sprintf("planted fault at seed %d", seed))
				}
			})
			s.Run()
			return struct{}{}, nil
		})
		fail := base + failIdx
		if want := fmt.Sprintf("seed %d: panic: planted fault at seed %d", fail, fail); err == nil || err.Error() != want {
			t.Fatalf("workers=%d: err = %v, want %q", workers, err, want)
		}
		if got := rc.Session.Len(); got != failIdx {
			t.Errorf("workers=%d: session adopted %d shard recorders, want %d (seeds below the panic)",
				workers, got, failIdx)
		}
	}
	if n := settledGoroutines(goroutines); n > goroutines {
		t.Errorf("%d goroutines after the panicking campaigns, started with %d", n, goroutines)
	}
}

func TestChaosUnknownSystem(t *testing.T) {
	cfg := DefaultChaosConfig()
	cfg.System = "rtos9"
	if _, _, err := RunChaosCampaign(cfg, nil); err == nil {
		t.Error("unknown lock system accepted")
	}
}

// A blocked task's priority-inheritance boost in the software lock system
// yields to the simulator before it touches the owner; by then the owner can
// have released the lock or had it reclaimed.  These single-seed campaigns
// used to crash the process with a nil owner; each must now finish with a
// classified outcome.
func TestChaosCampaignOwnerGoneDuringBoost(t *testing.T) {
	for _, seed := range []uint64{110, 193, 218, 250, 442} {
		cfg := DefaultChaosConfig()
		cfg.Seeds = 1
		cfg.BaseSeed = seed
		_, runs, err := RunChaosCampaign(cfg, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(runs) != 1 || runs[0].Outcome == "" {
			t.Errorf("seed %d: run not classified: %+v", seed, runs)
		}
	}
}
