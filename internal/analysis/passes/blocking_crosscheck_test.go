package passes

import (
	"strings"
	"testing"

	"deltartos/internal/analysis/framework"
	"deltartos/internal/app"
	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

// loadAppBounds runs the blocking pass over the real internal/app sources and
// indexes the per-task worst-case bounds by (scenario, task).
func loadAppBounds(t *testing.T) map[string]map[string]BlockingBound {
	t.Helper()
	_, res, err := framework.RunAnalyzer(appPackage(t), Blocking())
	if err != nil {
		t.Fatal(err)
	}
	br, ok := res.(*BlockingResult)
	if !ok || br == nil {
		t.Fatalf("blocking pass returned %T, want *BlockingResult", res)
	}
	out := map[string]map[string]BlockingBound{}
	for _, b := range br.Bounds {
		m := out[b.Scenario]
		if m == nil {
			m = map[string]BlockingBound{}
			out[b.Scenario] = m
		}
		m[b.Task] = b
	}
	return out
}

// recordScenario runs fn with a recorder-attaching option and returns the
// session holding one recorder per sim the scenario created.
func recordScenario(t *testing.T, fn func(opt sim.Option)) *trace.Session {
	t.Helper()
	sess := trace.NewSession()
	hooks := &sim.Hooks{OnNew: func(s *sim.Sim) {
		s.Rec = sess.NewRecorder("run" + string(rune('0'+sess.Len())))
	}}
	fn(sim.WithHooks(hooks))
	if sess.Len() == 0 {
		t.Fatal("scenario recorded no simulations")
	}
	return sess
}

// traceScenario runs fn traced and returns the merged counter registry of
// every sim the scenario created.
func traceScenario(t *testing.T, fn func(opt sim.Option)) map[string]uint64 {
	t.Helper()
	return recordScenario(t, fn).Counters()
}

// scenarioEvents runs fn traced and returns the event stream of the one sim
// the scenario created, for the replayed claims and race audits.
func scenarioEvents(t *testing.T, fn func(opt sim.Option)) []trace.Event {
	t.Helper()
	sess := recordScenario(t, fn)
	if sess.Len() != 1 {
		t.Fatalf("scenario built %d simulations, want 1", sess.Len())
	}
	return sess.Recorders()[0].Events()
}

// checkBlockingBound compares the traced per-task blocking counters of one
// scenario run against the static bounds: every task that ever blocked must
// have a finite static bound, and its total blocked cycles over the run must
// not exceed the bound.  A violation names the task and both numbers — either
// the static model lost a blocking source, or the runtime attribution leaked.
// requireBlocking asserts the run is a real witness (some task blocked) —
// pass false only for scenarios whose steady state is contention-free, where
// the dominance check is vacuously true but coverage and finiteness still
// bite.
func checkBlockingBound(t *testing.T, bounds map[string]map[string]BlockingBound,
	scenario string, counters map[string]uint64, requireBlocking bool) {
	t.Helper()
	sb := bounds[scenario]
	if sb == nil {
		t.Fatalf("blocking pass produced no bounds for scenario %q", scenario)
	}
	blocked := 0
	for name, v := range counters {
		task, ok := strings.CutPrefix(name, "block.cycles.")
		if !ok {
			continue
		}
		blocked++
		b, ok := sb[task]
		if !ok {
			t.Errorf("%s: task %s blocked %d cycles at runtime but the blocking pass has no bound for it",
				scenario, task, v)
			continue
		}
		if !b.Finite {
			t.Errorf("%s: task %s has an infinite static bound (%v) yet the scenario is expected to be bounded",
				scenario, task, b.Reasons)
			continue
		}
		if int64(v) > b.Total {
			t.Errorf("%s: task %s blocked %d cycles at runtime, exceeding the static worst-case bound %d",
				scenario, task, v, b.Total)
		}
	}
	if requireBlocking && blocked == 0 {
		t.Fatalf("%s: no task ever blocked — the cross-check is vacuous (counters disconnected?)", scenario)
	}
	// Every statically bounded task must carry a finite bound even if it
	// happened not to block in this run.
	for task, b := range sb {
		if !b.Finite {
			t.Errorf("%s: task %s bound is not finite: %v", scenario, task, b.Reasons)
		}
	}
}

// The static blocking bounds must dominate the traced runtime blocking on
// every scenario the pass models: robot under both lock managers, both
// engineered avoidance deadlocks, the chaos stress scenario and the IPC ring.
func TestTracedBlockingWithinStaticBounds(t *testing.T) {
	bounds := loadAppBounds(t)

	t.Run("robot-rtos5", func(t *testing.T) {
		c := traceScenario(t, func(opt sim.Option) { app.RunRobotScenario(app.NewRTOS5Locks, false, opt) })
		checkBlockingBound(t, bounds, "RunRobotScenario", c, true)
	})
	t.Run("robot-rtos6", func(t *testing.T) {
		c := traceScenario(t, func(opt sim.Option) { app.RunRobotScenario(app.NewRTOS6Locks, false, opt) })
		checkBlockingBound(t, bounds, "RunRobotScenario", c, true)
	})
	t.Run("grant-avoidance", func(t *testing.T) {
		c := traceScenario(t, func(opt sim.Option) { app.RunGrantDeadlockScenario(softwareAvoidance(t), opt) })
		checkBlockingBound(t, bounds, "RunGrantDeadlockScenario", c, true)
	})
	t.Run("request-avoidance", func(t *testing.T) {
		c := traceScenario(t, func(opt sim.Option) { app.RunRequestDeadlockScenario(softwareAvoidance(t), opt) })
		checkBlockingBound(t, bounds, "RunRequestDeadlockScenario", c, true)
	})
	t.Run("chaos", func(t *testing.T) {
		c := traceScenario(t, func(opt sim.Option) {
			w := app.BuildChaosScenario(app.NewRTOS6Locks, opt)
			w.S.Run()
		})
		checkBlockingBound(t, bounds, "BuildChaosScenario", c, true)
	})
	t.Run("ring", func(t *testing.T) {
		c := traceScenario(t, func(opt sim.Option) {
			w := app.BuildRingScenario(opt)
			w.S.Run()
		})
		if c["count.ipc.recv"] == 0 {
			t.Fatal("ring run recorded no IPC activity")
		}
		checkBlockingBound(t, bounds, "BuildRingScenario", c, false)
	})
}
