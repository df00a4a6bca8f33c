package passes

import (
	"testing"

	"deltartos/internal/analysis/framework"
	"deltartos/internal/app"
	"deltartos/internal/claims"
)

// loadAppManifest runs the claims pass over the real internal/app sources and
// returns the inferred manifest.  The tree is expected to be claims-clean:
// every statically declared claim set must already cover the requests the
// pass can see.
func loadAppManifest(t *testing.T) *claims.Manifest {
	t.Helper()
	diags, res, err := framework.RunAnalyzer(appPackage(t), Claims())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected claims diagnostic: %v: %s", d.Pos, d.Message)
	}
	m, ok := res.(*claims.Manifest)
	if !ok || m == nil {
		t.Fatalf("claims pass returned %T, want *claims.Manifest", res)
	}
	return m
}

// checkSubset asserts that every runtime (task, resource) hold is covered by
// the scenario's static claims, failing with a named witness.
func checkSubset(t *testing.T, m *claims.Manifest, scenario string, observed []claims.TaskClaim) {
	t.Helper()
	sc := m.Scenario(scenario)
	if sc == nil {
		t.Fatalf("static claims manifest has no scenario %q (have %d scenarios)", scenario, len(m.Scenarios))
	}
	if len(observed) == 0 {
		t.Fatalf("%s: the replayed trace shows no holds — the hold events are disconnected", scenario)
	}
	if task, key, bad := sc.Witness(observed); bad {
		t.Errorf("%s: task %s held %s at runtime, but no static claim covers it", scenario, task, key)
	}
}

// The static claims manifest must over-approximate the runtime: on every
// scenario, the per-task held-sets folded from the traced run are a subset
// of the inferred maximal claims.  A violation names the task and resource
// that escaped the static analysis — exactly the hole that would let the
// DAU/Banker admit an undeclared request.
func TestRuntimeHeldSetsWithinStaticClaims(t *testing.T) {
	m := loadAppManifest(t)

	for _, tc := range []struct {
		name, scenario string
		run            func(t *testing.T, opt app.Option)
	}{
		{"detection", "RunDetectionScenario", func(t *testing.T, opt app.Option) {
			app.RunDetectionScenario(app.NewSoftwareDetector(5, 5), opt)
		}},
		{"grant-avoidance", "RunGrantDeadlockScenario", func(t *testing.T, opt app.Option) {
			app.RunGrantDeadlockScenario(softwareAvoidance(t), opt)
		}},
		{"request-avoidance", "RunRequestDeadlockScenario", func(t *testing.T, opt app.Option) {
			app.RunRequestDeadlockScenario(softwareAvoidance(t), opt)
		}},
		{"robot-rtos5", "RunRobotScenario", func(t *testing.T, opt app.Option) {
			app.RunRobotScenario(app.NewRTOS5Locks, false, opt)
		}},
		{"robot-rtos6", "RunRobotScenario", func(t *testing.T, opt app.Option) {
			app.RunRobotScenario(app.NewRTOS6Locks, false, opt)
		}},
		{"chaos", "BuildChaosScenario", func(t *testing.T, opt app.Option) {
			app.BuildChaosScenario(app.NewRTOS6Locks, opt).S.Run()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			evs := scenarioEvents(t, func(opt app.Option) { tc.run(t, opt) })
			checkSubset(t, m, tc.scenario, app.HeldSets(evs))
		})
	}
}

// The inferred manifest must be usable as the avoidance configuration: a
// Banker's-algorithm backend whose maximal claims come verbatim from the
// claims pass has to steer both avoidance scenarios to deadlock-free
// completion, refusing the unsafe grants along the way.
func TestBankerFromManifestAvoidsDeadlock(t *testing.T) {
	m := loadAppManifest(t)

	for _, tc := range []struct {
		scenario string
		run      func(app.AvoidanceBackend, ...app.Option) app.AvoidanceResult
		avoided  func(app.AvoidanceResult) bool
	}{
		{"RunGrantDeadlockScenario", app.RunGrantDeadlockScenario,
			func(r app.AvoidanceResult) bool { return r.GDlAvoided }},
		{"RunRequestDeadlockScenario", app.RunRequestDeadlockScenario,
			func(r app.AvoidanceResult) bool { return r.RDlAvoided }},
	} {
		sc := m.Scenario(tc.scenario)
		if sc == nil {
			t.Fatalf("manifest has no scenario %q", tc.scenario)
		}
		if len(sc.ResourceClaims()) == 0 {
			t.Fatalf("%s: manifest carries no resource claims to configure the Banker", tc.scenario)
		}
		b, err := app.NewBankerFromManifest(sc, 5, 5)
		if err != nil {
			t.Fatal(err)
		}
		var res app.AvoidanceResult
		evs := scenarioEvents(t, func(opt app.Option) { res = tc.run(b, opt) })
		if !res.Completed {
			t.Errorf("%s under Banker(manifest): scenario did not complete deadlock-free", tc.scenario)
		}
		if !tc.avoided(res) {
			t.Errorf("%s under Banker(manifest): the engineered deadlock was not exercised/avoided", tc.scenario)
		}
		checkSubset(t, m, tc.scenario, app.HeldSets(evs))
	}
}

// The ceiling pass must validate the robot scenario's IPCP programming: both
// long locks carry dominating ceilings, and the blocking pass's ceiling term
// keeps the Figure 20 structure (task_1 and task_3 each blocked by one
// lower-priority critical section; nothing blocks the lowest-priority task).
func TestCeilingPassValidatesRobotIPCP(t *testing.T) {
	pkg := appPackage(t)
	diags, res, err := framework.RunAnalyzer(pkg, Ceiling())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected ceiling diagnostic: %v: %s", d.Pos, d.Message)
	}
	cr := res.(*CeilingResult)

	wantCeil := map[int]int{0: 1, 1: 3}
	seen := map[int]bool{}
	for _, l := range cr.Locks {
		want, relevant := wantCeil[l.ID]
		if !relevant {
			continue
		}
		seen[l.ID] = true
		if !l.Programmed || l.Ceiling != want {
			t.Errorf("lock %d: programmed=%v ceiling=%d, want programmed ceiling %d", l.ID, l.Programmed, l.Ceiling, want)
		}
		if !l.HasAcquirerPrio || l.Ceiling > l.MinAcquirerPrio {
			t.Errorf("lock %d: ceiling %d does not dominate highest acquirer priority %d", l.ID, l.Ceiling, l.MinAcquirerPrio)
		}
	}
	for id := range wantCeil {
		if !seen[id] {
			t.Errorf("ceiling pass reported nothing for long lock %d", id)
		}
	}

	// The per-task IPCP push-through bound the ceilings imply is the
	// blocking pass's Ceiling term; it carries the Figure 20 structure: the
	// two highest-priority lock users are each blocked by a lower-priority
	// critical section under a dominated ceiling, and nothing can block the
	// lowest-priority task.
	_, bres, err := framework.RunAnalyzer(pkg, Blocking())
	if err != nil {
		t.Fatal(err)
	}
	engine := map[string]BlockingBound{}
	for _, b := range bres.(*BlockingResult).Bounds {
		if b.Scenario == "RunRobotScenario" {
			engine[b.Task] = b
		}
	}
	for _, task := range []string{"task1", "task3"} {
		if engine[task].Ceiling == 0 {
			t.Errorf("%s: expected a nonzero IPCP blocking bound (Figure 20), got 0", task)
		}
	}
	if lowest, ok := engine["task5"]; !ok || lowest.Ceiling != 0 {
		t.Errorf("task5 is the lowest-priority task; nothing should block it, got bound %d (present %v)", lowest.Ceiling, ok)
	}
}
