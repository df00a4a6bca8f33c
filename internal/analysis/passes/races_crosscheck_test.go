package passes

import (
	"strings"
	"testing"

	"deltartos/internal/analysis/framework"
	"deltartos/internal/app"
	"deltartos/internal/races"
	"deltartos/internal/sim"
)

// loadRaceManifest runs the races pass over the real internal/app sources
// and returns its guard manifest.  The tree must be race-clean: every
// intentional race carries a //deltalint:race-expected directive, so the
// pass emits no diagnostics.
func loadRaceManifest(t *testing.T) *races.Manifest {
	t.Helper()
	diags, res, err := framework.RunAnalyzer(appPackage(t), Races())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected races diagnostic: %v: %s", d.Pos, d.Message)
	}
	m, ok := res.(*races.Manifest)
	if !ok || m == nil {
		t.Fatalf("races pass returned %T, want *races.Manifest", res)
	}
	return m
}

// checkContained asserts the cross-check contract: every location the
// shadow auditor reports over the replayed trace (shared-modified with an empty candidate
// lockset) must be statically flagged Racy in the same scenario's manifest
// entry.  The converse need not hold — the runtime only sees the schedule
// it ran.
func checkContained(t *testing.T, m *races.Manifest, scenario string, aud *races.Auditor) {
	t.Helper()
	sc := m.Scenario(scenario)
	for _, r := range aud.Reports() {
		if sc == nil {
			t.Errorf("%s: runtime race report for %s, but the scenario has no manifest entry at all", scenario, r.Location)
			continue
		}
		if !sc.Racy(r.Location) {
			t.Errorf("%s: runtime shadow auditor reports %s (tasks %v) but the races pass does not flag it",
				scenario, r.Location, r.Tasks)
		}
	}
}

// raceAudit runs fn traced and replays its event stream through the shadow
// auditor.
func raceAudit(t *testing.T, fn func(opt sim.Option)) *races.Auditor {
	t.Helper()
	return app.RaceAudit(scenarioEvents(t, fn))
}

// Runtime shadow-lockset reports must be contained in the static race flags
// on all four instrumented scenarios — and the containment must not be
// vacuous: the ring's completion counter actually races, and the robot's
// guarded position state actually keeps its lockset.
func TestRuntimeRaceReportsWithinStaticFlags(t *testing.T) {
	m := loadRaceManifest(t)

	t.Run("robot", func(t *testing.T) {
		aud := raceAudit(t, func(opt sim.Option) { app.RunRobotScenario(app.NewRTOS5Locks, false, opt) })
		checkContained(t, m, "RunRobotScenario", aud)
		if n := len(aud.Reports()); n != 0 {
			t.Errorf("robot: %d runtime race reports on the fully guarded scenario, want 0: %+v", n, aud.Reports())
		}
		// The guarded positive case must be non-vacuous: the auditor saw the
		// position accesses and kept long:0 in the candidate lockset.
		found := false
		for _, l := range aud.Locations() {
			if l.Location == "position" {
				found = true
				if strings.Join(l.Lockset, ",") != "long:0" {
					t.Errorf("robot: position shadow lockset = %v, want [long:0]", l.Lockset)
				}
				if len(l.Tasks) < 2 {
					t.Errorf("robot: position accessed by %v, want several tasks", l.Tasks)
				}
			}
		}
		if !found {
			t.Error("robot: position never reached the shadow auditor — the instrumentation is disconnected")
		}
		// And the static side agrees: declared guard, checking passed.
		sc := m.Scenario("RunRobotScenario")
		if sc == nil {
			t.Fatal("RunRobotScenario missing from the static manifest")
		}
		ok := false
		for _, l := range sc.Locations {
			if l.Name == "position" {
				ok = true
				if strings.Join(l.Declared, ",") != "long:0" || l.Racy {
					t.Errorf("static position: declared=%v racy=%v, want declared long:0 and not racy", l.Declared, l.Racy)
				}
			}
		}
		if !ok {
			t.Error("static manifest for RunRobotScenario lacks the declared position location")
		}
	})

	t.Run("robot-rtos6", func(t *testing.T) {
		aud := raceAudit(t, func(opt sim.Option) { app.RunRobotScenario(app.NewRTOS6Locks, false, opt) })
		checkContained(t, m, "RunRobotScenario", aud)
		if n := len(aud.Reports()); n != 0 {
			t.Errorf("robot/rtos6: %d runtime race reports, want 0: %+v", n, aud.Reports())
		}
	})

	t.Run("avoidance", func(t *testing.T) {
		audG := raceAudit(t, func(opt sim.Option) { app.RunGrantDeadlockScenario(softwareAvoidance(t), opt) })
		checkContained(t, m, "RunGrantDeadlockScenario", audG)
		audR := raceAudit(t, func(opt sim.Option) { app.RunRequestDeadlockScenario(softwareAvoidance(t), opt) })
		checkContained(t, m, "RunRequestDeadlockScenario", audR)
		// done[i] elements are task-exclusive: the shadow state machine must
		// never escalate them past exclusive.  Every pipeline has released
		// all its resources when it marks itself done, so a non-empty
		// lockset is a release the replay lost.
		for _, aud := range []*races.Auditor{audG, audR} {
			for _, l := range aud.Locations() {
				if !strings.HasPrefix(l.Location, "done[") {
					continue
				}
				if l.State != "exclusive" {
					t.Errorf("avoidance: %s reached %s, want exclusive (single writer)", l.Location, l.State)
				}
				if len(l.Lockset) != 0 {
					t.Errorf("avoidance: %s written holding %v, want nothing held", l.Location, l.Lockset)
				}
			}
		}
	})

	t.Run("chaos", func(t *testing.T) {
		aud := raceAudit(t, func(opt sim.Option) { app.BuildChaosScenario(app.NewRTOS6Locks, opt).S.Run() })
		checkContained(t, m, "BuildChaosScenario", aud)
	})

	t.Run("ring", func(t *testing.T) {
		aud := raceAudit(t, func(opt sim.Option) { app.BuildRingScenario(opt).S.Run() })
		checkContained(t, m, "BuildRingScenario", aud)
		// Non-vacuity: the completion counter is written by all four ring
		// tasks with no lock anywhere — the auditor must catch it, and the
		// static pass must have flagged it (race-expected keeps it visible).
		reports := aud.Reports()
		found := false
		for _, r := range reports {
			if r.Location == "w.Completed" {
				found = true
				if len(r.Tasks) != 4 {
					t.Errorf("ring: w.Completed written by %v, want the four ring tasks", r.Tasks)
				}
			}
		}
		if !found {
			t.Errorf("ring: the intentionally racy w.Completed produced no runtime report (got %+v)", reports)
		}
	})

	t.Run("ring-timeout", func(t *testing.T) {
		aud := raceAudit(t, func(opt sim.Option) { app.BuildRingTimeoutScenario(opt).S.Run() })
		checkContained(t, m, "BuildRingTimeoutScenario", aud)
	})
}
