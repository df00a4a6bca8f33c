package app

import (
	"bytes"
	"testing"

	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

// withSession runs fn with a scenario option that wires every sim the
// scenario creates to a fresh session (per-Sim hook injection — there is no
// package global to save and restore).
func withSession(t *testing.T, fn func(opt Option)) *trace.Session {
	t.Helper()
	sess := trace.NewSession()
	hooks := &sim.Hooks{OnNew: func(s *sim.Sim) {
		s.Rec = sess.NewRecorder("run" + string(rune('0'+sess.Len())))
	}}
	fn(WithSimHooks(hooks))
	return sess
}

func TestDetectionTraceDeterministic(t *testing.T) {
	export := func() []byte {
		sess := withSession(t, func(opt Option) {
			RunDetectionScenario(NewSoftwareDetector(5, 5), opt)
		})
		var buf bytes.Buffer
		if err := sess.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Error("identical detection runs produced different trace exports")
	}
}

func TestDetectionTraceCrossChecksBus(t *testing.T) {
	// Close detaches the recorder, so keep each sim's own.
	var sims []*sim.Sim
	var recs []*trace.Recorder
	hooks := &sim.Hooks{OnNew: func(s *sim.Sim) {
		s.Rec = trace.NewRecorder("run")
		sims = append(sims, s)
		recs = append(recs, s.Rec)
	}}
	RunDetectionScenario(newHW(t), WithSimHooks(hooks))
	if len(sims) == 0 || recs[0].Counter("bus.transactions") == 0 {
		t.Fatal("no bus events recorded")
	}
	for i, s := range sims {
		for name, field := range map[string]sim.Cycles{
			"bus.transactions":    s.Bus.Transactions,
			"bus.words":           s.Bus.WordsMoved,
			"bus.stall_cycles":    s.Bus.StallCycles,
			"bus.occupied_cycles": s.Bus.OccupiedCycles,
		} {
			if derived := recs[i].Counter(name); derived != field {
				t.Errorf("%s = %d but the Bus field reads %d", name, derived, field)
			}
		}
	}
}

func TestDetectionCyclesUnchangedByTracing(t *testing.T) {
	plain := RunDetectionScenario(NewSoftwareDetector(5, 5))
	var traced DetectionResult
	withSession(t, func(opt Option) {
		traced = RunDetectionScenario(NewSoftwareDetector(5, 5), opt)
	})
	if plain.AppCycles != traced.AppCycles || plain.Invocations != traced.Invocations {
		t.Errorf("tracing changed the measurement: %+v vs %+v", plain, traced)
	}
}

func TestDetectionTraceSeesDeadlockVerdict(t *testing.T) {
	sess := withSession(t, func(opt Option) {
		RunDetectionScenario(NewSoftwareDetector(5, 5), opt)
	})
	found := false
	for _, r := range sess.Recorders() {
		for _, ev := range r.Events() {
			if ev.Kind == trace.KindDetect && ev.Name == "detect.invoke" && ev.Verdict == "deadlock" {
				found = true
			}
		}
	}
	if !found {
		t.Error("no detect.invoke event with verdict=deadlock; the scenario must end in detected deadlock")
	}
}
