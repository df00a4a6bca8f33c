package app

import (
	"math"
	"strings"
	"testing"

	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

// TestMeterMatchesTraceStream pins each backend's invocation meter against
// the trace stream: every invocation a backend counts is one detect.invoke
// or avoid.* event on the recorder, and the mean it reports is the total
// over the count.
func TestMeterMatchesTraceStream(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, opt sim.Option) *Meter
	}{
		{"PDDA in software", func(t *testing.T, opt sim.Option) *Meter {
			d := NewSoftwareDetector(5, 5)
			RunDetectionScenario(d, opt)
			return &d.Meter
		}},
		{"DDU", func(t *testing.T, opt sim.Option) *Meter {
			d := newHW(t)
			RunDetectionScenario(d, opt)
			return &d.Meter
		}},
		{"DAA in software", func(t *testing.T, opt sim.Option) *Meter {
			b := mkSWBackend(t)
			RunRequestDeadlockScenario(b, opt)
			return &b.Meter
		}},
		{"DAU", func(t *testing.T, opt sim.Option) *Meter {
			b := mkHWBackend(t)
			RunRequestDeadlockScenario(b, opt)
			return &b.Meter
		}},
		{"Banker", func(t *testing.T, opt sim.Option) *Meter {
			b, err := NewBankerAvoidance(5, 5)
			if err != nil {
				t.Fatal(err)
			}
			for p, claim := range [][]int{{resVI, resIDCT}, {resIDCT, resWI}, {resIDCT, resWI}} {
				if err := b.DeclareClaim(p, claim...); err != nil {
					t.Fatal(err)
				}
			}
			RunGrantDeadlockScenario(b, opt)
			return &b.Meter
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m *Meter
			sess := withSession(t, func(opt sim.Option) { m = tc.run(t, opt) })
			events := 0
			for _, r := range sess.Recorders() {
				for _, ev := range r.Events() {
					if ev.Kind == trace.KindDetect && (ev.Name == "detect.invoke" || strings.HasPrefix(ev.Name, "avoid.")) {
						events++
					}
				}
			}
			if m.Invocations() == 0 {
				t.Fatal("backend was never invoked")
			}
			if m.Invocations() != events {
				t.Errorf("Invocations() = %d, but the trace holds %d backend events", m.Invocations(), events)
			}
			total := float64(m.TotalCost())
			if got := m.Average() * float64(m.Invocations()); math.Abs(got-total) > 1e-9*total {
				t.Errorf("Average()*Invocations() = %v, want TotalCost() = %v", got, total)
			}
		})
	}
}
