package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"deltartos/internal/trace"
)

// mixedTraffic drives slow, fast and contended transfers through the bus.
func mixedTraffic(s *Sim) {
	s.Spawn("dma", -1, func(p *Proc) {
		s.Bus.Transact(p, 16)
		s.Bus.TransactFast(p, 2)
	})
	for pe := 0; pe < 3; pe++ {
		pe := pe
		s.Spawn("pe", pe, func(p *Proc) {
			p.Delay(Cycles(pe + 1))
			s.Bus.Transact(p, 8)
			s.Bus.TransactFast(p, 1)
		})
	}
}

func TestRecorderCrossChecksBusCounters(t *testing.T) {
	s := New()
	s.Rec = trace.NewRecorder("x")
	mixedTraffic(s)
	end := s.Run()
	for name, field := range map[string]Cycles{
		"bus.transactions":    s.Bus.Transactions,
		"bus.words":           s.Bus.WordsMoved,
		"bus.stall_cycles":    s.Bus.StallCycles,
		"bus.occupied_cycles": s.Bus.OccupiedCycles,
	} {
		if derived := s.Rec.Counter(name); derived != field {
			t.Errorf("%s = %d but the Bus field reads %d; event-derived counters must equal the Bus fields",
				name, derived, field)
		}
	}
	if got := s.Rec.Counter("sim.end_cycle"); got != end {
		t.Errorf("sim.end_cycle = %d, want %d", got, end)
	}
	if s.Rec.Counter("bus.transactions") == 0 {
		t.Fatal("no bus events recorded")
	}
}

func TestTracingIsZeroOverhead(t *testing.T) {
	// The same workload must produce the same cycle counts with tracing on
	// and off: recording charges no simulated cycles.
	plain := New()
	mixedTraffic(plain)
	endPlain := plain.Run()

	traced := New()
	traced.Rec = trace.NewRecorder("x")
	mixedTraffic(traced)
	endTraced := traced.Run()

	if endPlain != endTraced {
		t.Errorf("end cycle differs: %d without tracing, %d with", endPlain, endTraced)
	}
	if plain.Bus.Transactions != traced.Bus.Transactions ||
		plain.Bus.StallCycles != traced.Bus.StallCycles ||
		plain.Bus.OccupiedCycles != traced.Bus.OccupiedCycles {
		t.Error("bus instrumentation differs between traced and untraced runs")
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	export := func() []byte {
		sess := trace.NewSession()
		s := New()
		s.Rec = sess.NewRecorder("run0")
		mixedTraffic(s)
		s.Run()
		var buf bytes.Buffer
		if err := sess.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Error("identical runs produced different trace files")
	}
	if !json.Valid(a) {
		t.Error("trace file is not valid JSON")
	}
}
