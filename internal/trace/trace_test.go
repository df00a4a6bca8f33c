package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestRecordDerivesBusCounters(t *testing.T) {
	r := NewRecorder("x")
	r.Record(Event{Cycle: 0, Dur: 6, Wait: 0, PE: 0, Proc: "a", Kind: KindBus, Name: "bus.transact", Words: 4, Arg: -1})
	r.Record(Event{Cycle: 6, Dur: 2, Wait: 3, PE: 1, Proc: "b", Kind: KindBus, Name: "bus.fast", Words: 2, Arg: -1})
	r.Record(Event{Cycle: 9, Dur: 40, PE: 0, Proc: "a", Kind: KindService, Name: "kernel.service", Arg: -1})

	checks := map[string]uint64{
		"bus.transactions":     2,
		"bus.words":            6,
		"bus.stall_cycles":     3,
		"bus.occupied_cycles":  8,
		"count.bus.transact":   1,
		"count.bus.fast":       1,
		"count.kernel.service": 1,
	}
	for name, want := range checks {
		if got := r.Counter(name); got != want {
			t.Errorf("Counter(%q) = %d, want %d", name, got, want)
		}
	}
	if len(r.Events()) != 3 {
		t.Errorf("Events() has %d entries, want 3", len(r.Events()))
	}
}

func TestSessionCountersFrom(t *testing.T) {
	s := NewSession()
	a := s.NewRecorder("a")
	a.Count("x", 1)
	mark := s.Len()
	b := s.NewRecorder("b")
	b.Count("x", 10)
	c := s.NewRecorder("c")
	c.Count("x", 100)

	if got := s.CountersFrom(0)["x"]; got != 111 {
		t.Errorf("CountersFrom(0)[x] = %d, want 111", got)
	}
	if got := s.CountersFrom(mark)["x"]; got != 110 {
		t.Errorf("CountersFrom(mark)[x] = %d, want 110", got)
	}
	if s.CountersFrom(99) != nil {
		t.Error("out-of-range mark should return nil")
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	s := NewSession()
	r := s.NewRecorder("run0")
	r.Record(Event{Cycle: 5, Dur: 6, PE: 2, Proc: "pe2", Kind: KindBus, Name: "bus.transact", Words: 4, Arg: -1})
	r.Record(Event{Cycle: 11, PE: -1, Proc: "timer", Kind: KindSched, Name: "sched.dispatch", Arg: -1})
	r.Record(Event{Cycle: 12, Dur: 9, PE: 0, Proc: "t1", Kind: KindLock, Name: "lock.acquire", Arg: 3, Verdict: "contended"})

	var buf bytes.Buffer
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		Events []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
			Dur  uint64 `json:"dur"`
			Args map[string]interface{}
		} `json:"traceEvents"`
		OtherData map[string]map[string]uint64 `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	byName := map[string][]int{}
	for i, ev := range f.Events {
		byName[ev.Name] = append(byName[ev.Name], i)
	}
	if len(byName["process_name"]) != 1 {
		t.Error("missing process_name metadata")
	}
	bus := f.Events[byName["bus.transact"][0]]
	if bus.Ph != "X" || bus.Tid != BusTID || bus.Dur != 6 {
		t.Errorf("bus event rendered as ph=%q tid=%d dur=%d, want X/%d/6", bus.Ph, bus.Tid, bus.Dur, BusTID)
	}
	sched := f.Events[byName["sched.dispatch"][0]]
	if sched.Ph != "i" || sched.Tid != DeviceTID {
		t.Errorf("instant device event rendered as ph=%q tid=%d, want i/%d", sched.Ph, sched.Tid, DeviceTID)
	}
	lock := f.Events[byName["lock.acquire"][0]]
	if lock.Args["id"] != float64(3) || lock.Args["verdict"] != "contended" {
		t.Errorf("lock args = %v, want id=3 verdict=contended", lock.Args)
	}
	if f.OtherData["run0"]["bus.transactions"] != 1 {
		t.Error("counters missing from otherData")
	}
}
