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
	got := r.Counters()
	for name, want := range checks {
		if got[name] != want {
			t.Errorf("Counters()[%q] = %d, want %d", name, got[name], want)
		}
	}
	if len(got) != len(checks) {
		t.Errorf("Counters() = %v, want exactly %v", got, checks)
	}
	if len(r.Events()) != 3 {
		t.Errorf("Events() has %d entries, want 3", len(r.Events()))
	}
}

// The ipc, block and sim.end_cycle families fold from their events and the
// end cycle alone; a zero longest episode leaves block.max absent.
func TestCountersFoldIPCBlockAndEndCycle(t *testing.T) {
	r := NewRecorder("x")
	if _, ok := r.Counters()["sim.end_cycle"]; ok {
		t.Error("sim.end_cycle present before SetEndCycle")
	}
	r.Record(Event{Cycle: 1, PE: 0, Proc: "a", Kind: KindIPC, Name: "ipc.send", Arg: -1, Verdict: "q"})
	r.Record(Event{Cycle: 2, PE: 0, Proc: "a", Kind: KindIPC, Name: "ipc.send", Arg: -1, Verdict: "q"})
	r.Record(Event{Cycle: 3, PE: 1, Proc: "b", Kind: KindIPC, Name: "ipc.recv", Arg: -1, Verdict: "q"})
	r.Record(Event{Cycle: 4, Dur: 30, PE: 1, Proc: "b", Kind: KindBlock, Name: "task.blocked", Arg: -1, Verdict: "queue-recv:q"})
	r.Record(Event{Cycle: 50, Dur: 12, PE: 1, Proc: "b", Kind: KindBlock, Name: "task.blocked", Arg: -1, Verdict: "mutex:m"})
	r.Record(Event{Cycle: 60, PE: 0, Proc: "a", Kind: KindBlock, Name: "task.blocked", Arg: -1, Verdict: "mutex:m"})
	r.SetEndCycle(0)

	want := map[string]uint64{
		"count.ipc.send":     2,
		"count.ipc.recv":     1,
		"count.task.blocked": 3,
		"ipc.send.q":         2,
		"ipc.recv.q":         1,
		"block.cycles.b":     42,
		"block.count.b":      2,
		"block.max.b":        30,
		"block.cycles.a":     0,
		"block.count.a":      1,
		"sim.end_cycle":      0,
	}
	got := r.Counters()
	for name, w := range want {
		if got[name] != w {
			t.Errorf("Counters()[%q] = %d, want %d", name, got[name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("Counters() lacks %q", name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("Counters() = %v, want exactly the keys of %v", got, want)
	}
}

// Session.Counters sums every recorder's registry key by key, except
// block.max, which is the longest episode of any recorder.
func TestSessionCounters(t *testing.T) {
	s := NewSession()
	for i, d := range []uint64{1, 10, 100} {
		r := s.NewRecorder(string(rune('a' + i)))
		r.Record(Event{Dur: d, Proc: "t", Kind: KindBlock, Name: "task.blocked", Arg: -1})
	}
	got := s.Counters()
	if got["block.max.t"] != 100 || got["block.count.t"] != 3 || got["count.task.blocked"] != 3 {
		t.Errorf("Counters() = %v, want block.max.t=100 block.count.t=3 count.task.blocked=3", got)
	}
	if len(NewSession().Counters()) != 0 {
		t.Error("an empty session has counters")
	}
}

// Two simulations of one experiment: block.max keeps the longest episode,
// wherever it was, while block.cycles, block.count and sim.end_cycle add up.
func TestSessionCountersMergeBlockMaxAsMaximum(t *testing.T) {
	s := NewSession()
	first, second := s.NewRecorder("first"), s.NewRecorder("second")
	first.Record(Event{Cycle: 5, Dur: 70, Proc: "t", Kind: KindBlock, Name: "task.blocked", Arg: -1})
	first.SetEndCycle(100)
	second.Record(Event{Cycle: 1, Dur: 40, Proc: "t", Kind: KindBlock, Name: "task.blocked", Arg: -1})
	second.Record(Event{Cycle: 50, Dur: 30, Proc: "t", Kind: KindBlock, Name: "task.blocked", Arg: -1})
	second.Record(Event{Cycle: 90, Dur: 9, Proc: "u", Kind: KindBlock, Name: "task.blocked", Arg: -1})
	second.SetEndCycle(120)
	got := s.Counters()
	for name, want := range map[string]uint64{
		"block.max.t": 70, "block.cycles.t": 140, "block.count.t": 3,
		"block.max.u": 9, "sim.end_cycle": 220,
	} {
		if got[name] != want {
			t.Errorf("Counters()[%q] = %d, want %d", name, got[name], want)
		}
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
