package sim

import (
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"deltartos/internal/trace"
)

// The hand-rolled event heap must honour the (time, seq) dispatch order that
// container/heap provided before it: shuffled pushes pop back sorted, ties
// on time break by insertion sequence.
func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	times := []Cycles{9, 3, 3, 7, 1, 12, 3, 0, 7, 5}
	for seq, tm := range times {
		h.push(event{t: tm, seq: uint64(seq)})
	}
	var prev event
	for i := 0; len(h) > 0; i++ {
		e := h.pop()
		if i > 0 {
			if e.t < prev.t || (e.t == prev.t && e.seq < prev.seq) {
				t.Fatalf("pop %d out of order: (%d,%d) after (%d,%d)", i, e.t, e.seq, prev.t, prev.seq)
			}
		}
		prev = e
	}
}

// pop must clear the vacated tail slot: a completed proc must not stay
// reachable through the heap's backing array.
func TestEventHeapPopClearsVacatedSlot(t *testing.T) {
	h := make(eventHeap, 0, 4)
	p := &Proc{}
	h.push(event{t: 1, seq: 0, p: p})
	h.push(event{t: 2, seq: 1, p: p})
	h.pop()
	h.pop()
	for i, tail := 0, h[:cap(h)]; i < cap(h); i++ {
		if tail[i].p != nil {
			t.Fatalf("backing slot %d still references a proc after pop", i)
		}
	}
}

// Steady-state scheduling must not allocate: the whole point of de-boxing
// the heap.  This is the same gate as BenchmarkSimDispatch, in test form so
// a regression fails `go test` rather than needing a bench run.  Two procs
// take turns, so every Delay goes through the queue rather than resuming
// in place.
func TestDispatchDoesNotAllocate(t *testing.T) {
	s := New()
	for pe := 0; pe < 2; pe++ {
		s.Spawn("spin", pe, func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Delay(1)
			}
		})
	}
	allocs := testing.AllocsPerRun(1, func() { s.RunUntil(1 << 62) })
	// After the first RunUntil the queue is drained, so extra runs are pure
	// dispatch-loop entry; the real check is that draining 100 timer events
	// did not grow the heap (cap stays within the pre-sized arena).
	if allocs > 0 {
		t.Errorf("drained dispatch loop allocated %.0f times", allocs)
	}
	if cap(s.events) != initialEventCap {
		t.Errorf("event heap grew to cap %d, want pre-sized %d", cap(s.events), initialEventCap)
	}
}

// delayOrder runs two procs spawned at cycle 0 and returns what they
// logged, in order, each entry the proc's name and the cycle it logged at.
func delayOrder(a, b func(p *Proc, log func())) []string {
	s := New()
	var order []string
	for _, body := range []func(*Proc, func()){a, b} {
		s.Spawn(string(rune('a'+len(s.procs))), 0, func(p *Proc) {
			body(p, func() { order = append(order, p.Name+strconv.FormatUint(p.Now(), 10)) })
		})
	}
	s.Run()
	return order
}

// A Delay that resumes at the same cycle as a queued event yields to it:
// the queued event has the smaller sequence number.
func TestDelayTiedWithQueuedEventYields(t *testing.T) {
	got := delayOrder(
		func(p *Proc, log func()) { p.Delay(5); log() },
		func(p *Proc, log func()) { p.Delay(2); p.Delay(3); log() })
	if want := []string{"a5", "b5"}; !slices.Equal(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

// Delay(0) with an event queued at the current cycle lets that event run
// first.
func TestDelayZeroYieldsToSameCycleEvent(t *testing.T) {
	got := delayOrder(
		func(p *Proc, log func()) { p.Delay(0); log() },
		func(p *Proc, log func()) { log() })
	if want := []string{"b0", "a0"}; !slices.Equal(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

// A Delay past the RunUntil limit stays queued even with nothing else to
// run: RunUntil returns at or before the limit, and the next RunUntil
// resumes the proc at the cycle it asked for.
func TestDelayPastRunUntilLimitStaysQueued(t *testing.T) {
	s := New()
	var at []Cycles
	s.Spawn("a", 0, func(p *Proc) {
		p.Delay(10)
		at = append(at, p.Now())
		p.Delay(10)
		at = append(at, p.Now())
	})
	if end := s.RunUntil(15); end > 15 || !slices.Equal(at, []Cycles{10}) {
		t.Fatalf("RunUntil(15) = %d with the proc at %v, want <= 15 and [10]", end, at)
	}
	if end := s.RunUntil(100); end != 20 || !slices.Equal(at, []Cycles{10, 20}) {
		t.Errorf("RunUntil(100) = %d with the proc at %v, want 20 and [10 20]", end, at)
	}
}

// Spawning into a drained simulation is always a bug (the proc would never
// run); it must panic with a message naming the proc.
func TestSpawnAfterDrainPanics(t *testing.T) {
	s := New()
	s.Spawn("worker", 0, func(p *Proc) { p.Delay(3) })
	s.Run()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Spawn after drain did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, `Spawn("late")`) || !strings.Contains(msg, "drained") {
			t.Fatalf("panic message does not identify the late proc: %v", r)
		}
	}()
	s.Spawn("late", 0, func(p *Proc) {})
}

// Spawn into a closed simulation panics just as it does into a drained one.
func TestSpawnAfterClosePanics(t *testing.T) {
	s := New()
	s.Spawn("worker", 0, func(p *Proc) { p.Delay(3) })
	s.RunUntil(1)
	s.Close()
	defer func() {
		msg, ok := recover().(string)
		if !ok || !strings.Contains(msg, `Spawn("late")`) || !strings.Contains(msg, "closed") {
			t.Fatalf("panic message does not identify the late proc: %q", msg)
		}
	}()
	s.Spawn("late", 0, func(p *Proc) {})
}

// settledGoroutines waits briefly for exiting goroutines to leave the count.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// Close stops every unfinished proc — blocked, mid-Delay and never started
// alike — by unwinding its body through its deferred calls, records nothing
// while doing so, and leaves no coroutine behind, idle ones included.
func TestCloseUnwindsUnfinishedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New()
	rec := trace.NewRecorder("close")
	s.Rec = rec
	sig := s.NewSignal("never")
	unwound := map[string]bool{}
	body := func(p *Proc) {
		defer func() {
			unwound[p.Name] = true
			if r := s.Rec; r != nil {
				r.Record(trace.Event{Name: "unwind", Arg: -1})
			}
		}()
		if p.Name == "blocked" {
			sig.Wait(p)
		} else {
			p.Delay(100)
		}
		t.Errorf("%s resumed after Close", p.Name)
	}
	s.Spawn("blocked", 0, body)
	s.Spawn("delayed", 1, body)
	for pe := 2; pe < 4; pe++ {
		s.Spawn("finished", pe, func(p *Proc) { p.Delay(1) })
	}
	s.RunUntil(10)
	s.Spawn("unstarted", 3, body) // reuses one finished coroutine; one stays idle
	s.Close()
	if !unwound["blocked"] || !unwound["delayed"] {
		t.Errorf("deferred calls did not run on Close: %v", unwound)
	}
	if unwound["unstarted"] {
		t.Error("a never-started body ran on Close")
	}
	if s.Rec != nil || rec.Counters()["count.unwind"] != 0 {
		t.Error("unwinding bodies recorded into the simulation's recorder")
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("goroutines after Close: %d, started with %d", n, base)
	}
}

// A finished proc's coroutine runs the next Spawn, so a stream of one-shot
// timers holds one coroutine between them, not one per timer.
func TestSpawnReusesFinishedCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New()
	fired, peak := 0, 0
	s.Spawn("spawner", 0, func(p *Proc) {
		for i := 0; i < 100; i++ {
			s.Spawn("timer", -1, func(t *Proc) {
				t.Delay(1)
				fired++
			})
			p.Delay(2)
			peak = max(peak, runtime.NumGoroutine()-base)
		}
	})
	s.Run()
	s.Close()
	if fired != 100 {
		t.Errorf("%d of 100 timers fired", fired)
	}
	if peak > 2 {
		t.Errorf("%d coroutines alive at once, want 2 (spawner and one timer)", peak)
	}
}

// A panic in a proc body surfaces from Run in the caller's goroutine with
// its original value.
func TestBodyPanicReachesRunCaller(t *testing.T) {
	s := New()
	s.Spawn("bad", 0, func(p *Proc) {
		p.Delay(2)
		panic("planted")
	})
	defer func() {
		if r := recover(); r != "planted" {
			t.Fatalf("recovered %v, want the body's panic value", r)
		}
	}()
	s.Run()
}

// WithHooks must fire OnNew exactly once per Sim, after the bus exists; nil
// hooks must be accepted silently.
func TestWithHooksFiresOncePerSim(t *testing.T) {
	calls := 0
	h := &Hooks{OnNew: func(s *Sim) {
		calls++
		if s.Bus == nil {
			t.Error("OnNew fired before the bus was constructed")
		}
	}}
	New(WithHooks(h))
	New(WithHooks(h))
	if calls != 2 {
		t.Errorf("OnNew fired %d times for 2 sims", calls)
	}
	New(WithHooks(nil)) // must not panic
}

// signalWaiters spawns n procs that block on sig forever and runs the sim
// until they are all parked, returning them in wait order.
func signalWaiters(s *Sim, sig *Signal, n int) []*Proc {
	procs := make([]*Proc, n)
	for i := 0; i < n; i++ {
		procs[i] = s.Spawn("waiter", i, func(p *Proc) { sig.Wait(p) })
	}
	s.RunUntil(10)
	return procs
}

func waiterBacking(sig *Signal) []*Proc {
	return sig.waiters[:cap(sig.waiters)]
}

// Remove and WakeAll must nil out every vacated slot so parked
// procs do not stay reachable from the waiter list's backing array.
func TestSignalVacatedSlotsCleared(t *testing.T) {
	check := func(name string, sig *Signal, want int) {
		t.Helper()
		if got := sig.Waiters(); got != want {
			t.Fatalf("%s: %d waiters, want %d", name, got, want)
		}
		for i := sig.Waiters(); i < cap(sig.waiters); i++ {
			if waiterBacking(sig)[i] != nil {
				t.Errorf("%s: backing slot %d still references a proc", name, i)
			}
		}
	}

	s := New()
	sig := s.NewSignal("sig")
	procs := signalWaiters(s, sig, 3)

	if !sig.Remove(procs[1]) {
		t.Fatal("Remove did not find a parked waiter")
	}
	check("Remove", sig, 2)

	sig.WakeAll()
	check("WakeAll", sig, 0)

	if sig.Remove(procs[1]) {
		t.Error("Remove found an already-removed waiter")
	}
}
