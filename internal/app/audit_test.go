package app

import (
	"reflect"
	"testing"

	"deltartos/internal/claims"
	"deltartos/internal/races"
	"deltartos/internal/trace"
)

// Event builders for hand-written streams, shaped like the recorders'.
func lockEv(name, proc string, id int) trace.Event {
	return trace.Event{Proc: proc, Kind: trace.KindLock, Name: name, Arg: int64(id)}
}

func resEv(name, proc string, q int, task string) trace.Event {
	return trace.Event{Proc: proc, Kind: trace.KindLock, Name: name, Arg: int64(q), Verdict: task}
}

func writeEv(proc, loc string) trace.Event {
	return trace.Event{Proc: proc, Kind: trace.KindAccess, Name: "access.write", Arg: -1, Verdict: loc}
}

// shadowOf replays evs and returns loc's shadow record.
func shadowOf(t *testing.T, evs []trace.Event, loc string) (races.Report, []races.Report) {
	t.Helper()
	a := RaceAudit(evs)
	for _, r := range a.Locations() {
		if r.Location == loc {
			return r, a.Reports()
		}
	}
	t.Fatalf("%s never reached the auditor", loc)
	return races.Report{}, nil
}

// Each hold transition the recorders emit moves the right task's lockset:
// a dropped release keeps the lock, short-lock and hand-off releases drop
// it from the releasing task, and a give-up release drops the resource from
// the task it was released for, not from the give-up proc that issued it.
func TestRaceAuditReplaysHoldTransitions(t *testing.T) {
	for _, tc := range []struct {
		name    string
		evs     []trace.Event
		lockset []string
		racy    bool
	}{
		{"dropped release keeps the lock", []trace.Event{
			lockEv("lock.acquire", "A", 0),
			writeEv("A", "x"),
			lockEv("lock.release.drop", "A", 0),
			writeEv("A", "x"), // A still holds long:0
			lockEv("lock.acquire", "B", 0),
			writeEv("B", "x"),
		}, []string{"long:0"}, false},
		{"short release", []trace.Event{
			lockEv("lock.acquire.short", "A", 0),
			lockEv("lock.release.short", "A", 0),
			writeEv("A", "x"), // outside the short CS
			lockEv("lock.acquire.short", "B", 0),
			writeEv("B", "x"),
		}, nil, true},
		{"hand-off releases for the releasing task", []trace.Event{
			lockEv("lock.acquire", "A", 1),
			{Proc: "A", Kind: trace.KindLock, Name: "lock.handoff", Arg: 1, Verdict: "B"},
			writeEv("A", "x"),
			lockEv("lock.acquire", "B", 1),
			writeEv("B", "x"),
		}, nil, true},
		{"give-up release credited to the owner", []trace.Event{
			resEv("res.acquire", "p1", 1, "p1"),
			writeEv("p1", "x"),
			resEv("res.release", "giveup.p1.q2", 1, "p1"),
			writeEv("p1", "x"), // p1 no longer holds res:1
			resEv("res.acquire", "p2", 1, "p2"),
			writeEv("p2", "x"),
		}, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, reports := shadowOf(t, tc.evs, "x")
			if r.State != "shared-modified" {
				t.Errorf("state = %s, want shared-modified", r.State)
			}
			if !reflect.DeepEqual(r.Lockset, tc.lockset) {
				t.Errorf("lockset = %v, want %v", r.Lockset, tc.lockset)
			}
			if racy := len(reports) > 0; racy != tc.racy {
				t.Errorf("reports = %+v, want racy=%v", reports, tc.racy)
			}
		})
	}
}

// Reads and writes keep their kind through the stream.
func TestRaceAuditCountsReadsAndWrites(t *testing.T) {
	r, _ := shadowOf(t, []trace.Event{
		writeEv("A", "x"),
		{Proc: "B", Kind: trace.KindAccess, Name: "access.read", Arg: -1, Verdict: "x"},
	}, "x")
	if r.Reads != 1 || r.Writes != 1 || r.State != "shared" {
		t.Errorf("x = %+v, want one read, one write, shared", r)
	}
}

// The held-sets fold books every acquisition for the task it is for — a
// resource granted at another task's release goes to the waiter named in
// the event — and a manifest that misses one of them yields that hold as
// the witness.
func TestHeldSetsWitness(t *testing.T) {
	evs := []trace.Event{
		lockEv("lock.acquire", "task1", 0),
		lockEv("lock.acquire.short", "task1", 0),
		lockEv("lock.release", "task1", 0),
		resEv("res.acquire", "p1", 1, "p1"),
		resEv("res.release", "p1", 1, "p1"),
		resEv("res.acquire", "p1", 1, "p3"), // p1's release grants res:1 to p3
		resEv("res.acquire", "p3", 2, "p3"),
		writeEv("task1", "x"),
	}
	held := HeldSets(evs)
	want := []claims.TaskClaim{
		{Task: "p1", Resources: []string{"res:1"}},
		{Task: "p3", Resources: []string{"res:1", "res:2"}},
		{Task: "task1", Resources: []string{"long:0", "short:0"}},
	}
	if !reflect.DeepEqual(held, want) {
		t.Fatalf("HeldSets = %+v, want %+v", held, want)
	}
	sc := &claims.Scenario{Name: "s", Claims: []claims.Claim{
		{Task: "p1", Proc: 0, Resources: []string{"res:1"}},
		{Task: "p3", Proc: 2, Resources: []string{"res:1"}},
		{Task: "task1", Proc: -1, Resources: []string{"long:0", "short:0"}},
	}}
	if task, key, bad := sc.Witness(held); !bad || task != "p3" || key != "res:2" {
		t.Fatalf("witness = %s/%s/%v, want p3/res:2/true", task, key, bad)
	}
}

// Every scenario that runs to completion records a release for each hold it
// records, so the replayed audits end with nothing held: the recorders emit
// every transition the audits fold, short-lock and resource releases
// included.
func TestTracedRunsReleaseEveryHold(t *testing.T) {
	newSW := func(t *testing.T) *SoftwareAvoidance {
		b, err := NewSoftwareAvoidance(5, 5)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, opt Option)
	}{
		{"robot-rtos5", func(t *testing.T, opt Option) { RunRobotScenario(NewRTOS5Locks, false, opt) }},
		{"robot-rtos6", func(t *testing.T, opt Option) { RunRobotScenario(NewRTOS6Locks, false, opt) }},
		{"chaos", func(t *testing.T, opt Option) { BuildChaosScenario(NewRTOS5Locks, opt).S.Run() }},
		{"grant-avoidance", func(t *testing.T, opt Option) { RunGrantDeadlockScenario(newSW(t), opt) }},
		{"request-avoidance", func(t *testing.T, opt Option) { RunRequestDeadlockScenario(newSW(t), opt) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess := withSession(t, func(opt Option) { tc.run(t, opt) })
			if sess.Len() != 1 {
				t.Fatalf("%d simulations, want 1", sess.Len())
			}
			held := map[string]int{}
			steps := map[string]int{}
			for _, ev := range sess.Recorders()[0].Events() {
				task, key, acquire, ok := holdStep(ev)
				if !ok {
					continue
				}
				steps[ev.Name]++
				if acquire {
					held[task+" "+key]++
				} else {
					held[task+" "+key]--
				}
			}
			for hold, n := range held {
				if n != 0 {
					t.Errorf("%s: %d acquisitions more than releases", hold, n)
				}
			}
			if len(steps) < 2 {
				t.Errorf("hold events seen: %v, want acquisitions and releases", steps)
			}
		})
	}
}
