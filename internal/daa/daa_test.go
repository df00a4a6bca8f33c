package daa

import (
	"math/rand"
	"testing"

	"deltartos/internal/rag"
)

func mustAvoider(t *testing.T, procs, res int) *Avoider {
	t.Helper()
	a, err := New(Config{Procs: procs, Resources: res})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func req(t *testing.T, a *Avoider, p, q int) RequestResult {
	t.Helper()
	r, err := a.Request(p, q)
	if err != nil {
		t.Fatalf("Request(p%d,q%d): %v", p+1, q+1, err)
	}
	return r
}

func rel(t *testing.T, a *Avoider, p, q int) ReleaseResult {
	t.Helper()
	r, err := a.Release(p, q)
	if err != nil {
		t.Fatalf("Release(p%d,q%d): %v", p+1, q+1, err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Procs: 0, Resources: 1}); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := New(Config{Procs: 1, Resources: 1, LivelockThreshold: -1}); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestImmediateGrant(t *testing.T) {
	a := mustAvoider(t, 2, 2)
	r := req(t, a, 0, 0)
	if r.Decision != Granted || r.RDl {
		t.Errorf("free resource: %+v", r)
	}
	if a.Holder(0) != 0 {
		t.Error("grant not recorded")
	}
}

func TestDoubleRequestBySameHolderErrors(t *testing.T) {
	a := mustAvoider(t, 2, 2)
	req(t, a, 0, 0)
	if _, err := a.Request(0, 0); err == nil {
		t.Error("holder re-request accepted")
	}
}

func TestPendingWhenBusyNoDeadlock(t *testing.T) {
	a := mustAvoider(t, 2, 2)
	req(t, a, 0, 0)
	r := req(t, a, 1, 0)
	if r.Decision != Pending || r.RDl {
		t.Errorf("busy-but-safe request: %+v", r)
	}
}

func TestReleaseGrantsHighestPriorityWaiter(t *testing.T) {
	a := mustAvoider(t, 3, 1)
	a.SetPriority(0, 3)
	a.SetPriority(1, 1) // highest
	a.SetPriority(2, 2)
	req(t, a, 0, 0)
	req(t, a, 1, 0)
	req(t, a, 2, 0)
	r := rel(t, a, 0, 0)
	if r.GrantedTo != 1 || r.GDl {
		t.Errorf("release outcome: %+v", r)
	}
	if a.Holder(0) != 1 {
		t.Error("resource not handed to p2")
	}
}

func TestReleaseNoWaiters(t *testing.T) {
	a := mustAvoider(t, 2, 2)
	req(t, a, 0, 0)
	r := rel(t, a, 0, 0)
	if r.GrantedTo != -1 || r.GDl {
		t.Errorf("release with no waiters: %+v", r)
	}
	if a.Holder(0) != -1 {
		t.Error("resource not freed")
	}
}

func TestReleaseByNonHolderErrors(t *testing.T) {
	a := mustAvoider(t, 2, 2)
	req(t, a, 0, 0)
	if _, err := a.Release(1, 0); err == nil {
		t.Error("release by non-holder accepted (Assumption 2)")
	}
}

func TestIDRangeErrors(t *testing.T) {
	a := mustAvoider(t, 2, 2)
	if _, err := a.Request(5, 0); err == nil {
		t.Error("out-of-range process accepted")
	}
	if _, err := a.Request(0, 5); err == nil {
		t.Error("out-of-range resource accepted")
	}
	if _, err := a.Release(-1, 0); err == nil {
		t.Error("negative process accepted")
	}
	if _, err := a.GiveUp(7); err == nil {
		t.Error("give-up out-of-range accepted")
	}
}

// R-dl with a higher-priority requester: the owner is asked to release
// (paper Application Example II, event t6).
func TestRdlHigherPriorityRequesterAsksOwner(t *testing.T) {
	a := mustAvoider(t, 2, 2)
	a.SetPriority(0, 1) // p1 highest
	a.SetPriority(1, 2)
	req(t, a, 0, 0) // p1 holds q1
	req(t, a, 1, 1) // p2 holds q2
	req(t, a, 1, 0) // p2 -> q1: pending, safe
	r := req(t, a, 0, 1)
	if !r.RDl {
		t.Fatalf("expected R-dl, got %+v", r)
	}
	if r.Decision != PendingOwnerAsked || r.AskedProcess != 1 {
		t.Errorf("R-dl with priority: %+v", r)
	}
	// The request is queued; system must not be deadlocked because the edge
	// will be resolved when the owner complies — but the tracked graph
	// currently has the cycle pending resolution. The avoider's guarantee is
	// that it never COMMITS a grant closing a cycle; verify the owner
	// complying resolves everything.
	rr := rel(t, a, 1, 1) // p2 gives up q2
	if rr.GrantedTo != 0 {
		t.Errorf("released resource should go to p1: %+v", rr)
	}
	if a.Deadlocked() {
		t.Error("deadlock after owner compliance")
	}
}

// R-dl with a lower-priority requester: the requester is told to give up.
func TestRdlLowerPriorityRequesterGivesUp(t *testing.T) {
	a := mustAvoider(t, 2, 2)
	a.SetPriority(0, 1)
	a.SetPriority(1, 2)
	req(t, a, 1, 1) // p2 holds q2
	req(t, a, 0, 0) // p1 holds q1
	req(t, a, 0, 1) // p1 -> q2 pending (safe)
	r := req(t, a, 1, 0)
	if !r.RDl || r.Decision != GiveUpRequested || r.AskedProcess != 1 {
		t.Fatalf("expected give-up for weaker requester: %+v", r)
	}
	// The request must NOT have been queued.
	if a.Graph().Requesting(0, 1) {
		t.Error("denied request was queued")
	}
	// p2 complies: releases q2, which flows to p1.
	results, err := a.GiveUp(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].GrantedTo != 0 {
		t.Errorf("give-up results: %+v", results)
	}
	if a.Deadlocked() {
		t.Error("deadlock after give-up")
	}
}

// G-dl on release: granting to the highest-priority waiter would deadlock, so
// a lower-priority waiter wins (paper Application Example I, event t5).
func TestGdlGrantsLowerPriorityWaiter(t *testing.T) {
	// Reproduce Table 6 exactly: 4 processes p1..p4, resources q1, q2, q4
	// used; priorities p1 > p2 > p3.
	a := mustAvoider(t, 4, 4)
	for p := 0; p < 4; p++ {
		a.SetPriority(p, Priority(p+1))
	}
	req(t, a, 0, 0) // t1: p1 gets q1
	req(t, a, 0, 1) // t1: p1 gets q2
	req(t, a, 2, 3) // t2: p3 gets q4
	r := req(t, a, 2, 1)
	if r.Decision != Pending {
		t.Fatalf("t2 p3->q2 should pend: %+v", r)
	}
	r = req(t, a, 1, 1) // t3: p2 -> q2 pending
	if r.Decision != Pending {
		t.Fatalf("t3 p2->q2 should pend: %+v", r)
	}
	r = req(t, a, 1, 3) // t3: p2 -> q4 pending
	if r.Decision != Pending {
		t.Fatalf("t3 p2->q4 should pend: %+v", r)
	}
	rel(t, a, 0, 0) // t4: p1 releases q1
	rr := rel(t, a, 0, 1)
	// Granting q2 to p2 (higher priority) would G-dl because p2 also waits
	// for q4 held by p3 which waits for q2.  The DAU must grant q2 to p3.
	if !rr.GDl {
		t.Fatalf("expected G-dl avoidance: %+v", rr)
	}
	if rr.GrantedTo != 2 {
		t.Fatalf("q2 should go to p3, got p%d", rr.GrantedTo+1)
	}
	if len(rr.SkippedWaiters) != 1 || rr.SkippedWaiters[0] != 1 {
		t.Errorf("skipped waiters: %v", rr.SkippedWaiters)
	}
	if a.Deadlocked() {
		t.Error("deadlock after G-dl avoidance")
	}
	// t6: p3 finishes, releasing q2 and q4; both flow to p2.
	if rr := rel(t, a, 2, 1); rr.GrantedTo != 1 {
		t.Errorf("q2 should go to p2: %+v", rr)
	}
	if rr := rel(t, a, 2, 3); rr.GrantedTo != 1 {
		t.Errorf("q4 should go to p2: %+v", rr)
	}
	if a.Deadlocked() {
		t.Error("deadlock at end of scenario")
	}
}

func TestLivelockEscalation(t *testing.T) {
	a, err := New(Config{Procs: 2, Resources: 2, LivelockThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPriority(0, 1) // p1 high
	a.SetPriority(1, 2) // p2 low
	req(t, a, 1, 1)     // p2 holds q2
	req(t, a, 0, 0)     // p1 holds q1
	req(t, a, 0, 1)     // p1 -> q2 pending
	// p2 repeatedly requests q1; every attempt is R-dl and p2 is weaker.
	r1 := req(t, a, 1, 0)
	if r1.Decision != GiveUpRequested || r1.Livelock {
		t.Fatalf("first denial: %+v", r1)
	}
	r2, err := a.Request(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Livelock || r2.Decision != PendingOwnerAsked || r2.AskedProcess != 0 {
		t.Fatalf("livelock escalation expected on attempt %d: %+v", 2, r2)
	}
	if a.Stats().LivelockEvents != 1 {
		t.Errorf("LivelockEvents = %d", a.Stats().LivelockEvents)
	}
}

func TestGiveUpReleasesEverything(t *testing.T) {
	a := mustAvoider(t, 2, 3)
	req(t, a, 0, 0)
	req(t, a, 0, 1)
	req(t, a, 0, 2)
	if _, err := a.GiveUp(0); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 3; q++ {
		if a.Holder(q) != -1 {
			t.Errorf("q%d still held after give-up", q+1)
		}
	}
}

func TestStatsCounting(t *testing.T) {
	a := mustAvoider(t, 2, 2)
	req(t, a, 0, 0)
	req(t, a, 1, 0)
	rel(t, a, 0, 0)
	st := a.Stats()
	if st.Requests != 2 || st.Releases != 1 || st.Invocations() != 3 {
		t.Errorf("stats: %+v", st)
	}
	if st.Detections == 0 {
		t.Error("no detection work recorded")
	}
}

func TestDecisionString(t *testing.T) {
	for d, want := range map[Decision]string{
		Granted: "granted", Pending: "pending",
		PendingOwnerAsked: "pending-owner-asked", GiveUpRequested: "give-up-requested",
	} {
		if d.String() != want {
			t.Errorf("Decision(%d).String() = %q", int(d), d.String())
		}
	}
	if Decision(9).String() == "" {
		t.Error("unknown decision should render")
	}
}

func TestPriorityHigherThan(t *testing.T) {
	if !Priority(1).HigherThan(2) {
		t.Error("priority 1 must outrank 2")
	}
	if Priority(2).HigherThan(2) {
		t.Error("equal priorities must not outrank")
	}
}

// The central safety property: under random request/release/comply traffic
// the avoider never commits a state where committed grants alone deadlock,
// and compliant processes always make the system fully reducible again.
func TestAvoiderNeverCommitsDeadlockRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4)
		m := 2 + rng.Intn(4)
		a, err := New(Config{Procs: n, Resources: m})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < n; p++ {
			a.SetPriority(p, Priority(p))
		}
		for step := 0; step < 200; step++ {
			p := rng.Intn(n)
			q := rng.Intn(m)
			if a.Holder(q) == p || rng.Intn(3) == 0 {
				held := a.Graph().HeldBy(p)
				if len(held) > 0 {
					if _, err := a.Release(p, held[rng.Intn(len(held))]); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			res, err := a.Request(p, q)
			if err != nil {
				t.Fatal(err)
			}
			switch res.Decision {
			case GiveUpRequested:
				// Comply immediately: release held resources, withdraw waits.
				for _, qq := range a.Graph().RequestedBy(p) {
					a.g.RemoveRequest(qq, p)
				}
				if _, err := a.GiveUp(p); err != nil {
					t.Fatal(err)
				}
			case PendingOwnerAsked:
				// Owner complies: gives up everything it holds.
				if _, err := a.GiveUp(res.AskedProcess); err != nil {
					t.Fatal(err)
				}
			}
			// After every event with compliant processes, the committed
			// state must be deadlock-free.
			if a.Deadlocked() {
				t.Fatalf("trial %d step %d: avoider reached deadlock\n%s",
					trial, step, a.Graph().Matrix())
			}
		}
	}
}

// Grant-edges-only invariant: even ignoring compliance, a state where every
// pending edge was vetted must keep the grant-closure acyclic.
func TestCommittedGrantsAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	a := mustAvoider(t, 5, 5)
	for p := 0; p < 5; p++ {
		a.SetPriority(p, Priority(p))
	}
	for step := 0; step < 500; step++ {
		p, q := rng.Intn(5), rng.Intn(5)
		if a.Holder(q) == p {
			if _, err := a.Release(p, q); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := a.Request(p, q); err != nil {
			t.Fatal(err)
		}
		// Strip pending-owner-asked cycle edges: the safety claim is about
		// grants the avoider actually committed.
		grantsOnly := rag.NewGraph(5, 5)
		for s := 0; s < 5; s++ {
			if h := a.Holder(s); h != -1 {
				if err := grantsOnly.SetGrant(s, h); err != nil {
					t.Fatal(err)
				}
			}
		}
		if grantsOnly.HasCycle() {
			t.Fatalf("step %d: committed grants contain a cycle", step)
		}
	}
}

// A probe applies its tentative edge to the tracked graph and must undo it
// exactly when the edge is refused: the graph afterwards is the graph
// before plus only what the decision commits.
func TestProbesLeaveNoTrace(t *testing.T) {
	unchanged := func(t *testing.T, a *Avoider, before *rag.Matrix, what string) {
		t.Helper()
		if !a.Graph().Matrix().Equal(before) {
			t.Fatalf("%s changed the tracked graph:\nbefore\n%s\nafter\n%s", what, before, a.Graph().Matrix())
		}
	}

	t.Run("give-up", func(t *testing.T) {
		a := mustAvoider(t, 2, 2)
		a.SetPriority(0, 1)
		a.SetPriority(1, 2)
		req(t, a, 1, 1) // p2 holds q2
		req(t, a, 0, 0) // p1 holds q1
		req(t, a, 0, 1) // p1 -> q2 pending
		before := a.Graph().Matrix()
		if r := req(t, a, 1, 0); r.Decision != GiveUpRequested {
			t.Fatalf("p2 -> q1 = %+v, want a give-up", r)
		}
		unchanged(t, a, before, "a give-up")

		// A repeated request the requester already has an edge for keeps
		// that edge through the give-up.
		a.g.AddRequest(0, 1)
		before = a.Graph().Matrix()
		if r := req(t, a, 1, 0); r.Decision != GiveUpRequested {
			t.Fatalf("repeated p2 -> q1 = %+v, want a give-up", r)
		}
		unchanged(t, a, before, "a give-up on an existing request edge")
	})

	t.Run("skipped-waiter", func(t *testing.T) {
		// Table 6: granting q2 to p2 would G-dl, so p3 receives it and p2
		// keeps waiting for q2 and q4.
		a := mustAvoider(t, 4, 4)
		for p := 0; p < 4; p++ {
			a.SetPriority(p, Priority(p+1))
		}
		req(t, a, 0, 0)
		req(t, a, 0, 1)
		req(t, a, 2, 3)
		req(t, a, 2, 1)
		req(t, a, 1, 1)
		req(t, a, 1, 3)
		rel(t, a, 0, 0)
		want := a.Graph().Clone()
		if err := want.Release(1, 0); err != nil {
			t.Fatal(err)
		}
		if err := want.SetGrant(1, 2); err != nil {
			t.Fatal(err)
		}
		if rr := rel(t, a, 0, 1); rr.GrantedTo != 2 || len(rr.SkippedWaiters) != 1 {
			t.Fatalf("p1 releases q2 = %+v, want p3 granted past p2", rr)
		}
		unchanged(t, a, want.Matrix(), "a G-dl-skipped waiter's probe")
		if !a.Graph().Requesting(1, 1) {
			t.Error("the skipped waiter lost its request edge")
		}
	})

	t.Run("free-resource-pending", func(t *testing.T) {
		// q1 is free and p1 already waits for it; p1 also waits for q2,
		// held by p2, which waits for q1.  Granting q1 to p1 closes a
		// cycle, so the request parks and the graph keeps p1's edge.
		a := mustAvoider(t, 2, 2)
		if err := a.g.SetGrant(1, 1); err != nil {
			t.Fatal(err)
		}
		a.g.AddRequest(1, 0)
		a.g.AddRequest(0, 1)
		a.g.AddRequest(0, 0)
		before := a.Graph().Matrix()
		if r := req(t, a, 0, 0); r.Decision != Pending {
			t.Fatalf("p1 -> free q1 = %+v, want pending", r)
		}
		unchanged(t, a, before, "a refused grant of a free resource")
	})
}

// The give-up counter map holds only pairs with a live denial count: a
// grant, in Request or in a Release hand-off, and a livelock escalation
// delete the pair's entry instead of zeroing it.
func TestDenyHoldsOnlyLiveCounts(t *testing.T) {
	live := func(t *testing.T, a *Avoider, want int) {
		t.Helper()
		for key, n := range a.deny {
			if n <= 0 {
				t.Errorf("deny[%v] = %d", key, n)
			}
		}
		if len(a.deny) != want {
			t.Fatalf("deny holds %d pairs, want %d: %v", len(a.deny), want, a.deny)
		}
	}
	a := mustAvoider(t, 8, 16)
	for p := 0; p < 8; p++ {
		for q := 0; q < 16; q++ {
			req(t, a, p, q)
			rel(t, a, p, q)
		}
	}
	live(t, a, 0)

	a, err := New(Config{Procs: 2, Resources: 2, LivelockThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPriority(0, 1)
	a.SetPriority(1, 2)
	req(t, a, 1, 1) // p2 holds q2
	req(t, a, 0, 0) // p1 holds q1
	req(t, a, 0, 1) // p1 -> q2 pending
	req(t, a, 1, 0) // p2 -> q1: give-up
	live(t, a, 1)
	req(t, a, 1, 0) // second give-up
	live(t, a, 1)
	if r := req(t, a, 1, 0); !r.Livelock {
		t.Fatalf("third denial = %+v, want a livelock escalation", r)
	}
	live(t, a, 0)

	// A hand-off grant clears a live count: p2 is denied q1 once, then
	// receives it when p1 releases it.
	a, err = New(Config{Procs: 2, Resources: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.SetPriority(0, 1)
	a.SetPriority(1, 2)
	req(t, a, 1, 1)
	req(t, a, 0, 0)
	req(t, a, 0, 1)
	req(t, a, 1, 0) // give-up
	live(t, a, 1)
	a.g.RemoveRequest(1, 0) // p1 withdraws its wait for q2
	req(t, a, 1, 0)         // p2 -> q1 is now safe: pending
	if rr := rel(t, a, 0, 0); rr.GrantedTo != 1 {
		t.Fatalf("p1 releases q1 = %+v, want a hand-off to p2", rr)
	}
	live(t, a, 0)
}
