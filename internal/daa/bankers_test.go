package daa

import (
	"math/rand"
	"testing"
)

func newBanker(t *testing.T, procs, res int) *Banker {
	t.Helper()
	b, err := NewBanker(procs, res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBankerValidation(t *testing.T) {
	if _, err := NewBanker(0, 2); err == nil {
		t.Error("zero procs accepted")
	}
	b := newBanker(t, 2, 2)
	if err := b.DeclareClaim(9, 0); err == nil {
		t.Error("bad process accepted")
	}
	if err := b.DeclareClaim(0, 9); err == nil {
		t.Error("bad resource accepted")
	}
	if _, err := b.Request(0, 9); err == nil {
		t.Error("out-of-range request accepted")
	}
}

func TestBankerUnclaimedRequestErrors(t *testing.T) {
	b := newBanker(t, 2, 2)
	if _, err := b.Request(0, 0); err == nil {
		t.Error("unclaimed request accepted (the algorithm's defining rule)")
	}
}

func TestBankerGrantsSafeRequests(t *testing.T) {
	b := newBanker(t, 2, 2)
	mustClaim(t, b, 0, 0)
	mustClaim(t, b, 1, 1)
	// Disjoint claims: everything is safe.
	for _, st := range []struct{ p, q int }{{0, 0}, {1, 1}} {
		ok, err := b.Request(st.p, st.q)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("safe request p%d->q%d refused", st.p+1, st.q+1)
		}
	}
}

func mustClaim(t *testing.T, b *Banker, p int, qs ...int) {
	t.Helper()
	if err := b.DeclareClaim(p, qs...); err != nil {
		t.Fatal(err)
	}
}

// The canonical refusal: two processes each claiming both resources.  Once
// p1 holds q1, granting q2 to p2 would be UNSAFE (neither could finish), so
// Banker's refuses — even though the DAA would grant it and resolve trouble
// later via give-up.  This is the paper's "deadlock avoidance tends to
// restrict resource utilization" criticism, made executable.
func TestBankerRefusesUnsafeGrant(t *testing.T) {
	b := newBanker(t, 2, 2)
	mustClaim(t, b, 0, 0, 1)
	mustClaim(t, b, 1, 0, 1)
	ok, err := b.Request(0, 0)
	if err != nil || !ok {
		t.Fatalf("first grant: %v %v", ok, err)
	}
	ok, err = b.Request(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("unsafe grant allowed")
	}
	if b.Refusals != 1 {
		t.Errorf("Refusals = %d", b.Refusals)
	}
	// After p1 finishes, the same request becomes safe.
	if err := b.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	ok, err = b.Request(1, 1)
	if err != nil || !ok {
		t.Fatalf("post-release grant: %v %v", ok, err)
	}
}

// Safety invariant: a system driven only through Banker grants can NEVER
// deadlock, no matter the traffic, as long as processes eventually release.
func TestBankerNeverDeadlocksRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n, m := 2+rng.Intn(3), 2+rng.Intn(3)
		b := newBanker(t, n, m)
		for p := 0; p < n; p++ {
			var claim []int
			for q := 0; q < m; q++ {
				if rng.Intn(2) == 0 {
					claim = append(claim, q)
				}
			}
			if len(claim) == 0 {
				claim = []int{rng.Intn(m)}
			}
			mustClaim(t, b, p, claim...)
		}
		for step := 0; step < 150; step++ {
			p, q := rng.Intn(n), rng.Intn(m)
			if b.Graph().Holder(q) == p {
				if err := b.Release(p, q); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if _, err := b.Request(p, q); err != nil {
				continue // unclaimed: fine
			}
			if b.Graph().HasCycle() {
				t.Fatalf("trial %d: Banker state has a wait cycle", trial)
			}
		}
	}
}

// Freedom comparison: on identical pre-generated request/release tapes, the
// DAA grants strictly more often than Banker's (the paper's "maximum
// freedom" claim for the mixed detection/avoidance approach: Banker's
// refuses merely-unsafe states, the DAA only refuses actual deadlock).
func TestDAAGrantsMoreThanBanker(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type op struct{ p, q int }
	daaGrants, bankerGrants := 0, 0
	for trial := 0; trial < 40; trial++ {
		const n, m = 3, 3
		tape := make([]op, 120)
		for i := range tape {
			tape[i] = op{rng.Intn(n), rng.Intn(m)}
		}

		// Banker run: request if not holding (refusals just skip), release
		// when the op addresses a held resource.
		bank := newBanker(t, n, m)
		for p := 0; p < n; p++ {
			mustClaim(t, bank, p, 0, 1, 2)
		}
		for _, o := range tape {
			if bank.Graph().Holder(o.q) == o.p {
				if err := bank.Release(o.p, o.q); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if ok, err := bank.Request(o.p, o.q); err == nil && ok {
				bankerGrants++
			}
		}

		// DAA run on the same tape: pending requests are withdrawn so both
		// systems see the identical op sequence.
		av, err := New(Config{Procs: n, Resources: m})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < n; p++ {
			av.SetPriority(p, Priority(p))
		}
		for _, o := range tape {
			if av.Holder(o.q) == o.p {
				if _, err := av.Release(o.p, o.q); err != nil {
					t.Fatal(err)
				}
				continue
			}
			res, err := av.Request(o.p, o.q)
			if err != nil {
				t.Fatal(err)
			}
			switch res.Decision {
			case Granted:
				daaGrants++
			case Pending, PendingOwnerAsked:
				av.g.RemoveRequest(o.q, o.p) // the process withdraws its request
			}
		}
	}
	if daaGrants <= bankerGrants {
		t.Errorf("DAA grants (%d) should exceed Banker grants (%d) on identical traffic",
			daaGrants, bankerGrants)
	}
}
