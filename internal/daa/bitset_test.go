package daa

import (
	"fmt"
	"slices"
	"testing"

	"deltartos/internal/det"
)

// The word-parallel Banker and the claim-list RefBanker must make identical
// grant/refuse decisions on identical traffic — random claim sets and
// request/release streams across word-boundary geometries, then sparse
// geometries shaped like fuzz traffic: a few claims per process out of many
// resources, some declared over several calls and some declared twice.
func TestBankerMatchesRefBanker(t *testing.T) {
	rng := det.New(41)
	geometries := []struct{ procs, resources int }{
		{1, 1}, {3, 5}, {5, 64}, {4, 65}, {8, 127}, {12, 200}, {64, 8},
	}
	for _, geo := range geometries {
		for trial := 0; trial < 10; trial++ {
			fast, ref := newBankerPair(t, geo.procs, geo.resources)
			for p := 0; p < geo.procs; p++ {
				for q := 0; q < geo.resources; q++ {
					if rng.Float64() < 0.5 {
						declareBoth(t, fast, ref, p, q)
					}
				}
			}
			anyResource := func(int) int { return rng.Intn(geo.resources) }
			if d := bankerDivergence(fast, ref, rng, anyResource, 500); d != "" {
				t.Fatalf("%d procs x %d res trial %d: %s", geo.procs, geo.resources, trial, d)
			}
		}
	}

	for _, geo := range []struct{ procs, resources int }{{12, 256}, {12, 16}} {
		for trial := 0; trial < 20; trial++ {
			fast, ref := newBankerPair(t, geo.procs, geo.resources)
			claims := sparseClaims(rng, geo.procs, geo.resources)
			for p, cl := range claims {
				switch trial % 3 {
				case 0: // one call
					declareBoth(t, fast, ref, p, cl...)
				case 1: // one call per resource
					for _, q := range cl {
						declareBoth(t, fast, ref, p, q)
					}
				default: // two overlapping calls: the first claim twice
					declareBoth(t, fast, ref, p, cl[:1+len(cl)/2]...)
					declareBoth(t, fast, ref, p, append([]int{cl[0]}, cl[len(cl)/2:]...)...)
				}
			}
			// Mostly claimed resources, so the safety scans run; now and
			// then an unclaimed one, which both engines must reject.
			pick := func(p int) int {
				if rng.Float64() < 0.05 {
					return rng.Intn(geo.resources)
				}
				return claims[p][rng.Intn(len(claims[p]))]
			}
			if d := bankerDivergence(fast, ref, rng, pick, 500); d != "" {
				t.Fatalf("sparse %d procs x %d res trial %d: %s", geo.procs, geo.resources, trial, d)
			}
		}
	}
}

// The Banker-ignores-one-resource mutant: the word-parallel Banker is
// declared without one claimed resource per process and the traffic never
// requests it, so only the safety scans can tell the two engines apart.  A
// trial is a fresh sparse 12x16 claim set (1–6 claims per process, fuzz
// traffic's shape) and 500 steps of traffic.  RefBanker must diverge within
// 4 trials, 20 times over; 200 such searches took at most 2 trials (199 of
// them 1).  An oracle that stays silent here does not check the scan.
func TestRefBankerCatchesIgnoredResource(t *testing.T) {
	const procs, resources, catches, maxTrials, steps = 12, 16, 20, 4, 500
	rng := det.New(7)
	for catch := 0; catch < catches; catch++ {
		caught := false
		for trial := 0; trial < maxTrials && !caught; trial++ {
			fast, ref := newBankerPair(t, procs, resources)
			claims := sparseClaims(rng, procs, resources)
			for p, cl := range claims {
				if err := ref.DeclareClaim(p, cl...); err != nil {
					t.Fatal(err)
				}
				// The mutant forgets cl[0]; a process left with nothing
				// to request sits idle.
				if err := fast.DeclareClaim(p, cl[1:]...); err != nil {
					t.Fatal(err)
				}
			}
			pick := func(p int) int {
				if len(claims[p]) == 1 {
					return -1
				}
				return claims[p][1+rng.Intn(len(claims[p])-1)]
			}
			caught = bankerDivergence(fast, ref, rng, pick, steps) != ""
		}
		if !caught {
			t.Fatalf("search %d: %d trials of %d steps without a divergence from a Banker that ignores one resource per process",
				catch, maxTrials, steps)
		}
	}
}

func newBankerPair(t *testing.T, procs, resources int) (*Banker, *RefBanker) {
	t.Helper()
	fast, err := NewBanker(procs, resources)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRefBanker(procs, resources)
	if err != nil {
		t.Fatal(err)
	}
	return fast, ref
}

func declareBoth(t *testing.T, fast *Banker, ref *RefBanker, p int, qs ...int) {
	t.Helper()
	if err := fast.DeclareClaim(p, qs...); err != nil {
		t.Fatal(err)
	}
	if err := ref.DeclareClaim(p, qs...); err != nil {
		t.Fatal(err)
	}
}

// sparseClaims draws 1–6 distinct resources per process.
func sparseClaims(rng *det.RNG, procs, resources int) [][]int {
	claims := make([][]int, procs)
	for p := range claims {
		for k := 1 + rng.Intn(6); len(claims[p]) < k; {
			if q := rng.Intn(resources); !slices.Contains(claims[p], q) {
				claims[p] = append(claims[p], q)
			}
		}
	}
	return claims
}

// bankerDivergence drives both engines with the same random traffic — per
// step a random process releases something it holds 40% of the time when
// it holds anything, and otherwise requests pick(p), skipped when pick
// returns -1 —
// and describes the first difference in errors, grants or refusal totals
// ("" = none).
func bankerDivergence(fast *Banker, ref *RefBanker, rng *det.RNG, pick func(p int) int, steps int) string {
	for step := 0; step < steps; step++ {
		p := rng.Intn(fast.n)
		q := pick(p)
		if held := fast.Graph().HeldBy(p); len(held) > 0 && rng.Float64() < 0.4 {
			q = held[rng.Intn(len(held))]
			if err := fast.Release(p, q); err != nil {
				return fmt.Sprintf("step %d: fast release: %v", step, err)
			}
			if err := ref.Release(p, q); err != nil {
				return fmt.Sprintf("step %d: ref release: %v", step, err)
			}
			continue
		}
		if q < 0 {
			continue
		}
		fastGrant, fastErr := fast.Request(p, q)
		refGrant, refErr := ref.Request(p, q)
		if (fastErr == nil) != (refErr == nil) {
			return fmt.Sprintf("step %d: error divergence: fast=%v ref=%v", step, fastErr, refErr)
		}
		if fastGrant != refGrant {
			return fmt.Sprintf("step %d: p%d req q%d: fast granted=%v ref granted=%v", step, p, q, fastGrant, refGrant)
		}
	}
	if fast.Refusals != ref.Refusals {
		return fmt.Sprintf("refusal counts diverge: fast=%d ref=%d", fast.Refusals, ref.Refusals)
	}
	return ""
}

// Warm Banker and Avoider must decide steady-state traffic without
// allocating: the safety scan runs in Banker-owned scratch and the avoider
// probes its tracked graph in place, detecting in a pdda.Scratch.
func TestAvoidancePathsDoNotAllocate(t *testing.T) {
	b, err := NewBanker(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		for q := 0; q < 16; q++ {
			if err := b.DeclareClaim(p, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := b.Request(0, 0); err != nil { // warm
		t.Fatal(err)
	}
	if err := b.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := b.Request(0, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.Release(0, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("Banker request/release allocated %.0f times per cycle, want 0", allocs)
	}

	a, err := New(Config{Procs: 8, Resources: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Request(0, 0); err != nil { // warm
		t.Fatal(err)
	}
	if _, err := a.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := a.Request(0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Release(0, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("Avoider request/release allocated %.0f times per cycle, want 0", allocs)
	}

	// Handover: p0 holds r0 while p1 waits for it, so p0's release hands r0
	// to p1 through the grant scan; p1's release and p0's re-request restore
	// the starting state.
	if _, err := a.Request(0, 0); err != nil {
		t.Fatal(err)
	}
	handover := func() {
		if r, err := a.Request(1, 0); err != nil || r.Decision != Pending {
			t.Fatalf("p1 request = %+v, %v; want pending", r, err)
		}
		if r, err := a.Release(0, 0); err != nil || r.GrantedTo != 1 {
			t.Fatalf("p0 release = %+v, %v; want a handover to p1", r, err)
		}
		if _, err := a.Release(1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Request(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	handover() // warm
	scans := a.Stats().GrantScans
	if allocs := testing.AllocsPerRun(10, handover); allocs > 0 {
		t.Errorf("Avoider release handover allocated %.0f times per cycle, want 0", allocs)
	}
	if a.Stats().GrantScans == scans {
		t.Error("handover probe never ran the grant scan")
	}
}

// A deliberately unsafe configuration both engines must refuse: two
// processes each claiming both resources, one grant out — handing the second
// resource to the other process leaves no safe completion order.
func TestBankerUnsafeRefusalMatchesRef(t *testing.T) {
	fast, _ := NewBanker(2, 2)
	ref, _ := NewRefBanker(2, 2)
	for _, b := range []interface {
		DeclareClaim(int, ...int) error
	}{fast, ref} {
		if err := b.DeclareClaim(0, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := b.DeclareClaim(1, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if g, _ := fast.Request(0, 0); !g {
		t.Fatal("fast: first grant refused")
	}
	if g, _ := ref.Request(0, 0); !g {
		t.Fatal("ref: first grant refused")
	}
	fastG, _ := fast.Request(1, 1)
	refG, _ := ref.Request(1, 1)
	if fastG != refG {
		t.Fatalf("unsafe grant divergence: fast=%v ref=%v", fastG, refG)
	}
	if fastG {
		t.Fatal("granting q1 to p1 while p0 holds q0 with full cross-claims is unsafe")
	}
}

// The oracle keeps Assumption 2 on its own holder index: only the holder may
// release, and a refused or never-made grant leaves nothing to release.
func TestRefBankerReleaseByNonHolderErrors(t *testing.T) {
	ref, _ := NewRefBanker(2, 2)
	if err := ref.DeclareClaim(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := ref.Release(0, 0); err == nil {
		t.Error("release of a free resource accepted")
	}
	if g, err := ref.Request(0, 0); err != nil || !g {
		t.Fatalf("grant: %v %v", g, err)
	}
	if err := ref.Release(1, 0); err == nil {
		t.Error("release by a non-holder accepted")
	}
	if err := ref.Release(0, 0); err != nil {
		t.Errorf("release by the holder: %v", err)
	}
	if err := ref.Release(0, 0); err == nil {
		t.Error("double release accepted")
	}
}

// A claim declared while the process holds a resource is refused by both
// engines and changes nothing.  Accepted, the two late claims here would
// close the claim-wait cycle p1 → p2 → p1 (each holds what the other
// claims) without any request, an unsafe state Banker.safeAfter assumes
// cannot arise.  A process that holds nothing may still add claims.
func TestBankersRefuseLateClaim(t *testing.T) {
	fast, ref := newBankerPair(t, 3, 3)
	declareBoth(t, fast, ref, 0, 0)
	declareBoth(t, fast, ref, 1, 1)
	for p := 0; p < 2; p++ {
		fastGrant, fastErr := fast.Request(p, p)
		refGrant, refErr := ref.Request(p, p)
		if !fastGrant || !refGrant || fastErr != nil || refErr != nil {
			t.Fatalf("p%d req q%d: fast %v %v, ref %v %v", p+1, p+1, fastGrant, fastErr, refGrant, refErr)
		}
	}
	for _, late := range []struct{ p, q int }{{0, 1}, {1, 0}} {
		if err := fast.DeclareClaim(late.p, late.q); err == nil {
			t.Errorf("Banker accepted p%d's claim on q%d while p%d holds q%d", late.p+1, late.q+1, late.p+1, late.p+1)
		}
		if err := ref.DeclareClaim(late.p, late.q); err == nil {
			t.Errorf("RefBanker accepted p%d's claim on q%d while p%d holds q%d", late.p+1, late.q+1, late.p+1, late.p+1)
		}
		// Nothing changed: the refused claim does not let p request q.
		if _, err := fast.Request(late.p, late.q); err == nil {
			t.Errorf("Banker: a refused claim made q%d requestable by p%d", late.q+1, late.p+1)
		}
		if _, err := ref.Request(late.p, late.q); err == nil {
			t.Errorf("RefBanker: a refused claim made q%d requestable by p%d", late.q+1, late.p+1)
		}
	}
	declareBoth(t, fast, ref, 2, 0, 1, 2)
}

// Reset returns both engines to their state after construction: a reset
// engine and a fresh one of the other kind make the same decisions on the
// same traffic.
func TestBankerResetMatchesNew(t *testing.T) {
	const procs, resources = 12, 16
	rng := det.New(5)
	fast, ref := newBankerPair(t, procs, resources)
	for trial := 0; trial < 10; trial++ {
		claims := sparseClaims(rng, procs, resources)
		freshFast, freshRef := newBankerPair(t, procs, resources)
		for p, cl := range claims {
			declareBoth(t, fast, freshRef, p, cl...)
			declareBoth(t, freshFast, ref, p, cl...)
		}
		pick := func(p int) int { return claims[p][rng.Intn(len(claims[p]))] }
		if d := bankerDivergence(fast, freshRef, rng, pick, 300); d != "" {
			t.Fatalf("trial %d: reset Banker against a fresh RefBanker: %s", trial, d)
		}
		if d := bankerDivergence(freshFast, ref, rng, pick, 300); d != "" {
			t.Fatalf("trial %d: fresh Banker against a reset RefBanker: %s", trial, d)
		}
		fast.Reset()
		ref.Reset()
	}
}
