package daa

import (
	"testing"

	"deltartos/internal/det"
)

// The word-parallel Banker and the per-cell RefBanker must make identical
// grant/refuse decisions on identical traffic — random claim sets and
// request/release streams across word-boundary geometries.
func TestBankerMatchesRefBanker(t *testing.T) {
	rng := det.New(41)
	geometries := []struct{ procs, resources int }{
		{1, 1}, {3, 5}, {5, 64}, {4, 65}, {8, 127}, {12, 200}, {64, 8},
	}
	for _, geo := range geometries {
		for trial := 0; trial < 10; trial++ {
			fast, err := NewBanker(geo.procs, geo.resources)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewRefBanker(geo.procs, geo.resources)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < geo.procs; p++ {
				for q := 0; q < geo.resources; q++ {
					if rng.Float64() < 0.5 {
						if err := fast.DeclareClaim(p, q); err != nil {
							t.Fatal(err)
						}
						if err := ref.DeclareClaim(p, q); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			for step := 0; step < 500; step++ {
				p := rng.Intn(geo.procs)
				q := rng.Intn(geo.resources)
				if held := fast.Graph().HeldBy(p); len(held) > 0 && rng.Float64() < 0.4 {
					q = held[rng.Intn(len(held))]
					if err := fast.Release(p, q); err != nil {
						t.Fatalf("%d procs x %d res trial %d step %d: fast release: %v",
							geo.procs, geo.resources, trial, step, err)
					}
					if err := ref.Release(p, q); err != nil {
						t.Fatalf("%d procs x %d res trial %d step %d: ref release: %v",
							geo.procs, geo.resources, trial, step, err)
					}
					continue
				}
				fastGrant, fastErr := fast.Request(p, q)
				refGrant, refErr := ref.Request(p, q)
				if (fastErr == nil) != (refErr == nil) {
					t.Fatalf("%d procs x %d res trial %d step %d: error divergence: fast=%v ref=%v",
						geo.procs, geo.resources, trial, step, fastErr, refErr)
				}
				if fastGrant != refGrant {
					t.Fatalf("%d procs x %d res trial %d step %d: p%d req q%d: fast granted=%v ref granted=%v",
						geo.procs, geo.resources, trial, step, p, q, fastGrant, refGrant)
				}
			}
			if fast.Refusals != ref.Refusals {
				t.Fatalf("%d procs x %d res trial %d: refusal counts diverge: fast=%d ref=%d",
					geo.procs, geo.resources, trial, fast.Refusals, ref.Refusals)
			}
		}
	}
}

// Warm Banker and Avoider must decide steady-state traffic without
// allocating: the safety scan runs in Banker-owned scratch and the avoider's
// tentative edges land in a reused trial graph plus a pdda.Scratch.
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
