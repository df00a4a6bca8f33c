package ddu

import (
	"testing"

	"deltartos/internal/det"
	"deltartos/internal/rag"
)

func TestInjectFaultValidation(t *testing.T) {
	u := mustNew(t, 3, 3)
	if err := u.InjectFault(5, 0, rag.Grant); err == nil {
		t.Error("out-of-range fault accepted")
	}
	if err := u.InjectFault(0, 0, rag.Cell(3)); err == nil {
		t.Error("invalid stuck value accepted")
	}
	if err := u.InjectFault(0, 0, rag.Grant); err != nil {
		t.Fatal(err)
	}
	if len(u.Faults()) != 1 {
		t.Errorf("Faults = %v", u.Faults())
	}
	u.ClearFaults()
	if len(u.Faults()) != 0 {
		t.Error("ClearFaults left faults")
	}
}

// A stuck request cell can fabricate a deadlock that is not there.
func TestStuckCellCausesFalsePositive(t *testing.T) {
	u := mustNew(t, 2, 2)
	// True state: p1 holds q1, p2 holds q2, p2 waits for q1 — no cycle.
	u.SetGrant(0, 0)
	u.SetGrant(1, 1)
	u.SetRequest(0, 1)
	if res := u.Detect(); res.Deadlock {
		t.Fatal("healthy unit misdetected")
	}
	// Fault: cell (q2, p1) stuck at request — fabricates p1 -> q2, closing
	// the cycle inside the unit only.
	if err := u.InjectFault(1, 0, rag.Request); err != nil {
		t.Fatal(err)
	}
	if res := u.Detect(); !res.Deadlock {
		t.Fatal("stuck-at fault did not change the verdict (fault model inert)")
	}
	// The golden check sees the divergence.
	cc := u.CrossCheck()
	if !cc.Mismatch || !cc.Hardware || cc.Software {
		t.Errorf("cross-check: %+v", cc)
	}
}

// A stuck-clear cell can HIDE a real deadlock — the dangerous direction.
func TestStuckCellMasksDeadlock(t *testing.T) {
	u := mustNew(t, 2, 2)
	u.SetGrant(0, 0)
	u.SetGrant(1, 1)
	u.SetRequest(0, 1) // p2 -> q1
	u.SetRequest(1, 0) // p1 -> q2: real cycle
	if res := u.Detect(); !res.Deadlock {
		t.Fatal("healthy unit missed the cycle")
	}
	if err := u.InjectFault(1, 0, rag.None); err != nil {
		t.Fatal(err)
	}
	if res := u.Detect(); res.Deadlock {
		t.Fatal("stuck-clear fault did not mask the deadlock")
	}
	cc := u.CrossCheck()
	if !cc.Mismatch || cc.Hardware || !cc.Software {
		t.Errorf("cross-check: %+v", cc)
	}
}

func TestCrossCheckHealthyUnitNeverMismatches(t *testing.T) {
	rng := det.New(31415)
	for i := 0; i < 200; i++ {
		g := rag.Random(rng, 1+rng.Intn(6), 1+rng.Intn(6), 0.7, 0.3)
		m, n := g.Size()
		u, err := New(Config{Procs: n, Resources: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := u.Load(g); err != nil {
			t.Fatal(err)
		}
		if cc := u.CrossCheck(); cc.Mismatch {
			t.Fatalf("case %d: healthy unit mismatched: %+v", i, cc)
		}
	}
}

// Random fault campaign: across many random states and random single-cell
// faults, every verdict CHANGE is caught by the cross-check (no silent
// corruption), and verdict-preserving faults never raise false alarms.
func TestFaultCampaignCrossCheckCatchesAllFlips(t *testing.T) {
	rng := det.New(909)
	flips := 0
	for i := 0; i < 300; i++ {
		g := rag.Random(rng, 2+rng.Intn(4), 2+rng.Intn(4), 0.7, 0.35)
		m, n := g.Size()
		u, err := New(Config{Procs: n, Resources: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := u.Load(g); err != nil {
			t.Fatal(err)
		}
		truth := g.HasCycle()
		stuck := rag.Cell([]rag.Cell{rag.None, rag.Grant, rag.Request}[rng.Intn(3)])
		if err := u.InjectFault(rng.Intn(m), rng.Intn(n), stuck); err != nil {
			t.Fatal(err)
		}
		cc := u.CrossCheck()
		if cc.Software != truth {
			t.Fatalf("case %d: software side corrupted by fault injection", i)
		}
		if cc.Mismatch != (cc.Hardware != truth) {
			t.Fatalf("case %d: mismatch flag inconsistent: %+v truth=%v", i, cc, truth)
		}
		if cc.Mismatch {
			flips++
		}
	}
	if flips == 0 {
		t.Error("fault campaign produced no verdict flips; fault model too weak")
	}
}

// Faults act on the detection snapshot only: a faulty Detect leaves the true
// cells (Matrix) untouched, so the cross-check, which reads them, still sees
// the divergence.
func TestFaultyDetectKeepsTrueCells(t *testing.T) {
	u := mustNew(t, 3, 3)
	u.SetGrant(0, 0)
	u.SetGrant(1, 1)
	u.SetRequest(0, 1)
	before := u.Matrix().Clone()
	if err := u.InjectFault(1, 0, rag.Request); err != nil {
		t.Fatal(err)
	}
	if !u.Detect().Deadlock {
		t.Fatal("stuck-at fault did not change the verdict")
	}
	if !u.Matrix().Equal(before) {
		t.Errorf("faulty Detect changed the true cells:\n%swant:\n%s", u.Matrix(), before)
	}
	if cc := u.CrossCheck(); !cc.Mismatch || !cc.Hardware || cc.Software {
		t.Errorf("cross-check: %+v", cc)
	}
	if !u.Matrix().Equal(before) {
		t.Error("CrossCheck changed the true cells")
	}
}
