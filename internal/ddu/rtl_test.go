package ddu

import (
	"testing"

	"deltartos/internal/det"
	"deltartos/internal/rag"
)

func TestRTLValidation(t *testing.T) {
	if _, err := NewRTL(Config{}); err == nil {
		t.Error("invalid config accepted")
	}
	m, err := NewRTL(Config{Procs: 3, Resources: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(rag.NewMatrix(5, 5)); err == nil {
		t.Error("oversized matrix accepted")
	}
}

func TestRTLSimpleCycle(t *testing.T) {
	m, _ := NewRTL(Config{Procs: 3, Resources: 3})
	g := rag.CycleGraph(3, 3, 2)
	if err := m.Load(g.Matrix()); err != nil {
		t.Fatal(err)
	}
	dead, k := m.Run()
	steps := HardwareSteps(k)
	if !dead {
		t.Error("RTL missed the cycle")
	}
	if k != 0 {
		t.Errorf("pure 2-cycle should be irreducible, k=%d", k)
	}
	if steps != 2 {
		t.Errorf("steps = %d", steps)
	}
}

func TestRTLChainReduces(t *testing.T) {
	m, _ := NewRTL(Config{Procs: 5, Resources: 5})
	if err := m.Load(rag.Chain(5, 5).Matrix()); err != nil {
		t.Fatal(err)
	}
	dead, k := m.Run()
	steps := HardwareSteps(k)
	if dead {
		t.Error("chain falsely deadlocked")
	}
	if k != 5 || steps != 6 {
		t.Errorf("k=%d steps=%d, want 5/6 (Table 1 anchor)", k, steps)
	}
	// All cells cleared.
	for s := 0; s < 5; s++ {
		for c := 0; c < 5; c++ {
			if m.Cell(s, c) != rag.None {
				t.Fatalf("cell (%d,%d) not cleared", s, c)
			}
		}
	}
}

// The RTL cell model and the word-parallel Unit must agree on EVERYTHING:
// decision, iteration count and step count, for random states and the same
// embedding behaviour.
func TestRTLEquivalence(t *testing.T) {
	rng := det.New(1234)
	for i := 0; i < 500; i++ {
		mSize := 1 + rng.Intn(8)
		nSize := 1 + rng.Intn(8)
		g := rag.Random(rng, mSize, nSize, 0.7, 0.35)

		unit, err := New(Config{Procs: nSize, Resources: mSize})
		if err != nil {
			t.Fatal(err)
		}
		if err := unit.Load(g); err != nil {
			t.Fatal(err)
		}
		fast := unit.Detect()

		rtl, err := NewRTL(Config{Procs: nSize, Resources: mSize})
		if err != nil {
			t.Fatal(err)
		}
		if err := rtl.Load(g.Matrix()); err != nil {
			t.Fatal(err)
		}
		dead, k := rtl.Run()
		steps := HardwareSteps(k)

		if dead != fast.Deadlock || k != fast.Iterations || steps != fast.Steps {
			t.Fatalf("case %d: RTL (%v,%d,%d) != Unit (%v,%d,%d)\n%s",
				i, dead, k, steps, fast.Deadlock, fast.Iterations, fast.Steps, g.Matrix())
		}
	}
}

func TestRTLWeightNets(t *testing.T) {
	// Row with grant+request -> φ asserted, τ clear; column with request
	// only -> τ asserted.
	m, _ := NewRTL(Config{Procs: 3, Resources: 2})
	mx := rag.NewMatrix(2, 3)
	mx.Set(0, 0, rag.Grant)
	mx.Set(0, 1, rag.Request)
	if err := m.Load(mx); err != nil {
		t.Fatal(err)
	}
	if m.RowTau[0] || !m.RowPhi[0] {
		t.Errorf("row 0 nets: tau=%v phi=%v", m.RowTau[0], m.RowPhi[0])
	}
	if !m.ColTau[1] || m.ColPhi[1] {
		t.Errorf("col 1 nets: tau=%v phi=%v", m.ColTau[1], m.ColPhi[1])
	}
	if !m.ColTau[0] { // grant-only column is terminal too
		t.Error("col 0 should be terminal")
	}
	if !m.TIter {
		t.Error("T_iter should assert with terminals present")
	}
	if m.DIter {
		t.Error("D_iter must not assert while T_iter is high")
	}
}

func TestRTLLoadCells(t *testing.T) {
	m, _ := NewRTL(Config{Procs: 3, Resources: 3})
	full := rag.NewMatrix(3, 3)
	for s := 0; s < 3; s++ {
		for c := 0; c < 3; c++ {
			full.Set(s, c, rag.Request)
		}
	}
	if err := m.Load(full); err != nil {
		t.Fatal(err)
	}
	// A smaller matrix lands top-left and clears every spare cell.
	mx := rag.NewMatrix(2, 2)
	mx.Set(0, 1, rag.Request)
	mx.Set(1, 0, rag.Grant)
	if err := m.Load(mx); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		for c := 0; c < 3; c++ {
			want := rag.None
			switch {
			case s == 0 && c == 1:
				want = rag.Request
			case s == 1 && c == 0:
				want = rag.Grant
			}
			if got := m.Cell(s, c); got != want {
				t.Errorf("cell (%d,%d) = %v, want %v", s, c, got, want)
			}
		}
	}
}
