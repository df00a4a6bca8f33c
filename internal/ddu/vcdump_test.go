package ddu

import (
	"strings"
	"testing"

	"deltartos/internal/rag"
)

func TestDumpDetectionVCDChain(t *testing.T) {
	var b strings.Builder
	res, err := DumpDetectionVCD(Config{Procs: 5, Resources: 5}, rag.Chain(5, 5).Matrix(), &b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock {
		t.Error("chain falsely deadlocked")
	}
	if res.Iterations != 5 || res.Steps != 6 {
		t.Errorf("iterations=%d steps=%d", res.Iterations, res.Steps)
	}
	text := b.String()
	for _, want := range []string{
		"$scope module ddu $end",
		"$scope module matrix $end",
		"req_q1", "grant_q5", "row_tau", "col_phi", "t_iter", "deadlock",
		"#0", "#5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("waveform missing %q", want)
		}
	}
}

func TestDumpDetectionVCDDeadlock(t *testing.T) {
	var b strings.Builder
	res, err := DumpDetectionVCD(Config{Procs: 3, Resources: 3}, rag.CycleGraph(3, 3, 3).Matrix(), &b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlock {
		t.Error("cycle not detected")
	}
	// The deadlock wire must assert somewhere in the dump.
	if !strings.Contains(b.String(), "deadlock") {
		t.Error("deadlock wire missing")
	}
}

func TestDumpDetectionVCDBadInput(t *testing.T) {
	var b strings.Builder
	if _, err := DumpDetectionVCD(Config{}, rag.NewMatrix(2, 2), &b); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := DumpDetectionVCD(Config{Procs: 2, Resources: 2}, rag.NewMatrix(5, 5), &b); err == nil {
		t.Error("oversized matrix accepted")
	}
}

func TestDumpMatchesUnit(t *testing.T) {
	g := rag.Random(randSource(), 6, 6, 0.7, 0.3)
	var b strings.Builder
	res, err := DumpDetectionVCD(Config{Procs: 6, Resources: 6}, g.Matrix(), &b)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := New(Config{Procs: 6, Resources: 6})
	load(u, g)
	fast := u.Detect()
	if res.Deadlock != fast.Deadlock || res.Iterations != fast.Iterations {
		t.Errorf("dump (%v,%d) != unit (%v,%d)", res.Deadlock, res.Iterations, fast.Deadlock, fast.Iterations)
	}
}
