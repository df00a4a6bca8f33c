package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"deltartos/internal/analysis/passes"
	"deltartos/internal/det"
)

// -cpuprofile and -memprofile each write a non-empty profile when the
// command returns.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if code := deltalint([]string{"-list", "-cpuprofile", cpu, "-memprofile", mem}); code != 0 {
		t.Fatalf("exit status %d", code)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: profile missing or empty (%v)", filepath.Base(path), err)
		}
	}
}

// A manifest flag whose pass -run leaves out exits 2 before loading
// anything and writes no file, rather than an empty manifest.
func TestManifestFlagRequiresItsPass(t *testing.T) {
	for _, flag := range []string{"claims", "blocking", "races"} {
		out := filepath.Join(t.TempDir(), flag+".json")
		if code := deltalint([]string{"-run", "lockorder", "-" + flag, out, "./internal/app"}); code != 2 {
			t.Errorf("-%s without the %s pass: exit status %d, want 2", flag, flag, code)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("-%s without the %s pass wrote %s (stat: %v)", flag, flag, filepath.Base(out), err)
		}
	}
}

// Bounds that tie on scenario and task name must still sort into one
// order: every shuffle of the input gives the same -blocking JSON.  Each
// bound differs from the first in one field only, so leaving any field out
// of the comparator makes the result depend on the shuffle.
func TestBlockingManifestOrderIsTotal(t *testing.T) {
	base := passes.BlockingBound{Scenario: "Attach", Task: "Attach", Prio: -1, HasPrio: true,
		Chain: 43008, Overhead: 32768, Total: 75776, Finite: true}
	bounds := []passes.BlockingBound{base, base}
	for _, edit := range []func(*passes.BlockingBound){
		func(b *passes.BlockingBound) { b.Chain = 45056 },
		func(b *passes.BlockingBound) { b.Prio = 2 },
		func(b *passes.BlockingBound) { b.HasPrio = false },
		func(b *passes.BlockingBound) { b.Direct = 1 },
		func(b *passes.BlockingBound) { b.Ceiling = 1 },
		func(b *passes.BlockingBound) { b.Overhead = 1 },
		func(b *passes.BlockingBound) { b.Total = 1 },
		func(b *passes.BlockingBound) { b.Finite = false },
		func(b *passes.BlockingBound) { b.Reasons = []string{"loop"} },
		func(b *passes.BlockingBound) { b.Waits = []string{"q1"} },
		func(b *passes.BlockingBound) { b.DependsOn = []string{"Other"} },
	} {
		b := base
		edit(&b)
		bounds = append(bounds, b)
	}
	bounds = append(bounds, passes.BlockingBound{Scenario: "Attach", Task: "Another"})

	var want []byte
	rng := det.New(1)
	for trial := 0; trial < 50; trial++ {
		shuffled := slices.Clone(bounds)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		slices.SortFunc(shuffled, compareBounds)
		got, err := json.Marshal(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			want = got
		} else if string(got) != string(want) {
			t.Fatalf("shuffle %d sorted to a different manifest:\n%s\nwant\n%s", trial, got, want)
		}
	}
}
