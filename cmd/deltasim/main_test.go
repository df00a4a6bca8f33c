package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"deltartos/internal/experiments"
	"deltartos/internal/rtos"
	"deltartos/internal/trace"
)

// -cpuprofile and -memprofile each write a non-empty profile when the
// command returns.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if code := deltasim([]string{"-list", "-cpuprofile", cpu, "-memprofile", mem}); code != 0 {
		t.Fatalf("exit status %d", code)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: profile missing or empty (%v)", filepath.Base(path), err)
		}
	}
}

// -exp fig20 -vcd dumps the schedule Kernel.TraceFn collected; it must be
// the waveform of the KindSched events a recorder takes from a traced
// Fig. 20 run, so the two views of one schedule cannot diverge.
func TestVCDMatchesRecordedSchedule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig20.vcd")
	if code := deltasim([]string{"-exp", "fig20", "-vcd", path}); code != 0 {
		t.Fatalf("exit status %d", code)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	sess := trace.NewSession()
	if _, _, err := experiments.RunFig20(&experiments.RunCtx{Session: sess, Label: "fig20"}); err != nil {
		t.Fatal(err)
	}
	if sess.Len() != 1 {
		t.Fatalf("%d traced simulations, want 1", sess.Len())
	}
	var sched []trace.Event
	for _, ev := range sess.Recorders()[0].Events() {
		if ev.Kind == trace.KindSched {
			sched = append(sched, ev)
		}
	}
	var want bytes.Buffer
	if err := rtos.WriteScheduleVCD(&want, sched, 4); err != nil {
		t.Fatal(err)
	}
	if len(sched) == 0 || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("-vcd waveform (%d bytes) differs from the recorded schedule's (%d bytes, %d events)", len(got), want.Len(), len(sched))
	}
}
