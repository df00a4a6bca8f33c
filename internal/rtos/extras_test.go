package rtos

import (
	"testing"

	"deltartos/internal/sim"
)

func mustPanicExtras(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestBarrierReleasesAllTogether(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 4)
	bar := k.NewBarrier("phase", 4)
	var releases []sim.Cycles
	for pe := 0; pe < 4; pe++ {
		pe := pe
		k.CreateTask("w", pe, 1, 0, func(c *TaskCtx) {
			c.Compute(sim.Cycles(1000 * (pe + 1))) // staggered arrival
			bar.Wait(c)
			releases = append(releases, c.Now())
		})
	}
	s.Run()
	if len(releases) != 4 {
		t.Fatalf("releases = %v", releases)
	}
	// Nobody passes before the slowest arrival (~4000 cycles).
	for _, r := range releases {
		if r < 4000 {
			t.Errorf("released at %d, before last arrival", r)
		}
	}
	if bar.Rounds != 1 {
		t.Errorf("Rounds = %d", bar.Rounds)
	}
}

func TestBarrierReusableAcrossRounds(t *testing.T) {
	s := sim.New()
	k := NewKernel(s, 2)
	bar := k.NewBarrier("loop", 2)
	counts := make([]int, 2)
	for pe := 0; pe < 2; pe++ {
		pe := pe
		k.CreateTask("w", pe, 1, 0, func(c *TaskCtx) {
			for round := 0; round < 5; round++ {
				c.Compute(sim.Cycles(100 * (pe + 1)))
				bar.Wait(c)
				counts[pe]++
			}
		})
	}
	s.Run()
	if counts[0] != 5 || counts[1] != 5 {
		t.Errorf("counts = %v", counts)
	}
	if bar.Rounds != 5 {
		t.Errorf("Rounds = %d, want 5", bar.Rounds)
	}
	if !s.AllDone() {
		t.Errorf("blocked: %v", s.Blocked())
	}
}

func TestBarrierPanicsOnZero(t *testing.T) {
	mustPanicExtras(t, func() { NewKernel(sim.New(), 1).NewBarrier("x", 0) })
}
