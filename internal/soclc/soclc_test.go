package soclc

import (
	"strings"
	"testing"

	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

func newWorld(t *testing.T, pes int) (*sim.Sim, *rtos.Kernel) {
	t.Helper()
	s := sim.New()
	return s, rtos.NewKernel(s, pes)
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{ShortLocks: -1, LongLocks: 1, PEs: 1}).Validate(); err == nil {
		t.Error("negative short locks accepted")
	}
	if err := (Config{ShortLocks: 0, LongLocks: 0, PEs: 1}).Validate(); err == nil {
		t.Error("zero long locks accepted")
	}
	if err := (Config{ShortLocks: 8, LongLocks: 8, PEs: 4}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestSoftwareLocksUncontended(t *testing.T) {
	s, k := newWorld(t, 1)
	sl := NewSoftwareLocks(k, 2)
	k.CreateTask("a", 0, 1, 0, func(c *rtos.TaskCtx) {
		sl.Acquire(c, 0)
		c.Compute(100)
		sl.Release(c, 0)
	})
	s.Run()
	st := sl.Stats()
	if st.Acquires != 1 || st.Contended != 0 {
		t.Errorf("stats: %+v", st)
	}
	// Calibration anchor: software lock latency ~570 cycles (Table 10).
	if st.AvgLatency() < 400 || st.AvgLatency() > 750 {
		t.Errorf("software lock latency = %.0f, want ~570", st.AvgLatency())
	}
}

func TestLockCacheUncontendedLatency(t *testing.T) {
	s, k := newWorld(t, 1)
	lc, err := NewLockCache(k, Config{ShortLocks: 8, LongLocks: 8, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	k.CreateTask("a", 0, 2, 0, func(c *rtos.TaskCtx) {
		lc.Acquire(c, 0)
		c.Compute(100)
		lc.Release(c, 0)
	})
	s.Run()
	st := lc.Stats()
	// Calibration anchor: SoCLC lock latency ~318 cycles (Table 10).
	if st.AvgLatency() < 220 || st.AvgLatency() > 430 {
		t.Errorf("SoCLC lock latency = %.0f, want ~318", st.AvgLatency())
	}
}

func TestHardwareFasterThanSoftware(t *testing.T) {
	measure := func(mk func(k *rtos.Kernel) Manager) Stats {
		s, k := newWorld(t, 2)
		m := mk(k)
		k.CreateTask("a", 0, 2, 0, func(c *rtos.TaskCtx) {
			m.Acquire(c, 0)
			c.Compute(2000)
			m.Release(c, 0)
		})
		k.CreateTask("b", 1, 1, 300, func(c *rtos.TaskCtx) {
			m.Acquire(c, 0)
			c.Compute(100)
			m.Release(c, 0)
		})
		s.Run()
		return m.Stats()
	}
	sw := measure(func(k *rtos.Kernel) Manager { return NewSoftwareLocks(k, 1) })
	hw := measure(func(k *rtos.Kernel) Manager {
		lc, err := NewLockCache(k, Config{ShortLocks: 1, LongLocks: 1, PEs: 2})
		if err != nil {
			t.Fatal(err)
		}
		lc.SetCeiling(0, 1)
		return lc
	})
	if hw.AvgLatency() >= sw.AvgLatency() {
		t.Errorf("SoCLC latency %.0f !< software %.0f", hw.AvgLatency(), sw.AvgLatency())
	}
	if hw.AvgDelay() >= sw.AvgDelay() {
		t.Errorf("SoCLC delay %.0f !< software %.0f", hw.AvgDelay(), sw.AvgDelay())
	}
	// Paper ratios: 1.79X latency, 1.75X delay. Accept 1.3–2.6X.
	ratio := sw.AvgLatency() / hw.AvgLatency()
	if ratio < 1.3 || ratio > 2.6 {
		t.Errorf("latency ratio = %.2f, want ~1.79", ratio)
	}
}

func TestContendedHandoffOrder(t *testing.T) {
	s, k := newWorld(t, 3)
	lc, err := NewLockCache(k, Config{ShortLocks: 1, LongLocks: 2, PEs: 3})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	k.CreateTask("owner", 0, 4, 0, func(c *rtos.TaskCtx) {
		lc.Acquire(c, 0)
		c.Compute(5000)
		lc.Release(c, 0)
	})
	k.CreateTask("low", 1, 5, 500, func(c *rtos.TaskCtx) {
		lc.Acquire(c, 0)
		order = append(order, "low")
		lc.Release(c, 0)
	})
	k.CreateTask("high", 2, 1, 1000, func(c *rtos.TaskCtx) {
		lc.Acquire(c, 0)
		order = append(order, "high")
		lc.Release(c, 0)
	})
	s.Run()
	if len(order) != 2 || order[0] != "high" {
		t.Errorf("hand-off order = %v (SoCLC must grant by priority)", order)
	}
	if lc.Interrupts != 2 {
		t.Errorf("Interrupts = %d, want 2", lc.Interrupts)
	}
}

func TestIPCPRaisesOwnerImmediately(t *testing.T) {
	s, k := newWorld(t, 1)
	lc, err := NewLockCache(k, Config{ShortLocks: 1, LongLocks: 1, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	lc.SetCeiling(0, 1)
	var order []string
	k.CreateTask("t3", 0, 3, 0, func(c *rtos.TaskCtx) {
		lc.Acquire(c, 0)
		c.Compute(5000)
		lc.Release(c, 0)
		order = append(order, "t3")
	})
	k.CreateTask("t2", 0, 2, 1000, func(c *rtos.TaskCtx) {
		c.Compute(100)
		order = append(order, "t2")
	})
	s.Run()
	if len(order) != 2 || order[0] != "t3" {
		t.Errorf("IPCP order = %v: t2 preempted the raised CS", order)
	}
}

func TestCeilingRestoredAfterRelease(t *testing.T) {
	s, k := newWorld(t, 1)
	lc, err := NewLockCache(k, Config{ShortLocks: 1, LongLocks: 1, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	lc.SetCeiling(0, 1)
	var prioDuring, prioAfter int
	k.CreateTask("t", 0, 4, 0, func(c *rtos.TaskCtx) {
		lc.Acquire(c, 0)
		prioDuring = c.Task().CurPrio
		lc.Release(c, 0)
		prioAfter = c.Task().CurPrio
	})
	s.Run()
	if prioDuring != 1 {
		t.Errorf("priority during CS = %d, want ceiling 1", prioDuring)
	}
	if prioAfter != 4 {
		t.Errorf("priority after release = %d, want base 4", prioAfter)
	}
}

// A kernel mutex never touches priorities, so unlocking one inside a
// SoftwareLocks critical section keeps the inheritance boost the owner got
// from a blocked higher-priority waiter.
func TestMutexUnlockKeepsInheritedPriority(t *testing.T) {
	s, k := newWorld(t, 2)
	sl := NewSoftwareLocks(k, 1)
	mu := k.NewMutex("mu")
	var boosted, afterUnlock int
	k.CreateTask("low", 0, 5, 0, func(c *rtos.TaskCtx) {
		mu.Lock(c)
		sl.Acquire(c, 0)
		c.Compute(5000) // high blocks on lock 0 meanwhile
		boosted = c.Task().CurPrio
		mu.Unlock(c)
		afterUnlock = c.Task().CurPrio
		sl.Release(c, 0)
	})
	k.CreateTask("high", 1, 1, 1000, func(c *rtos.TaskCtx) {
		sl.Acquire(c, 0)
		sl.Release(c, 0)
	})
	s.Run()
	if boosted != 1 {
		t.Fatalf("priority while high waits = %d, want the inherited 1", boosted)
	}
	if afterUnlock != 1 {
		t.Errorf("priority after releasing the mutex = %d, want the inherited 1", afterUnlock)
	}
	if !s.AllDone() {
		t.Errorf("blocked: %v", s.Blocked())
	}
}

func TestReleaseByNonOwnerPanics(t *testing.T) {
	s, k := newWorld(t, 1)
	lc, _ := NewLockCache(k, Config{ShortLocks: 1, LongLocks: 1, PEs: 1})
	var recovered interface{}
	k.CreateTask("t", 0, 1, 0, func(c *rtos.TaskCtx) {
		defer func() { recovered = recover() }()
		lc.Release(c, 0)
	})
	s.Run()
	if recovered == nil {
		t.Error("release of unheld lock did not panic")
	}
}

func TestShortLockSpin(t *testing.T) {
	s, k := newWorld(t, 2)
	tr := trace.NewRecorder("spin")
	s.Rec = tr
	lc, _ := NewLockCache(k, Config{ShortLocks: 2, LongLocks: 1, PEs: 2})
	var maxIn, in int
	k.CreateTask("a", 0, 1, 0, func(c *rtos.TaskCtx) {
		for i := 0; i < 3; i++ {
			lc.AcquireShort(c, 0)
			in++
			if in > maxIn {
				maxIn = in
			}
			c.Compute(50)
			in--
			lc.ReleaseShort(c, 0)
			c.Compute(20)
		}
	})
	k.CreateTask("b", 1, 1, 10, func(c *rtos.TaskCtx) {
		for i := 0; i < 3; i++ {
			lc.AcquireShort(c, 0)
			in++
			if in > maxIn {
				maxIn = in
			}
			c.Compute(50)
			in--
			lc.ReleaseShort(c, 0)
			c.Compute(20)
		}
	})
	s.Run()
	if maxIn != 1 {
		t.Errorf("short lock exclusion violated: %d", maxIn)
	}
	if n := tr.Counters()["count.lock.acquire.short"]; n != 6 {
		t.Errorf("lock.acquire.short events = %d, want 6", n)
	}
}

func TestReleaseShortFreePanics(t *testing.T) {
	s, k := newWorld(t, 1)
	lc, _ := NewLockCache(k, Config{ShortLocks: 1, LongLocks: 1, PEs: 1})
	var recovered interface{}
	k.CreateTask("t", 0, 1, 0, func(c *rtos.TaskCtx) {
		defer func() { recovered = recover() }()
		lc.ReleaseShort(c, 0)
	})
	s.Run()
	if recovered == nil {
		t.Error("expected panic")
	}
}

func TestSynthesize(t *testing.T) {
	sr, err := Synthesize(Config{ShortLocks: 32, LongLocks: 16, PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~10,000 NAND2 gates for SoCLC with priority inheritance.
	if sr.AreaGates < 1500 || sr.AreaGates > 30000 {
		t.Errorf("SoCLC area = %d gates, outside plausible range", sr.AreaGates)
	}
	if sr.VerilogLines < 40 {
		t.Errorf("Verilog lines = %d", sr.VerilogLines)
	}
}

func TestSynthesizeScalesWithLocks(t *testing.T) {
	small, _ := Synthesize(Config{ShortLocks: 4, LongLocks: 4, PEs: 4})
	big, _ := Synthesize(Config{ShortLocks: 64, LongLocks: 32, PEs: 4})
	if big.AreaGates <= small.AreaGates {
		t.Error("area must grow with lock count")
	}
	if _, err := Synthesize(Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestGenerateWellFormed(t *testing.T) {
	f, err := Generate(Config{ShortLocks: 8, LongLocks: 8, PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if problems := f.Check(nil); len(problems) != 0 {
		t.Errorf("Verilog problems: %v", problems)
	}
	text := f.Emit()
	if !strings.Contains(text, "module soclc") || !strings.Contains(text, "lk_15") {
		t.Errorf("generated text missing content")
	}
	if _, err := Generate(Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestStatsZeroDivision(t *testing.T) {
	var st Stats
	if st.AvgLatency() != 0 || st.AvgDelay() != 0 {
		t.Error("zero stats should average to 0")
	}
}
