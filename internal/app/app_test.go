package app

import (
	"strings"
	"testing"

	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/socdmmu"
)

func newHW(t *testing.T) *HardwareDetector {
	t.Helper()
	d, err := NewHardwareDetector(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDetectionScenarioHardware(t *testing.T) {
	res := RunDetectionScenario(newHW(t))
	if !res.DeadlockFound {
		t.Fatal("hardware run did not detect the deadlock")
	}
	if res.Invocations < 9 || res.Invocations > 12 {
		t.Errorf("invocations = %d, want ~10 (paper)", res.Invocations)
	}
	// Paper anchor: 27714 cycles app run, 1.3 cycles per detection.
	if res.AppCycles < 25000 || res.AppCycles > 31000 {
		t.Errorf("app cycles = %d, want ~27714", res.AppCycles)
	}
	if res.AvgDetectCycles < 1 || res.AvgDetectCycles > 3 {
		t.Errorf("avg detect = %.1f, want ~1.3", res.AvgDetectCycles)
	}
}

func TestDetectionScenarioSoftware(t *testing.T) {
	res := RunDetectionScenario(NewSoftwareDetector(5, 5))
	if !res.DeadlockFound {
		t.Fatal("software run did not detect the deadlock")
	}
	// Paper anchor: 1830 cycles per invocation, 40523 app cycles.
	if res.AvgDetectCycles < 1300 || res.AvgDetectCycles > 2600 {
		t.Errorf("avg detect = %.0f, want ~1830", res.AvgDetectCycles)
	}
	if res.AppCycles < 31000 || res.AppCycles > 45000 {
		t.Errorf("app cycles = %d, want ~40523 regime", res.AppCycles)
	}
}

func TestDetectionHardwareBeatsSoftware(t *testing.T) {
	hw := RunDetectionScenario(newHW(t))
	sw := RunDetectionScenario(NewSoftwareDetector(5, 5))
	if hw.AppCycles >= sw.AppCycles {
		t.Errorf("DDU app (%d) not faster than software app (%d)", hw.AppCycles, sw.AppCycles)
	}
	ratio := sw.AvgDetectCycles / hw.AvgDetectCycles
	if ratio < 500 {
		t.Errorf("algorithm speed-up %.0fX, want >500X (paper: 1408X)", ratio)
	}
}

func TestDetectionDeterministic(t *testing.T) {
	a := RunDetectionScenario(NewSoftwareDetector(5, 5))
	b := RunDetectionScenario(NewSoftwareDetector(5, 5))
	if a.AppCycles != b.AppCycles || a.Invocations != b.Invocations {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func mkHWBackend(t *testing.T) *HardwareAvoidance {
	b, err := NewHardwareAvoidance(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mkSWBackend(t *testing.T) *SoftwareAvoidance {
	b, err := NewSoftwareAvoidance(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGrantDeadlockScenario(t *testing.T) {
	for _, b := range []AvoidanceBackend{mkHWBackend(t), mkSWBackend(t)} {
		res := RunGrantDeadlockScenario(b)
		if !res.GDlAvoided {
			t.Fatalf("%s: grant deadlock not avoided", res.Mechanism)
		}
		if !res.Completed {
			t.Fatalf("%s: application did not complete", res.Mechanism)
		}
		if res.Invocations != 12 {
			t.Errorf("%s: invocations = %d, want 12 (Table 7)", res.Mechanism, res.Invocations)
		}
	}
}

func TestRequestDeadlockScenario(t *testing.T) {
	for _, b := range []AvoidanceBackend{mkHWBackend(t), mkSWBackend(t)} {
		res := RunRequestDeadlockScenario(b)
		if !res.RDlAvoided {
			t.Fatalf("%s: request deadlock not avoided", res.Mechanism)
		}
		if !res.Completed {
			t.Fatalf("%s: application did not complete", res.Mechanism)
		}
		if res.Invocations != 14 {
			t.Errorf("%s: invocations = %d, want 14 (Table 9)", res.Mechanism, res.Invocations)
		}
	}
}

func TestAvoidanceHardwareBeatsSoftware(t *testing.T) {
	hwG := RunGrantDeadlockScenario(mkHWBackend(t))
	swG := RunGrantDeadlockScenario(mkSWBackend(t))
	if hwG.AppCycles >= swG.AppCycles {
		t.Errorf("G-dl: DAU app (%d) not faster than DAA app (%d)", hwG.AppCycles, swG.AppCycles)
	}
	ratio := swG.AvgAlgCycles / hwG.AvgAlgCycles
	if ratio < 100 {
		t.Errorf("G-dl algorithm speed-up %.0fX, want >100X (paper: 312X)", ratio)
	}
	// DAU average algorithm time anchor: ~7 cycles.
	if hwG.AvgAlgCycles < 3 || hwG.AvgAlgCycles > 12 {
		t.Errorf("DAU avg = %.2f, want ~7", hwG.AvgAlgCycles)
	}
}

func TestRobotScenarioTable10Shape(t *testing.T) {
	sw := RunRobotScenario(NewRTOS5Locks, false)
	hw := RunRobotScenario(NewRTOS6Locks, false)
	// Latency anchors: 570 vs 318 (paper), 1.79X.
	if sw.LockLatency < 450 || sw.LockLatency > 700 {
		t.Errorf("RTOS5 lock latency = %.0f, want ~570", sw.LockLatency)
	}
	if hw.LockLatency < 240 || hw.LockLatency > 400 {
		t.Errorf("RTOS6 lock latency = %.0f, want ~318", hw.LockLatency)
	}
	if sw.LockLatency <= hw.LockLatency {
		t.Error("software latency should exceed SoCLC latency")
	}
	if sw.LockDelay <= hw.LockDelay {
		t.Errorf("software delay (%.0f) should exceed SoCLC delay (%.0f)", sw.LockDelay, hw.LockDelay)
	}
	if sw.OverallCycles <= hw.OverallCycles {
		t.Errorf("RTOS5 overall (%d) should exceed RTOS6 (%d)", sw.OverallCycles, hw.OverallCycles)
	}
	if !hw.DeadlinesMet {
		t.Error("RTOS6 missed hard deadlines")
	}
	// Overall times in the paper's regime (~78k-112k cycles).
	if sw.OverallCycles < 60000 || sw.OverallCycles > 180000 {
		t.Errorf("RTOS5 overall = %d, outside plausible range", sw.OverallCycles)
	}
}

func TestRobotTraceShowsIPCP(t *testing.T) {
	hw := RunRobotScenario(NewRTOS6Locks, true)
	if len(hw.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	var sawDispatch bool
	for _, ev := range hw.Trace {
		if ev.What == "dispatch" && ev.Task == "task3" {
			sawDispatch = true
		}
	}
	if !sawDispatch {
		t.Error("trace missing task3 dispatch events")
	}
}

func TestSplashKernelsVerify(t *testing.T) {
	// LU / FFT / RADIX with both allocators must verify numerically.
	for _, mk := range []func() socdmmu.Allocator{NewGlibcAllocator, NewSoCDMMUAllocator} {
		if r := RunLU(mk); !r.Verified {
			t.Errorf("LU/%s verification failed", r.Allocator)
		}
		if r := RunFFT(mk); !r.Verified {
			t.Errorf("FFT/%s verification failed", r.Allocator)
		}
		if r := RunRadix(mk); !r.Verified {
			t.Errorf("RADIX/%s verification failed", r.Allocator)
		}
	}
}

func TestSplashTable11Shape(t *testing.T) {
	lu := RunLU(NewGlibcAllocator)
	fft := RunFFT(NewGlibcAllocator)
	radix := RunRadix(NewGlibcAllocator)
	// Management shares in the paper's regime: LU ~10%, FFT ~27%, RADIX ~20%.
	if lu.MgmtPercent < 5 || lu.MgmtPercent > 16 {
		t.Errorf("LU mgmt%% = %.1f, want ~10", lu.MgmtPercent)
	}
	if fft.MgmtPercent < 14 || fft.MgmtPercent > 33 {
		t.Errorf("FFT mgmt%% = %.1f, want ~22-27", fft.MgmtPercent)
	}
	if radix.MgmtPercent < 12 || radix.MgmtPercent > 28 {
		t.Errorf("RADIX mgmt%% = %.1f, want ~20", radix.MgmtPercent)
	}
	// FFT manages the most memory relative to the others per cycle.
	if fft.MgmtPercent <= lu.MgmtPercent {
		t.Error("FFT should have the largest management share (Table 11 ordering)")
	}
}

func TestSplashTable12Reductions(t *testing.T) {
	for _, pair := range []struct {
		name string
		run  func(func() socdmmu.Allocator, ...Option) SplashResult
	}{
		{"LU", RunLU}, {"FFT", RunFFT}, {"RADIX", RunRadix},
	} {
		sw := pair.run(NewGlibcAllocator)
		hw := pair.run(NewSoCDMMUAllocator)
		red := 100 * (1 - float64(hw.MgmtCycles)/float64(sw.MgmtCycles))
		if red < 90 {
			t.Errorf("%s: mgmt reduction %.1f%%, want >=90%% (paper: 95-97%%)", pair.name, red)
		}
		if hw.TotalCycles >= sw.TotalCycles {
			t.Errorf("%s: SoCDMMU total (%d) not below software (%d)", pair.name, hw.TotalCycles, sw.TotalCycles)
		}
	}
}

func TestResourceManagerBasics(t *testing.T) {
	s := sim.New()
	k := rtos.NewKernel(s, 2)
	devices := sim.StandardDevices(s)
	det := NewSoftwareDetector(2, len(devices))
	rm := NewResourceManager(k, det, 2, devices)
	rm.SetPriority(0, 1)
	rm.SetPriority(1, 2)
	var order []string
	k.CreateTask("a", 0, 1, 0, func(c *rtos.TaskCtx) {
		rm.Request(c, 0, 0)
		c.Compute(5000)
		rm.Release(c, 0, 0)
		order = append(order, "a-released")
	})
	k.CreateTask("b", 1, 2, 100, func(c *rtos.TaskCtx) {
		rm.Request(c, 1, 0) // pends behind a
		order = append(order, "b-granted")
		rm.Release(c, 1, 0)
	})
	s.Run()
	if len(order) != 2 || order[0] != "a-released" || order[1] != "b-granted" {
		t.Errorf("order = %v", order)
	}
	if rm.DeadlockSeen {
		t.Error("false deadlock")
	}
	if det.Invocations() == 0 {
		t.Error("no detection invocations")
	}
}

func TestSoftwareDetectorPadding(t *testing.T) {
	s := sim.New()
	k := rtos.NewKernel(s, 1)
	devices := sim.StandardDevices(s)
	small := NewSoftwareDetector(2, len(devices)) // the graph's own size
	padded := NewSoftwareDetector(12, 12)         // padded to 12x12
	rmS := NewResourceManager(k, small, 2, devices)
	rmP := NewResourceManager(k, padded, 2, devices)
	k.CreateTask("a", 0, 1, 0, func(c *rtos.TaskCtx) {
		rmS.Request(c, 0, 0)
		rmP.Request(c, 0, 1)
	})
	s.Run()
	if padded.TotalCost() <= small.TotalCost() {
		t.Errorf("padded detection (%d) should cost more than native (%d)",
			padded.TotalCost(), small.TotalCost())
	}
}

// Every scenario runner closes the simulations it builds once it has read
// its results, so no blocked task or idle coroutine outlives the run.
func TestScenariosCloseTheirSimulations(t *testing.T) {
	for _, sc := range []struct {
		name string
		run  func(opts ...Option)
	}{
		{"detection", func(o ...Option) { RunDetectionScenario(NewSoftwareDetector(5, 5), o...) }},
		{"grant-deadlock", func(o ...Option) { RunGrantDeadlockScenario(mkSWBackend(t), o...) }},
		{"request-deadlock", func(o ...Option) { RunRequestDeadlockScenario(mkSWBackend(t), o...) }},
		{"robot", func(o ...Option) { RunRobotScenario(NewRTOS6Locks, false, o...) }},
		{"radix", func(o ...Option) { RunRadix(NewSoCDMMUAllocator, o...) }},
		{"radix-parallel", func(o ...Option) { RunRadixParallel(NewSoCDMMUAllocator, 2, o...) }},
	} {
		var sims []*sim.Sim
		sc.run(WithSimHooks(&sim.Hooks{OnNew: func(s *sim.Sim) { sims = append(sims, s) }}))
		if len(sims) == 0 {
			t.Fatalf("%s: built no simulation", sc.name)
		}
		for _, s := range sims {
			if msg := spawnPanic(s); !strings.Contains(msg, "closed") {
				t.Errorf("%s: simulation left open (Spawn: %q)", sc.name, msg)
			}
		}
	}
}

// spawnPanic returns the panic message of a Spawn into s ("" if none).
func spawnPanic(s *sim.Sim) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	s.Spawn("probe", -1, func(*sim.Proc) {})
	return ""
}
