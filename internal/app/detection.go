package app

import (
	"deltartos/internal/rtos"
	"deltartos/internal/sim"
)

// DetectionResult is the measurement of one detection-scenario run (one
// column of Table 5).
type DetectionResult struct {
	Mechanism       string
	Invocations     int
	AvgDetectCycles float64    // "Algorithm Run Time"
	AppCycles       sim.Cycles // "Application Run Time" (start to deadlock detected)
	DeadlockFound   bool
	// DeadlockedProcs and DeadlockedResources are the irreducible core of
	// the RAG at the moment of detection (nil when nothing deadlocked).
	DeadlockedProcs     []int
	DeadlockedResources []int
}

// Scenario timing.  Table 4 fixes the event ORDER; absolute times are our
// calibration choice (the paper's IDCT anchor is 23,600 cycles for the 64x64
// test frame).  p2 and p3 issue their requests late in p1's frame so their
// allocation-service activity overlaps p1's release path, as it does in the
// co-simulation.
const (
	viReceiveCycles = 3300
	dspWorkCycles   = 2500
	p3RequestAt     = 21500
	p2RequestAt     = 24500
	p4RequestAt     = 9000
	resVI           = 0
	resIDCT         = 1
	resDSP          = 2
	resWI           = 3
)

// RunDetectionScenario executes the Jini-inspired lookup application of
// Section 5.3 (Table 4 / Figure 15) on a 4-PE MPSoC, with deadlock
// detection performed by det, which the caller sizes for the system (the
// paper's RTOS1 compiles PDDA for the 5-process/5-resource maximum).  It
// returns the Table 5 measurements.
//
// Event sequence (Table 4):
//
//	e1: p1 requests IDCT and VI; both granted; p1 receives a video stream
//	    through the VI and runs IDCT processing (~23,600 cycles).
//	e2: p3 requests IDCT and WI; only WI granted.
//	e3: p2 requests IDCT and WI; both pend.
//	e4: p1 releases IDCT (and its VI).
//	e5: IDCT is granted to p2 (higher priority than p3) — grant deadlock:
//	    p2 holds IDCT waiting for WI, p3 holds WI waiting for IDCT.
//
// A fourth process p4 exercises the DSP during the run (lookup-service
// background traffic), bringing the number of detection invocations to the
// paper's 10.  The application cannot finish: the run ends when the event
// queue drains with p2 and p3 deadlocked, and AppCycles is the time the
// deadlock was detected.
//
//deltalint:deadlock-expected the scenario exists to exercise the DDU/PDDA
func RunDetectionScenario(det Detector, opts ...sim.Option) DetectionResult {
	s := sim.New(opts...)
	defer s.Close()
	k := rtos.NewKernel(s, 4)
	devices := sim.StandardDevices(s)
	rm := NewResourceManager(k, det, 4, devices)
	for p := 0; p < 4; p++ {
		rm.SetPriority(p, p+1) // p1 highest .. p4 lowest
	}

	// p1: video pipeline.
	k.CreateTask("p1", 0, 1, 0, func(c *rtos.TaskCtx) {
		rm.RequestBoth(c, 0, resIDCT, resVI) // e1
		c.RunOn(devices[resVI], viReceiveCycles)
		c.RunOn(devices[resIDCT], sim.IDCTFrameCycles)
		rm.Release(c, 0, resVI)   // part of e4
		rm.Release(c, 0, resIDCT) // e4 -> e5 grant to p2 closes the cycle
		// p1 would continue with the next frame; the deadlock leaves the
		// IDCT unobtainable, so it parks awaiting the (never-coming) next
		// stage.
		rm.Request(c, 0, resIDCT)
	})
	// p3: frame-to-image conversion and wireless send.
	k.CreateTask("p3", 2, 3, p3RequestAt, func(c *rtos.TaskCtx) {
		rm.RequestBoth(c, 2, resIDCT, resWI) // e2: WI granted, IDCT pends
		c.RunOn(devices[resWI], 1500)
		rm.Release(c, 2, resWI)
		rm.Release(c, 2, resIDCT)
	})
	// p2: competing conversion pipeline.
	k.CreateTask("p2", 1, 2, p2RequestAt, func(c *rtos.TaskCtx) {
		rm.RequestBoth(c, 1, resIDCT, resWI) // e3: both pend
		c.RunOn(devices[resIDCT], 1500)
		rm.Release(c, 1, resIDCT)
		rm.Release(c, 1, resWI)
	})
	// p4: background DSP lookup traffic.
	k.CreateTask("p4", 3, 4, p4RequestAt, func(c *rtos.TaskCtx) {
		rm.Request(c, 3, resDSP)
		c.RunOn(devices[resDSP], dspWorkCycles)
		rm.Release(c, 3, resDSP)
	})

	s.Run()

	return DetectionResult{
		Mechanism:           det.Name(),
		Invocations:         det.Invocations(),
		AvgDetectCycles:     det.Average(),
		DeadlockFound:       rm.DeadlockSeen,
		AppCycles:           rm.DeadlockAt,
		DeadlockedProcs:     rm.DeadlockedProcs,
		DeadlockedResources: rm.DeadlockedResources,
	}
}
