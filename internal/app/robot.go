package app

import (
	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/soclc"
)

// RobotResult is one column of Table 10.
type RobotResult struct {
	System        string
	LockLatency   float64 // cycles, uncontended acquisition
	LockDelay     float64 // cycles, contended hand-off
	OverallCycles sim.Cycles
	DeadlinesMet  bool
	Trace         []rtos.TraceEvent
}

// Robot application parameters (Section 5.5 / Figure 19).  The master clock
// is 100 MHz, so 1 µs = 100 cycles; task_1's worst-case response time of
// 250 µs is 25,000 cycles.  The workload is throughput-bound: overall
// execution time is when the last task finishes its work, so every cycle the
// lock system saves shortens the run.
const (
	task1Iters = 6
	task2Iters = 8
	task3Iters = 9
	task4Iters = 9
	task5Iters = 9

	sensorReadCycles  = 1200 // object recognition sensor sampling
	pathComputeCycles = 2400 // avoid-obstacle coordinate computation
	moveComputeCycles = 2000 // robot arm motion planning
	displayCycles     = 2600 // trajectory display rendering
	recordCycles      = 2200 // trajectory recording
	mpegSliceCycles   = 3600 // one MPEG decode slice

	sharedStateCS = 900  // long CS on the shared position state
	displayCS     = 2400 // task_3's long critical section (Figure 20)
	logCS         = 1400 // trajectory log critical section

	telemetryOps = 10 // short-CS telemetry buffer updates per iteration
	telemetryCS  = 24 // cycles inside one short CS (4-word update)

	task1Period = 12000 // sensor period (120 µs)
	task1WCRT   = 25000 // 250 µs hard deadline
)

// shortLocker is the short-CS interface both lock systems provide.
type shortLocker interface {
	AcquireShort(c *rtos.TaskCtx, id int)
	ReleaseShort(c *rtos.TaskCtx, id int)
}

// RunRobotScenario executes the robot control application plus MPEG decoder
// on a 4-PE MPSoC (Figure 18): task_1 (PE1, priority 1, hard RT), task_2
// and task_3 (PE2, priorities 2 and 3), task_4 (PE3, priority 4) and the
// MPEG decoder task_5 (PE4, priority 5, soft).  Tasks synchronize on two
// long locks (shared position state, trajectory log) and hammer a shared
// telemetry buffer under a short lock.
//
// mkLocks selects the lock system: soclc.SoftwareLocks (RTOS5, priority
// inheritance in software, spin locks in shared memory) or soclc.LockCache
// (RTOS6, SoCLC with IPCP in hardware).  Everything else is identical, so
// the deltas of Table 10 come entirely from the lock system.
func RunRobotScenario(mkLocks func(k *rtos.Kernel) soclc.Manager, wantTrace bool, opts ...Option) RobotResult {
	s := newScenarioSim(opts)
	defer s.Close()
	k := rtos.NewKernel(s, 4)
	locks := mkLocks(k)
	shorts := locks.(shortLocker)

	var trace []rtos.TraceEvent
	if wantTrace {
		k.TraceFn = func(ev rtos.TraceEvent) { trace = append(trace, ev) }
	}

	const (
		lockState = 0 // long: shared position state
		lockLog   = 1 // long: trajectory log
		lockTele  = 0 // short: telemetry buffer
	)
	deadlinesMet := true
	// position is the shared robot position state: task_1 publishes obstacle
	// coordinates, task_2 and task_3 read them — always inside the lockState
	// critical section.  The declaration names the guard, so the races pass
	// checks every access against it, and the shadow auditor sees a
	// non-empty lockset at runtime (the guarded positive case of the
	// static↔runtime race cross-check).
	//deltalint:guardedby(long:0)
	position := 0

	// telemetry performs the short-CS buffer updates every task does each
	// iteration: acquire the spin/SoCLC short lock, update 4 words, release.
	// Preemption is masked for the duration (spin-lock discipline).
	telemetry := func(c *rtos.TaskCtx, n int) {
		for i := 0; i < n; i++ {
			old := c.SetEffectivePriority(-1)
			shorts.AcquireShort(c, lockTele)
			c.BusWrite(4)
			c.ChargeCompute(telemetryCS)
			shorts.ReleaseShort(c, lockTele)
			c.SetEffectivePriority(old)
		}
	}

	// task_1: object recognition + avoid obstacle (hard real-time, PE1).
	k.CreateTask("task1", 0, 1, 0, func(c *rtos.TaskCtx) {
		for i := 0; i < task1Iters; i++ {
			release := sim.Cycles(i) * task1Period
			c.SleepUntil(release)
			c.Compute(sensorReadCycles)
			locks.Acquire(c, lockState)
			position++
			recordTaskAccess(c, "position", true)
			c.Compute(sharedStateCS) // publish obstacle coordinates
			locks.Release(c, lockState)
			telemetry(c, telemetryOps)
			c.Compute(pathComputeCycles)
			if c.Now()-release > task1WCRT {
				deadlinesMet = false
			}
		}
	})
	// task_2: robot movement (firm real-time, PE2, priority 2).
	k.CreateTask("task2", 1, 2, 2500, func(c *rtos.TaskCtx) {
		for i := 0; i < task2Iters; i++ {
			locks.Acquire(c, lockState)
			_ = position
			recordTaskAccess(c, "position", false)
			c.Compute(sharedStateCS) // read coordinates from task_1
			locks.Release(c, lockState)
			telemetry(c, telemetryOps)
			c.Compute(moveComputeCycles)
			c.Sleep(600) // actuator settle
		}
	})
	// task_3: trajectory display (soft, PE2, priority 3) — its long CS on
	// the shared state is the inversion trigger of Figure 20.
	k.CreateTask("task3", 1, 3, 1000, func(c *rtos.TaskCtx) {
		for i := 0; i < task3Iters; i++ {
			locks.Acquire(c, lockState)
			_ = position
			recordTaskAccess(c, "position", false)
			c.Compute(displayCS)
			locks.Release(c, lockState)
			c.Compute(displayCycles)
			locks.Acquire(c, lockLog)
			c.Compute(logCS)
			locks.Release(c, lockLog)
			telemetry(c, telemetryOps/2)
		}
	})
	// task_4: trajectory recording (soft, PE3, priority 4).
	k.CreateTask("task4", 2, 4, 1500, func(c *rtos.TaskCtx) {
		for i := 0; i < task4Iters; i++ {
			locks.Acquire(c, lockLog)
			c.Compute(logCS)
			locks.Release(c, lockLog)
			telemetry(c, telemetryOps/2)
			c.Compute(recordCycles)
		}
	})
	// task_5: MPEG decoder (lowest priority, PE4) — touches the log lock
	// once per slice to subtitle the robot video feed.
	k.CreateTask("task5", 3, 5, 0, func(c *rtos.TaskCtx) {
		for i := 0; i < task5Iters; i++ {
			c.Compute(mpegSliceCycles)
			telemetry(c, telemetryOps/2)
			locks.Acquire(c, lockLog)
			c.Compute(logCS / 2)
			locks.Release(c, lockLog)
		}
	})

	overall := s.Run()
	st := locks.Stats()
	name := "RTOS5 (PI in software)"
	if _, ok := locks.(*soclc.LockCache); ok {
		name = "RTOS6 (SoCLC + IPCP)"
	}
	return RobotResult{
		System:        name,
		LockLatency:   st.AvgLatency(),
		LockDelay:     st.AvgDelay(),
		OverallCycles: overall,
		DeadlinesMet:  deadlinesMet,
		Trace:         trace,
	}
}

// NewRTOS5Locks builds the Table 10 software lock system: 2 long locks with
// priority inheritance plus in-memory spin locks for the short CSes.
func NewRTOS5Locks(k *rtos.Kernel) soclc.Manager {
	sl := soclc.NewSoftwareLocks(k, 2)
	sl.EnableShortLocks(8)
	return sl
}

// NewRTOS6Locks builds the Table 10 SoCLC (8 short + 8 long locks, the
// configuration of Example 1), with ceilings programmed for the two long
// locks used by the robot tasks.
func NewRTOS6Locks(k *rtos.Kernel) soclc.Manager {
	lc, err := soclc.NewLockCache(k, soclc.Config{ShortLocks: 8, LongLocks: 8, PEs: 4})
	if err != nil {
		panic(err)
	}
	lc.SetCeiling(0, 1) // shared state: used by task_1
	lc.SetCeiling(1, 3) // log: used by task_3..task_5
	return lc
}
