package app

import (
	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/socdmmu"
	"deltartos/internal/soclc"
)

// Chaos scenario parameters.  The workload is a compressed robot-control
// clone (same shape as RunRobotScenario: long locks on shared state and the
// trajectory log, short-CS telemetry) extended with per-iteration SoCDMMU
// frame-buffer allocations and an IDCT device whose interrupt line a real
// ISR services — so spurious-IRQ and leaked-block faults have visible,
// measurable consequences.
const (
	chaosIters = 4

	chaosSense   = 900  // sensor sampling
	chaosPath    = 1600 // path computation
	chaosMove    = 1400 // motion planning
	chaosDisplay = 1800 // display rendering
	chaosRecord  = 1500 // trajectory recording
	chaosSlice   = 2400 // one MPEG decode slice on the IDCT device

	chaosStateCS = 700  // long CS on the shared position state
	chaosLogCS   = 1000 // trajectory log critical section

	chaosTeleOps = 6  // short-CS telemetry updates per iteration
	chaosTeleCS  = 24 // cycles inside one short CS

	chaosFrameBytes = 16 << 10 // per-iteration frame-buffer allocation
	chaosISRCycles  = 80       // interrupt service: status read + dispatch
)

// ChaosTaskNames lists the scenario's tasks (the fault.Profile target set).
var ChaosTaskNames = []string{"sense", "move", "display", "record", "mpeg"}

// ChaosWorld is a built-but-not-run chaos scenario: the campaign attaches a
// fault plan and a recovery harness to these handles, then runs S itself.
type ChaosWorld struct {
	S       *sim.Sim
	K       *rtos.Kernel
	Locks   soclc.Manager
	Mem     *socdmmu.Unit
	Devices []*sim.Device

	// AllocFailures counts Alloc errors task bodies absorbed (allocation
	// pressure from leaked blocks shows up here, not as a crash).
	//deltalint:race-expected statistics counter; increments are atomic in the discrete-event model
	AllocFailures int
	// IRQServices counts IDCT interrupt-service activations, real and
	// spurious alike.
	IRQServices int
}

// BuildChaosScenario constructs the chaos workload on a 4-PE MPSoC without
// running it.  mkLocks selects the lock system (NewRTOS5Locks or
// NewRTOS6Locks).  Task bodies are restart-safe: every iteration
// re-acquires its locks and re-allocates its buffers from scratch, and
// allocation failure is absorbed, so a recovery-restarted task replays
// cleanly.
func BuildChaosScenario(mkLocks func(k *rtos.Kernel) soclc.Manager, opts ...Option) *ChaosWorld {
	s := newScenarioSim(opts)
	k := rtos.NewKernel(s, 4)
	locks := mkLocks(k)
	shorts := locks.(shortLocker)
	mem, err := socdmmu.New(socdmmu.Config{TotalBytes: 1 << 20, BlockBytes: 64 << 10, PEs: 4})
	if err != nil {
		panic(err)
	}
	idct := s.NewDevice("IDCT")
	w := &ChaosWorld{S: s, K: k, Locks: locks, Mem: mem, Devices: []*sim.Device{idct}}

	const (
		lockState = 0 // long: shared position state
		lockLog   = 1 // long: trajectory log
		lockTele  = 0 // short: telemetry buffer
	)

	// The IDCT interrupt handler: every IRQ edge — completed decode job or
	// injected spurious interrupt — costs a status-register read plus
	// dispatch time on the bus, which is how spurious IRQs perturb the rest
	// of the system.
	s.Spawn("isr.idct", -1, func(p *sim.Proc) {
		for {
			idct.IRQ.Wait(p)
			w.IRQServices++
			recordAccess(s.Rec, p.Now(), p.PE, p.Name, "w.IRQServices", true)
			s.Bus.Read(p, 1)
			p.Delay(sim.InterruptEntryCycles + chaosISRCycles)
		}
	})

	telemetry := func(c *rtos.TaskCtx, n int) {
		for i := 0; i < n; i++ {
			old := c.SetEffectivePriority(-1)
			shorts.AcquireShort(c, lockTele)
			c.BusWrite(4)
			c.ChargeCompute(chaosTeleCS)
			shorts.ReleaseShort(c, lockTele)
			c.SetEffectivePriority(old)
		}
	}
	// withFrame allocates a working buffer, runs fn, and frees it.  A failed
	// allocation (the table may be exhausted by leaked blocks) degrades to
	// running fn without the buffer.
	withFrame := func(c *rtos.TaskCtx, fn func()) {
		addr, err := mem.Alloc(c, chaosFrameBytes)
		fn()
		if err != nil {
			w.AllocFailures++
			recordTaskAccess(c, "w.AllocFailures", true)
			return
		}
		mem.Free(c, addr)
	}

	k.CreateTask("sense", 0, 1, 0, func(c *rtos.TaskCtx) {
		for i := 0; i < chaosIters; i++ {
			c.Compute(chaosSense)
			locks.Acquire(c, lockState)
			c.Compute(chaosStateCS)
			locks.Release(c, lockState)
			withFrame(c, func() { c.Compute(chaosPath) })
			telemetry(c, chaosTeleOps)
		}
	})
	k.CreateTask("move", 1, 2, 800, func(c *rtos.TaskCtx) {
		for i := 0; i < chaosIters; i++ {
			locks.Acquire(c, lockState)
			c.Compute(chaosStateCS)
			locks.Release(c, lockState)
			withFrame(c, func() { c.Compute(chaosMove) })
			telemetry(c, chaosTeleOps)
		}
	})
	k.CreateTask("display", 1, 3, 400, func(c *rtos.TaskCtx) {
		for i := 0; i < chaosIters; i++ {
			locks.Acquire(c, lockState)
			c.Compute(chaosStateCS)
			locks.Release(c, lockState)
			withFrame(c, func() { c.Compute(chaosDisplay) })
			locks.Acquire(c, lockLog)
			c.Compute(chaosLogCS)
			locks.Release(c, lockLog)
			telemetry(c, chaosTeleOps/2)
		}
	})
	k.CreateTask("record", 2, 4, 600, func(c *rtos.TaskCtx) {
		for i := 0; i < chaosIters; i++ {
			locks.Acquire(c, lockLog)
			c.Compute(chaosLogCS)
			locks.Release(c, lockLog)
			withFrame(c, func() { c.Compute(chaosRecord) })
			telemetry(c, chaosTeleOps/2)
		}
	})
	k.CreateTask("mpeg", 3, 5, 0, func(c *rtos.TaskCtx) {
		for i := 0; i < chaosIters; i++ {
			withFrame(c, func() { c.RunOn(idct, chaosSlice) })
			locks.Acquire(c, lockLog)
			c.Compute(chaosLogCS / 2)
			locks.Release(c, lockLog)
			telemetry(c, chaosTeleOps/2)
		}
	})
	return w
}
