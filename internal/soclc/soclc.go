// Package soclc models the System-on-a-Chip Lock Cache (Akgul & Mooney;
// Section 2.3.1 of the paper): a custom hardware unit holding lock variables
// outside the memory system, with fair hardware hand-off, interrupt-driven
// wakeup of blocked tasks and the Immediate Priority Ceiling Protocol (IPCP)
// implemented in hardware.
//
// Two interchangeable lock managers are provided so the RTOS5-vs-RTOS6
// experiment of Table 10 can swap one for the other:
//
//   - SoftwareLocks: Atalanta's lock-based long-CS synchronization with the
//     priority inheritance protocol in software (RTOS5).  Every operation
//     walks lock and TCB structures in shared memory.
//   - LockCache: the SoCLC with IPCP in hardware (RTOS6).  The lock variable
//     is one bus access; queueing, hand-off and the ceiling lookup happen in
//     the unit, leaving only a thin software shell.
//
// Both managers embed one lock table (owners, rtos.WaitQueue waiters, short
// lock holders, stats, fault hooks and the recovery surface) and differ only
// in what each operation costs, in their priority protocol (inheritance at
// contention vs the ceiling at a grant) and in LockCache's grant interrupt.
// Both implement Manager and report the paper's two lock metrics: lock
// latency (uncontended acquisition time) and lock delay (time from
// requesting a held lock until it is granted).
package soclc

import (
	"errors"
	"fmt"

	"deltartos/internal/gates"
	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/trace"
	"deltartos/internal/verilog"
)

// Typed misuse errors, survivable under a kernel misuse policy
// (rtos.Kernel.SetMisusePolicy); without one they remain panics.
var (
	// ErrNotOwner reports a long-lock release by a task that does not hold it.
	ErrNotOwner = errors.New("soclc: release by non-owner")
	// ErrShortFree reports a release of a short lock that is not held.
	ErrShortFree = errors.New("soclc: release of free short lock")
)

// Injector is the fault hook a campaign attaches to a lock manager.
// Implementations must be deterministic functions of their arguments and
// their own seeded state.
type Injector interface {
	// DropRelease reports whether this long-lock release command is lost in
	// flight: the caller continues as if it released, but the lock stays
	// held (and, under IPCP, the priority stays boosted) — the classic
	// lost-release fault the recovery path must untangle.
	DropRelease(task string, id int, now sim.Cycles) bool
}

// record sends a lock event to the simulation's recorder, if attached.
func record(c *rtos.TaskCtx, name string, start sim.Cycles, id int, verdict string) {
	if r := c.Kernel().S.Rec; r != nil {
		r.Record(trace.Event{
			Cycle: start, Dur: c.Now() - start,
			PE: c.Task().PE, Proc: c.Task().Name,
			Kind: trace.KindLock, Name: name, Arg: int64(id), Verdict: verdict,
		})
	}
}

// Manager is the common interface of the software and hardware lock
// systems: the task-side lock operations, the measurements, the fault hook
// and the recovery surface, so a scenario, a fault plan and the recovery
// policy swap RTOS5 for RTOS6 without knowing which one they hold.
type Manager interface {
	// Acquire takes long lock id, blocking until granted.
	Acquire(c *rtos.TaskCtx, id int)
	// Release frees long lock id (caller must hold it).
	Release(c *rtos.TaskCtx, id int)
	// AcquireShort takes short lock id, spinning until granted.
	AcquireShort(c *rtos.TaskCtx, id int)
	// ReleaseShort frees short lock id.
	ReleaseShort(c *rtos.TaskCtx, id int)
	// Stats returns accumulated measurements.
	Stats() Stats
	// SetInjector attaches a fault injector (nil detaches).
	SetInjector(Injector)
	// Holdings lists the long locks t currently owns, in id order.
	Holdings(t *rtos.Task) []int
	// WaitChain follows t -> blocked-on lock -> owner -> ... (victim
	// selection walks it for the lowest-priority participant).
	WaitChain(t *rtos.Task) []*rtos.Task
	// ReclaimOwnedBy force-releases everything the killed task t holds.
	ReclaimOwnedBy(t *rtos.Task) (longs, shorts []int)
}

// Stats aggregates the lock metrics of Table 10.
type Stats struct {
	Acquires     int
	Contended    int
	TotalLatency sim.Cycles // sum over uncontended acquires
	TotalDelay   sim.Cycles // sum over contended acquires
}

// AvgLatency returns the mean uncontended acquisition cycles (lock latency).
func (st Stats) AvgLatency() float64 {
	n := st.Acquires - st.Contended
	if n <= 0 {
		return 0
	}
	return float64(st.TotalLatency) / float64(n)
}

// AvgDelay returns the mean contended hand-off cycles (lock delay).
func (st Stats) AvgDelay() float64 {
	if st.Contended == 0 {
		return 0
	}
	return float64(st.TotalDelay) / float64(st.Contended)
}

// Path cost calibration (shared-memory accesses per lock operation).
//
// Atalanta's software long-lock path masks interrupts, takes the kernel spin
// lock, walks the lock structure, performs priority-inheritance bookkeeping
// across TCBs and updates the ready queue — swLockAccesses uncached
// shared-memory accesses in all.  The SoCLC path keeps the thin kernel API
// shell but replaces the structure walk and PI bookkeeping with a single
// lock-cache access, leaving hwLockAccesses.  With the simulator's 7 cycles
// per uncached access these constants land on the paper's anchors: lock
// latency 570 (RTOS5) vs 318 (RTOS6), a 1.79X speed-up.
const (
	swLockAccesses   = 47
	swUnlockAccesses = 36
	hwLockAccesses   = 24
	hwUnlockAccesses = 11
	wrapperCPUCycles = 14 // non-memory instructions around the accesses
	serviceWords     = 4  // burst portion of the service (TCB line)
)

// lockState is one long lock: its owner, the tasks queued for it, and the
// owner's priority before the acquisition (restored at release).
type lockState struct {
	owner     *rtos.Task
	waiters   rtos.WaitQueue
	savedPrio int
}

// SoftwareLocks is the RTOS5 lock system: long locks with priority
// inheritance implemented entirely in software over shared memory.
type SoftwareLocks struct {
	lockTable
}

// NewSoftwareLocks creates n software long locks.
func NewSoftwareLocks(k *rtos.Kernel, n int) *SoftwareLocks {
	if n <= 0 {
		panic("soclc: need at least one lock")
	}
	return &SoftwareLocks{newLockTable(k, n, 0)}
}

// Acquire implements Manager.
func (sl *SoftwareLocks) Acquire(c *rtos.TaskCtx, id int) {
	l := &sl.locks[id]
	t := c.Task()
	start := c.Now()
	c.ChargeCompute(wrapperCPUCycles)
	c.ChargeService(serviceWords)
	c.ChargeSharedAccesses(swLockAccesses)
	if sl.request(c, id, start) {
		return
	}
	// Priority inheritance: boost the owner to the blocked task's level.
	// The boost walks the owner's TCB and the ready queue in shared memory.
	if t.CurPrio < l.owner.CurPrio {
		c.ChargeSharedAccesses(8)
		// The walk yields to the simulator: meanwhile the owner may have
		// released the lock, or the lock may have been reclaimed.
		if l.owner == nil {
			sl.grant(c, id, start)
			return
		}
		sl.k.SetTaskPriority(l.owner, t.CurPrio)
	}
	l.waiters.Push(t)
	c.Park(fmt.Sprintf("swlock:%d", id))
	// On wakeup the waiter re-enters the lock service to complete ownership
	// bookkeeping before returning to the application.
	c.ChargeSharedAccesses(12)
	sl.granted(c, id, start)
}

// Release implements Manager.
func (sl *SoftwareLocks) Release(c *rtos.TaskCtx, id int) {
	if !sl.owns(c, id) {
		return
	}
	start := c.Now()
	c.ChargeCompute(wrapperCPUCycles)
	c.ChargeService(serviceWords)
	c.ChargeSharedAccesses(swUnlockAccesses)
	if !sl.release(c, id, start) {
		return
	}
	// Hand-off: walk the waiter queue, transfer ownership, and restore the
	// priority-inheritance chain — all in shared memory.
	c.ChargeSharedAccesses(10)
	next := sl.handOff(id)
	record(c, "lock.handoff", start, id, next.Name)
	sl.k.Unpark(next)
}

// EnableShortLocks provisions n software spin locks (lock words in shared
// memory).  RTOS5's short-CS synchronization spins over the bus: every probe
// is a full memory read, the traffic the SoCLC was designed to remove.
func (sl *SoftwareLocks) EnableShortLocks(n int) {
	sl.shortOwner = make([]*rtos.Task, n)
}

// AcquireShort spins on the in-memory lock word until it is free, then
// claims it with a read-modify-write.  The claim is recorded before the
// store, because the store yields.
func (sl *SoftwareLocks) AcquireShort(c *rtos.TaskCtx, id int) {
	start := c.Now()
	for {
		c.BusRead(1) // probe the lock word in shared memory
		if sl.claimShort(c, id) {
			c.BusWrite(1) // claim (store-conditional)
			sl.shortAcquired(c, id, start)
			return
		}
		c.ChargeCompute(sim.SpinLockProbeCycles)
	}
}

// ReleaseShort frees the in-memory lock word.
func (sl *SoftwareLocks) ReleaseShort(c *rtos.TaskCtx, id int) {
	if sl.freeShort(c, id) {
		c.BusWrite(1)
	}
}

// Config sizes a lock cache (Figure 4's "number of small locks" and "number
// of long locks" generator parameters).
type Config struct {
	ShortLocks int
	LongLocks  int
	PEs        int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ShortLocks < 0 || c.LongLocks <= 0 || c.PEs <= 0 {
		return fmt.Errorf("soclc: invalid config %+v", c)
	}
	return nil
}

// LockCache is the RTOS6 lock system: the SoCLC hardware unit with IPCP.
type LockCache struct {
	lockTable
	ceilings []int
	// Instrumentation.
	Interrupts int
}

// NewLockCache creates a lock cache.  Ceilings default to 0 (highest);
// program them with SetCeiling before use for realistic IPCP behaviour.
func NewLockCache(k *rtos.Kernel, cfg Config) (*LockCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lc := &LockCache{
		lockTable: newLockTable(k, cfg.LongLocks, cfg.ShortLocks),
		ceilings:  make([]int, cfg.LongLocks),
	}
	lc.atGrant = lc.raiseToCeiling
	return lc, nil
}

// SetCeiling programs lock id's priority ceiling (the highest priority —
// lowest number — of any task that will ever take the lock).
func (lc *LockCache) SetCeiling(id, ceiling int) { lc.ceilings[id] = ceiling }

// raiseToCeiling is IPCP in hardware: a task granted lock id runs at the
// lock's ceiling until release, if that outranks prio, its level before the
// grant.
func (lc *LockCache) raiseToCeiling(t *rtos.Task, id, prio int) {
	if lc.ceilings[id] < prio {
		lc.k.SetTaskPriority(t, lc.ceilings[id])
	}
}

// Acquire implements Manager: one lock-cache bus access; on success the
// hardware applies IPCP (the task runs at the lock's ceiling until release).
func (lc *LockCache) Acquire(c *rtos.TaskCtx, id int) {
	start := c.Now()
	c.ChargeCompute(wrapperCPUCycles)
	c.ChargeService(serviceWords) // thin API shell
	c.ChargeSharedAccesses(hwLockAccesses)
	c.Kernel().S.Bus.TransactFast(c.Proc(), 1) // lock-cache test-and-set
	if lc.request(c, id, start) {
		return
	}
	// Busy: the SoCLC queues the PE in hardware; the task blocks and will be
	// woken by the lock-grant interrupt.
	lc.locks[id].waiters.Push(c.Task())
	c.Park(fmt.Sprintf("soclc:%d", id))
	lc.granted(c, id, start)
}

// Release implements Manager: one lock-cache bus access; the unit hands the
// lock to the highest-priority waiting PE and interrupts it.
func (lc *LockCache) Release(c *rtos.TaskCtx, id int) {
	if !lc.owns(c, id) {
		return
	}
	start := c.Now()
	c.ChargeCompute(wrapperCPUCycles)
	c.ChargeService(serviceWords)
	c.ChargeSharedAccesses(hwUnlockAccesses)
	c.Kernel().S.Bus.TransactFast(c.Proc(), 1) // lock-cache release
	if !lc.release(c, id, start) {
		return
	}
	next := lc.handOff(id)
	record(c, "lock.handoff", start, id, next.Name)
	// Hardware raises the lock-grant interrupt on the waiter's PE.
	lc.Interrupts++
	lc.k.S.Spawn(fmt.Sprintf("soclc.irq.%d", lc.Interrupts), -1, func(p *sim.Proc) {
		p.Delay(sim.InterruptEntryCycles)
		lc.k.Unpark(next)
	})
}

// AcquireShort takes short (spin) lock id.  The SoCLC serves the
// test-and-set in a single bus transaction; while busy, the PE re-polls the
// unit, which — unlike memory spinning — occupies only one bus word per poll
// and is granted fairly.
func (lc *LockCache) AcquireShort(c *rtos.TaskCtx, id int) {
	start := c.Now()
	for {
		c.Kernel().S.Bus.TransactFast(c.Proc(), 1) // test-and-set at the lock cache
		if lc.claimShort(c, id) {
			lc.shortAcquired(c, id, start)
			return
		}
		c.ChargeCompute(sim.SpinLockProbeCycles)
	}
}

// ReleaseShort frees short lock id.
func (lc *LockCache) ReleaseShort(c *rtos.TaskCtx, id int) {
	if lc.freeShort(c, id) {
		c.Kernel().S.Bus.TransactFast(c.Proc(), 1)
	}
}

// SynthResult summarizes the generated SoCLC hardware.
type SynthResult struct {
	VerilogLines int
	AreaGates    int
}

// Synthesize generates the unit and returns its synthesis summary.  The
// paper quotes ~10,000 NAND2 gates for the SoCLC with priority inheritance
// in TSMC 0.25µ.
func Synthesize(cfg Config) (SynthResult, error) {
	if err := cfg.Validate(); err != nil {
		return SynthResult{}, err
	}
	f, err := Generate(cfg)
	if err != nil {
		return SynthResult{}, err
	}
	return SynthResult{
		VerilogLines: verilog.CountLines(f.Emit()),
		AreaGates:    Netlist(cfg).AreaGates(),
	}, nil
}

// Netlist models the SoCLC structure: one flip-flop plus waiter bitmask per
// short lock, a waiter queue + ceiling register + grant logic per long lock,
// and the bus interface / interrupt generation block.
func Netlist(cfg Config) *gates.Netlist {
	var short gates.Netlist
	short.Add(gates.DFFR, 1)          // lock bit
	short.Add(gates.DFF, cfg.PEs)     // waiter mask
	short.AddPriorityEncoder(cfg.PEs) // fair grant
	short.Add(gates.AND2, cfg.PEs)

	var long gates.Netlist
	long.Add(gates.DFFR, 1)
	long.Add(gates.DFF, cfg.PEs)  // waiter mask
	long.AddRegister(4)           // ceiling register
	long.AddRegister(4 * cfg.PEs) // per-PE waiter priority
	long.AddPriorityEncoder(cfg.PEs)
	long.AddMagnitudeComparator(4) // priority compare
	long.AddMux(cfg.PEs, 4)

	var iface gates.Netlist
	iface.AddDecoder(6) // address decode for up to 64 locks
	iface.AddRegister(32)
	iface.Add(gates.NAND2, 40)
	iface.Add(gates.INV, 20)
	iface.Add(gates.DFFR, cfg.PEs) // interrupt lines

	var top gates.Netlist
	top.AddSub("short_lock", &short, cfg.ShortLocks)
	top.AddSub("long_lock", &long, cfg.LongLocks)
	top.AddSub("bus_iface", &iface, 1)
	return &top
}

// Generate emits the SoCLC Verilog (parameterized lock cache generator,
// PARLAK-style).
func Generate(cfg Config) (*verilog.File, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var f verilog.File
	f.Header = fmt.Sprintf("SoCLC: %d short + %d long locks for %d PEs (delta framework)",
		cfg.ShortLocks, cfg.LongLocks, cfg.PEs)

	lock := f.Add(&verilog.Module{Name: "soclc_lock", Comment: "one lock cell: bit + waiter mask + grant"})
	lock.AddPort("clk", verilog.Input, 1)
	lock.AddPort("rst_n", verilog.Input, 1)
	lock.AddPort("req", verilog.Input, cfg.PEs)
	lock.AddPort("rel", verilog.Input, 1)
	lock.AddOutputReg("held", 1)
	lock.AddOutputReg("grant", cfg.PEs)
	lock.AddReg("waiters", cfg.PEs)
	lock.AddAlways("posedge clk or negedge rst_n",
		"if (!rst_n) begin held <= 1'b0; waiters <= 0; grant <= 0; end",
		"else begin",
		"  if (|req & ~held) begin held <= 1'b1; grant <= req & (~req + 1); end",
		"  else if (|req) waiters <= waiters | req;",
		"  if (rel) begin",
		"    if (|waiters) begin grant <= waiters & (~waiters + 1); waiters <= waiters & ~(waiters & (~waiters+1)); end",
		"    else held <= 1'b0;",
		"  end",
		"end")

	top := f.Add(&verilog.Module{Name: "soclc", Comment: "SoC Lock Cache top"})
	top.AddPort("clk", verilog.Input, 1)
	top.AddPort("rst_n", verilog.Input, 1)
	top.AddPort("addr", verilog.Input, 6)
	top.AddPort("wr", verilog.Input, 1)
	top.AddPort("pe", verilog.Input, verilog.BitsFor(cfg.PEs))
	top.AddPort("irq", verilog.Output, cfg.PEs)
	total := cfg.ShortLocks + cfg.LongLocks
	top.AddWire("held_all", total)
	top.AddWire("grant_all", total*cfg.PEs)
	for i := 0; i < total; i++ {
		top.Raw = append(top.Raw, fmt.Sprintf(
			"soclc_lock lk_%d (.clk(clk), .rst_n(rst_n), .req({%d{wr & (addr==%d)}}), .rel(~wr & (addr==%d)), .held(held_all[%d]), .grant(grant_all[%d:%d]));",
			i, cfg.PEs, i, i, i, (i+1)*cfg.PEs-1, i*cfg.PEs))
	}
	top.AddAssign("irq", fmt.Sprintf("grant_all[%d:0]", cfg.PEs-1))
	return &f, nil
}
