package sim

import "deltartos/internal/trace"

// Bus models the shared system bus, its arbiter and the memory controller.
//
// The paper's timing assumption (Section 5.5): three cycles of the system
// bus clock, including arbitration, to access the first word of the 16 MB
// global memory; successive words of a burst take one cycle each.  The bus
// is a single shared resource: a transaction issued while another is in
// flight waits until the bus frees (FCFS — the arbiter's round-robin and the
// deterministic scheduler give the same order for our workloads).
type Bus struct {
	sim       *Sim
	busyUntil Cycles

	// Instrumentation.
	Transactions Cycles
	WordsMoved   Cycles
	StallCycles  Cycles // cycles procs spent waiting for a busy bus
	// OccupiedCycles is the total time the bus was actually driven,
	// tracked directly per transaction (a Transact word stream and a
	// TransactFast word stream occupy differently, so occupancy cannot be
	// reconstructed from Transactions and WordsMoved alone).
	OccupiedCycles Cycles
}

// Timing constants of the base MPSoC.
const (
	// BusFirstWordCycles covers arbitration + address phase + first data
	// word.
	BusFirstWordCycles = 3
	// BusBurstWordCycles is the per-word cost of burst continuation.
	BusBurstWordCycles = 1
)

// NewBus creates a bus attached to s.
func NewBus(s *Sim) *Bus { return &Bus{sim: s} }

// TransactionCycles returns the bus occupancy of a words-long transfer.
func TransactionCycles(words int) Cycles {
	if words <= 0 {
		return 0
	}
	return BusFirstWordCycles + Cycles(words-1)*BusBurstWordCycles
}

// complete books one finished transfer: grant at start, occupancy cost,
// preceded by wait cycles of arbitration stall, for proc p moving words.
func (b *Bus) complete(p *Proc, name string, start, cost, wait Cycles, words int) {
	b.Transactions++
	b.WordsMoved += Cycles(words)
	b.StallCycles += wait
	b.OccupiedCycles += cost
	if r := b.sim.Rec; r != nil {
		r.Record(trace.Event{
			Cycle: start, Dur: cost, Wait: wait,
			PE: p.PE, Proc: p.Name,
			Kind: trace.KindBus, Name: name, Words: words, Arg: -1,
		})
	}
}

// Transact performs a words-long transfer from proc p, blocking p for the
// arbitration wait plus the transfer itself.
func (b *Bus) Transact(p *Proc, words int) {
	if words <= 0 {
		return
	}
	cost := TransactionCycles(words)
	now := b.sim.now
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	wait := start - now
	b.busyUntil = start + cost
	b.complete(p, "bus.transact", start, cost, wait, words)
	p.Delay(wait + cost)
}

// TransactFast performs a transfer to a fast bus slave (the SoCLC lock
// cache or another register-mapped unit that responds without the memory
// controller): one cycle per word, no first-word penalty beyond occupancy.
func (b *Bus) TransactFast(p *Proc, words int) {
	if words <= 0 {
		return
	}
	cost := Cycles(words) * BusBurstWordCycles
	now := b.sim.now
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	wait := start - now
	b.busyUntil = start + cost
	b.complete(p, "bus.fast", start, cost, wait, words)
	p.Delay(wait + cost)
}

// Hold seizes the bus for d cycles starting now, as if a rogue master were
// driving it: transactions issued meanwhile see ordinary arbitration stall.
// Fault campaigns use this to model transient bus stalls; it moves no words
// and is free when never called.
func (b *Bus) Hold(d Cycles) {
	start := b.sim.now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	b.busyUntil = start + d
	b.OccupiedCycles += d
	// Booked as a zero-word transaction so the event-derived bus counters
	// stay in lockstep with the legacy instrumentation fields (the tracing
	// layer's self-check).  The hold itself stalls nobody directly, so no
	// wait is attributed to it.
	b.Transactions++
	if r := b.sim.Rec; r != nil {
		r.Record(trace.Event{
			Cycle: start, Dur: d,
			PE: -1, Proc: "fault",
			Kind: trace.KindBus, Name: "bus.hold", Arg: -1,
		})
	}
}

// Read performs a words-long read transaction (timing only).
func (b *Bus) Read(p *Proc, words int) { b.Transact(p, words) }

// Write performs a words-long write transaction (timing only).
func (b *Bus) Write(p *Proc, words int) { b.Transact(p, words) }

// Utilization returns the fraction of elapsed time the bus was occupied.
func (b *Bus) Utilization() float64 {
	if b.sim.now == 0 {
		return 0
	}
	return float64(b.OccupiedCycles) / float64(b.sim.now)
}
