// Package fault implements deterministic, seedable fault injection and
// recovery for the δ stack.  A Plan schedules typed faults — lost lock
// releases, task crashes and hangs, compute overruns, spurious device
// interrupts, transient bus stalls, leaked SoCDMMU blocks — against named
// tasks and resources at chosen cycles.  All randomness is consumed from a
// seeded splitmix64 generator before the simulation starts, and fault
// matching at runtime is a pure function of simulation state, so the same
// seed always produces a byte-identical trace.  A Recovery pairs the plan
// with watchdog timers and a victim-selection policy that turns otherwise
// fatal faults into measurable recoveries.
package fault

import (
	"fmt"
	"sort"

	"deltartos/internal/det"
	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/socdmmu"
	"deltartos/internal/soclc"
	"deltartos/internal/trace"
)

// Kind enumerates the injectable fault types.
type Kind int

// Fault kinds.
const (
	// LostRelease loses a long-lock release command in flight: the task
	// continues as if it released, the lock stays held.
	LostRelease Kind = iota
	// TaskCrash kills a task at its next compute chunk after the armed
	// cycle, mid-critical-section if it holds anything.
	TaskCrash
	// TaskHang parks a task forever at its next compute chunk, holding
	// whatever it holds; only recovery can remove it.
	TaskHang
	// ComputeOverrun stretches one compute chunk by Extra cycles.
	ComputeOverrun
	// SpuriousIRQ raises a device's interrupt line with no completed job
	// behind it.
	SpuriousIRQ
	// BusStall seizes the shared bus for Extra cycles (a rogue master).
	BusStall
	// LeakedBlock loses one SoCDMMU G_dealloc command: the task believes it
	// freed the block, the allocation table keeps it (a leak).
	LeakedBlock
	// MsgDrop silently discards one IPC send: the sender sees success, the
	// message never arrives.
	MsgDrop
	// MsgDelay holds one IPC send in flight for Extra cycles before
	// delivering it; the sender returns immediately.
	MsgDelay
	// MsgDup delivers one queue send twice (a retransmission artifact).
	MsgDup
	// QueueStuckFull jams a queue — senders see it full — for Extra cycles
	// from the armed cycle.
	QueueStuckFull
)

// String names the kind (used in trace event names).
func (k Kind) String() string {
	switch k {
	case LostRelease:
		return "lost-release"
	case TaskCrash:
		return "task-crash"
	case TaskHang:
		return "task-hang"
	case ComputeOverrun:
		return "compute-overrun"
	case SpuriousIRQ:
		return "spurious-irq"
	case BusStall:
		return "bus-stall"
	case LeakedBlock:
		return "leaked-block"
	case MsgDrop:
		return "msg-drop"
	case MsgDelay:
		return "msg-delay"
	case MsgDup:
		return "msg-dup"
	case QueueStuckFull:
		return "queue-stuck-full"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one scheduled fault.  The zero Lock value targets lock 0; use
// AnyLock (or Randomize) for wildcard matching.
type Fault struct {
	Kind     Kind
	Task     string     // target task name ("" = first eligible task)
	Lock     int        // long-lock id for LostRelease (AnyLock = any)
	Device   string     // device name for SpuriousIRQ
	Endpoint string     // IPC endpoint name for message faults ("" = any)
	At       sim.Cycles // armed from this cycle on
	Extra    sim.Cycles // overrun stretch / bus-stall / delay / jam duration

	fired   bool
	firedAt sim.Cycles
	hit     string // task (or device) actually hit
	acked   bool   // consumed by a recovery (latency bookkeeping)
}

// AnyLock makes a LostRelease fault match whichever lock is released next.
const AnyLock = -1

// Occurrence reports one fired fault.
type Occurrence struct {
	Kind Kind
	Hit  string // task or device actually hit
	At   sim.Cycles
}

// Plan is a deterministic fault schedule plus its runtime matching state.
// Build with NewPlan, populate with Add/Randomize, wire with Attach, then
// run the simulation.
type Plan struct {
	Seed   uint64
	faults []*Fault

	s *sim.Sim

	// Tolerated counts API-misuse events the plan's misuse policy survived
	// (each is also emitted as a fault.misuse trace event).
	Tolerated int
}

// NewPlan creates an empty plan for the given seed.  The seed is consumed
// only by Randomize; hand-built plans are deterministic by construction.
func NewPlan(seed uint64) *Plan { return &Plan{Seed: seed} }

// Add appends one fault to the plan.
func (p *Plan) Add(f Fault) *Plan {
	p.faults = append(p.faults, &f)
	return p
}

// Len returns the number of scheduled faults.
func (p *Plan) Len() int { return len(p.faults) }

// Profile describes the scenario surface Randomize draws targets from.
type Profile struct {
	Tasks     []string   // task names faults may target
	Devices   []string   // device names SpuriousIRQ may target
	Endpoints []string   // IPC endpoint names message faults may target
	Horizon   sim.Cycles // arm cycles are uniform in [0, Horizon)
}

// Randomize appends n faults drawn from kinds with the plan's seed.  All
// PRNG consumption happens here, before the simulation runs.
func (p *Plan) Randomize(n int, kinds []Kind, prof Profile) *Plan {
	if n <= 0 || len(kinds) == 0 || len(prof.Tasks) == 0 || prof.Horizon == 0 {
		return p
	}
	rng := det.New(p.Seed)
	for i := 0; i < n; i++ {
		k := kinds[rng.Intn(len(kinds))]
		if k == SpuriousIRQ && len(prof.Devices) == 0 {
			k = BusStall // degrade gracefully on device-less scenarios
		}
		if len(prof.Endpoints) == 0 &&
			(k == MsgDrop || k == MsgDelay || k == MsgDup || k == QueueStuckFull) {
			k = BusStall // degrade gracefully on IPC-less scenarios
		}
		f := Fault{Kind: k, Lock: AnyLock, At: sim.Cycles(rng.Uint64()) % prof.Horizon}
		switch k {
		case LostRelease, TaskCrash, TaskHang, LeakedBlock:
			f.Task = prof.Tasks[rng.Intn(len(prof.Tasks))]
		case ComputeOverrun:
			f.Task = prof.Tasks[rng.Intn(len(prof.Tasks))]
			f.Extra = 500 + sim.Cycles(rng.Intn(4500))
		case SpuriousIRQ:
			f.Device = prof.Devices[rng.Intn(len(prof.Devices))]
		case BusStall:
			f.Extra = 50 + sim.Cycles(rng.Intn(950))
		case MsgDrop, MsgDup:
			f.Endpoint = prof.Endpoints[rng.Intn(len(prof.Endpoints))]
		case MsgDelay:
			f.Endpoint = prof.Endpoints[rng.Intn(len(prof.Endpoints))]
			f.Extra = 1000 + sim.Cycles(rng.Intn(9000))
		case QueueStuckFull:
			f.Endpoint = prof.Endpoints[rng.Intn(len(prof.Endpoints))]
			f.Extra = 2000 + sim.Cycles(rng.Intn(8000))
		}
		p.faults = append(p.faults, &f)
	}
	return p
}

// Attach wires the plan into a configured system: the kernel's fault
// injector and misuse policy, the lock manager's and allocator's drop
// injectors, and one standing proc per BusStall/SpuriousIRQ fault.  Any of
// locks/mem/devs may be nil/empty.  Call once, before the simulation runs.
func (p *Plan) Attach(k *rtos.Kernel, locks soclc.Manager, mem *socdmmu.Unit, devs []*sim.Device) {
	p.s = k.S
	k.SetFaultInjector(p)
	k.SetIPCInjector(p)
	k.SetMisusePolicy(p.tolerate)
	if locks != nil {
		locks.SetInjector(p)
	}
	if mem != nil {
		mem.SetInjector(p)
	}
	for i, f := range p.faults {
		f := f
		//deltalint:partial only bus/IRQ faults spawn processes; the rest fire through injector hooks
		switch f.Kind {
		case BusStall:
			k.S.Spawn(fmt.Sprintf("fault.stall.%d", i), -1, func(pr *sim.Proc) {
				if f.At > pr.Now() {
					pr.Delay(f.At - pr.Now())
				}
				p.fire(f, "bus", pr.Now(), int64(f.Extra))
				k.S.Bus.Hold(f.Extra)
			})
		case SpuriousIRQ:
			var dev *sim.Device
			for _, d := range devs {
				if d.Name == f.Device {
					dev = d
					break
				}
			}
			if dev == nil {
				continue // no such device in this scenario; fault stays pending
			}
			k.S.Spawn(fmt.Sprintf("fault.irq.%d", i), -1, func(pr *sim.Proc) {
				if f.At > pr.Now() {
					pr.Delay(f.At - pr.Now())
				}
				p.fire(f, dev.Name, pr.Now(), -1)
				dev.IRQ.WakeAll()
			})
		case QueueStuckFull:
			var q *rtos.Queue
			for _, qq := range k.Queues() {
				if f.Endpoint == "" || qq.Name == f.Endpoint {
					q = qq
					break
				}
			}
			if q == nil {
				continue // no such queue in this scenario; fault stays pending
			}
			k.S.Spawn(fmt.Sprintf("fault.jam.%d", i), -1, func(pr *sim.Proc) {
				if f.At > pr.Now() {
					pr.Delay(f.At - pr.Now())
				}
				p.fire(f, q.Name, pr.Now(), int64(f.Extra))
				q.Jam(f.Extra)
			})
		}
	}
}

// fire marks a fault as having happened and emits its trace event.
func (p *Plan) fire(f *Fault, hit string, now sim.Cycles, arg int64) {
	f.fired = true
	f.firedAt = now
	f.hit = hit
	if p.s != nil {
		if r := p.s.Rec; r != nil {
			r.Record(trace.Event{
				Cycle: now, PE: -1, Proc: "fault",
				Kind: trace.KindFault, Name: "fault." + f.Kind.String(),
				Arg: arg, Verdict: hit,
			})
		}
	}
}

// match returns the first armed, unfired fault of the given kind eligible
// for this (task, lock) at time now.  Matching order is plan order —
// deterministic.
func (p *Plan) match(k Kind, task string, lock int, now sim.Cycles) *Fault {
	for _, f := range p.faults {
		if f.fired || f.Kind != k || now < f.At {
			continue
		}
		if f.Task != "" && f.Task != task {
			continue
		}
		if k == LostRelease && f.Lock != AnyLock && f.Lock != lock {
			continue
		}
		return f
	}
	return nil
}

// matchEndpoint returns the first armed, unfired fault of the given kind
// eligible for this (endpoint, sender) at time now.  Plan order, like match.
func (p *Plan) matchEndpoint(k Kind, endpoint, task string, now sim.Cycles) *Fault {
	for _, f := range p.faults {
		if f.fired || f.Kind != k || now < f.At {
			continue
		}
		if f.Endpoint != "" && f.Endpoint != endpoint {
			continue
		}
		if f.Task != "" && f.Task != task {
			continue
		}
		return f
	}
	return nil
}

// SendFault implements rtos.IPCInjector: consulted once per IPC send, it
// folds every armed message fault matching (endpoint, sender) into one
// verdict.  Drop wins outright; delay and duplicate compose.
func (p *Plan) SendFault(endpoint, task string, now sim.Cycles) rtos.IPCFault {
	var out rtos.IPCFault
	if f := p.matchEndpoint(MsgDrop, endpoint, task, now); f != nil {
		p.fire(f, endpoint, now, -1)
		out.Drop = true
		return out
	}
	if f := p.matchEndpoint(MsgDelay, endpoint, task, now); f != nil {
		p.fire(f, endpoint, now, int64(f.Extra))
		out.Delay = f.Extra
	}
	if f := p.matchEndpoint(MsgDup, endpoint, task, now); f != nil {
		p.fire(f, endpoint, now, -1)
		out.Dup = true
	}
	return out
}

// CrashNow implements rtos.FaultInjector.
func (p *Plan) CrashNow(t *rtos.Task, now sim.Cycles) bool {
	if f := p.match(TaskCrash, t.Name, AnyLock, now); f != nil {
		p.fire(f, t.Name, now, -1)
		return true
	}
	return false
}

// HangNow implements rtos.FaultInjector.
func (p *Plan) HangNow(t *rtos.Task, now sim.Cycles) bool {
	if f := p.match(TaskHang, t.Name, AnyLock, now); f != nil {
		p.fire(f, t.Name, now, -1)
		return true
	}
	return false
}

// OverrunExtra implements rtos.FaultInjector.
func (p *Plan) OverrunExtra(t *rtos.Task, n, now sim.Cycles) sim.Cycles {
	if f := p.match(ComputeOverrun, t.Name, AnyLock, now); f != nil {
		p.fire(f, t.Name, now, int64(f.Extra))
		return f.Extra
	}
	return 0
}

// DropRelease implements soclc.Injector.
func (p *Plan) DropRelease(task string, id int, now sim.Cycles) bool {
	if f := p.match(LostRelease, task, id, now); f != nil {
		p.fire(f, task, now, int64(id))
		return true
	}
	return false
}

// DropFree implements socdmmu.Injector.
func (p *Plan) DropFree(task string, addr socdmmu.Addr, now sim.Cycles) bool {
	if f := p.match(LeakedBlock, task, AnyLock, now); f != nil {
		p.fire(f, task, now, int64(addr))
		return true
	}
	return false
}

// tolerate is the misuse policy the plan installs: every misuse detected
// while a plan is attached is survivable and traced.
func (p *Plan) tolerate(err error) bool {
	p.Tolerated++
	if p.s != nil {
		if r := p.s.Rec; r != nil {
			r.Record(trace.Event{
				Cycle: p.s.Now(), PE: -1, Proc: "fault",
				Kind: trace.KindFault, Name: "fault.misuse",
				Arg: -1, Verdict: err.Error(),
			})
		}
	}
	return true
}

// Fired returns the faults that actually happened, in firing order.
func (p *Plan) Fired() []Occurrence {
	var out []Occurrence
	for _, f := range p.faults {
		if f.fired {
			out = append(out, Occurrence{Kind: f.Kind, Hit: f.hit, At: f.firedAt})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Pending returns how many scheduled faults never fired (their trigger
// condition was never reached).
func (p *Plan) Pending() int {
	n := 0
	for _, f := range p.faults {
		if !f.fired {
			n++
		}
	}
	return n
}

// oldestUnacked returns the firing time of the earliest fault no recovery
// has accounted for yet.
func (p *Plan) oldestUnacked() (sim.Cycles, bool) {
	best, found := ^sim.Cycles(0), false
	for _, f := range p.faults {
		if f.fired && !f.acked && f.firedAt < best {
			best = f.firedAt
			found = true
		}
	}
	return best, found
}

// ackFired marks every fault fired at or before upTo as accounted for.
func (p *Plan) ackFired(upTo sim.Cycles) {
	for _, f := range p.faults {
		if f.fired && f.firedAt <= upTo {
			f.acked = true
		}
	}
}
