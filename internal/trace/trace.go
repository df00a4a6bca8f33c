// Package trace is the structured, cycle-attributed tracing and metrics
// layer of the MPSoC simulator.  A Recorder attached to a simulation (via
// sim.Sim.Rec) receives typed events — bus transactions with their
// wait/occupancy split, kernel service entry/exit, lock operations and
// hand-offs, allocator commands, and deadlock-unit invocations with their
// verdicts — each stamped with the bus-clock cycle, the issuing PE and the
// simulated flow of control that caused it.
//
// A Recorder keeps only the event stream and the end cycle; Counters folds
// the stream into the -metrics counters on demand, so every counter is an
// observation of events (bus.* cross-checks the simulator's Bus fields).
// A Session groups the recorders of a multi-simulation experiment so one
// Chrome trace-event file covers the whole run.
//
// Tracing is opt-in and cost-free when off: a nil *Recorder records nothing,
// and no simulated cycles are ever charged for recording.  The event stream
// is produced in scheduler dispatch order by a single goroutine at a time,
// so identical inputs yield identical streams — and byte-identical exports.
package trace

import "strings"

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	// KindBus is one bus transaction (Transact/TransactFast): Cycle is the
	// grant time, Dur the bus occupancy, Wait the arbitration/queueing wait
	// that preceded the grant, Words the words moved.
	KindBus Kind = iota
	// KindService is one kernel service (entry to exit): Dur covers the
	// trap, spin-lock word and shared-structure accesses.
	KindService
	// KindSched is an instant scheduler event ("sched.dispatch",
	// "sched.preempt", "sched.exit", ...), also handed to rtos.Kernel.TraceFn.
	KindSched
	// KindLock is a lock operation (acquire/release/hand-off, long or
	// short) of either lock system, or a resource grant or release
	// ("res.acquire", "res.release") of the detection and avoidance
	// services, whose Verdict names the task the hold belongs to.
	KindLock
	// KindAlloc is an allocator command (alloc/free) of either allocator.
	KindAlloc
	// KindDetect is a deadlock detection or avoidance invocation with its
	// verdict.
	KindDetect
	// KindFault is an injected fault or a recovery action taken in response
	// (fault campaigns): Name identifies the fault/action, Verdict carries
	// the target task or outcome.
	KindFault
	// KindIPC is a message-passing operation on a kernel IPC endpoint
	// (mailbox, message queue, event group): Name is the operation
	// ("ipc.send", "ipc.recv", "ipc.block", "ipc.timeout"), Verdict the
	// endpoint name.
	KindIPC
	// KindAccess is an instrumented access to a shared location of a
	// scenario ("access.read", "access.write"): Proc is the accessor and
	// Verdict the location, for the replayed race audit.
	KindAccess
	// KindBlock is a kernel task's closed blocking episode ("task.blocked",
	// recorded when it ends): Cycle is the block start, Dur the blocked
	// cycles, Proc the task and Verdict what it blocked on.
	KindBlock
)

// String names the kind (used as the Chrome trace category).
func (k Kind) String() string {
	switch k {
	case KindBus:
		return "bus"
	case KindService:
		return "service"
	case KindSched:
		return "sched"
	case KindLock:
		return "lock"
	case KindAlloc:
		return "alloc"
	case KindDetect:
		return "detect"
	case KindFault:
		return "fault"
	case KindIPC:
		return "ipc"
	case KindAccess:
		return "access"
	case KindBlock:
		return "block"
	}
	return "other"
}

// Event is one cycle-attributed trace record.  Cycle/PE/Proc are common to
// all kinds; the remaining fields are kind-specific (zero when not
// applicable).
type Event struct {
	Cycle uint64 // start cycle (grant time for bus events)
	Dur   uint64 // duration in cycles (0 = instant event)
	Wait  uint64 // queueing/arbitration wait preceding Cycle
	PE    int    // issuing processing element (-1 for device/unit contexts)
	Proc  string // simulated flow of control (proc or task name)
	Kind  Kind
	Name  string // dotted event name, e.g. "bus.transact", "lock.acquire"
	Words int    // bus words / bytes / hardware steps
	Arg   int64  // lock id, block address, ... (-1 when unused)
	// Verdict carries a small outcome label: "deadlock"/"clear" for
	// detection, "contended"/"uncontended" for locks, "ok"/"oom" for
	// allocations, the hand-off target for lock hand-offs.
	Verdict string
}

// Recorder collects the events of one simulation.  The zero value is not
// usable; create with NewRecorder.  A nil *Recorder is the "tracing off"
// state: callers must nil-check before calling Record (the simulator hooks
// all do).
type Recorder struct {
	// Label identifies the simulation in multi-run exports (Chrome trace
	// "process" name).
	Label    string
	events   []Event
	endCycle uint64
	ended    bool // SetEndCycle ran: sim.end_cycle is in the registry
}

// eventCap pre-sizes the event buffer: even short scenarios record
// thousands of bus/service events, and growing from nil re-copies the
// buffer a dozen times per simulation in a seed sweep.
const eventCap = 1024

// NewRecorder creates an empty recorder.
func NewRecorder(label string) *Recorder {
	return &Recorder{Label: label, events: make([]Event, 0, eventCap)}
}

// Record appends one event.
func (r *Recorder) Record(ev Event) { r.events = append(r.events, ev) }

// SetEndCycle stores the cycle the simulation's run loop stopped at.
func (r *Recorder) SetEndCycle(cycle uint64) { r.endCycle, r.ended = cycle, true }

// Counters folds the event stream into the counter registry; this function
// is the whole counter schema, tabulated in README and DESIGN §6.  Names and
// bus sums are tallied locally, so each count.<name> and bus.* key is set once.
func (r *Recorder) Counters() map[string]uint64 {
	out := map[string]uint64{}
	names := map[string]uint64{}
	var busN, busWords, busStall, busOcc uint64
	for _, ev := range r.events {
		names[ev.Name]++
		//deltalint:partial only bus, ipc and block events add counters beyond count.<name>
		switch ev.Kind {
		case KindBus:
			busN++
			busWords += uint64(ev.Words)
			busStall += ev.Wait
			busOcc += ev.Dur
		case KindIPC:
			out[ev.Name+"."+ev.Verdict]++ // ipc.<op>.<endpoint>
		case KindBlock:
			out["block.cycles."+ev.Proc] += ev.Dur
			out["block.count."+ev.Proc]++
			if ev.Dur > out["block.max."+ev.Proc] {
				out["block.max."+ev.Proc] = ev.Dur
			}
		}
	}
	for name, n := range names {
		out["count."+name] = n
	}
	if busN > 0 {
		out["bus.transactions"], out["bus.words"] = busN, busWords
		out["bus.stall_cycles"], out["bus.occupied_cycles"] = busStall, busOcc
	}
	if r.ended {
		out["sim.end_cycle"] = r.endCycle
	}
	return out
}

// Events returns the recorded event stream (not a copy; do not mutate).
func (r *Recorder) Events() []Event { return r.events }

// Session groups the recorders of one experiment run: experiments routinely
// build several simulations (hardware vs software columns), and the session
// exports them as separate "processes" of a single Chrome trace.
type Session struct {
	recorders []*Recorder
}

// NewSession creates an empty session.
func NewSession() *Session { return &Session{} }

// NewRecorder creates a recorder registered with the session.
func (s *Session) NewRecorder(label string) *Recorder {
	r := NewRecorder(label)
	s.recorders = append(s.recorders, r)
	return r
}

// Recorders returns the session's recorders in creation order.
func (s *Session) Recorders() []*Recorder { return s.recorders }

// Adopt appends every recorder of a shard session, preserving the shard's
// creation order.  Parallel campaigns give each worker job a private shard
// (sessions are not safe for concurrent NewRecorder) and adopt the shards
// in input order afterwards, so the merged export is byte-identical to a
// sequential run.
func (s *Session) Adopt(shard *Session) {
	if shard == nil {
		return
	}
	s.recorders = append(s.recorders, shard.recorders...)
}

// Len returns the number of recorders created so far.
func (s *Session) Len() int { return len(s.recorders) }

// Counters merges the registries of every recorder in the session, summing
// each key (sim.end_cycle included) except block.max.<task>, which stays
// the longest episode of any recorder.
func (s *Session) Counters() map[string]uint64 {
	out := map[string]uint64{}
	for _, r := range s.recorders {
		for k, v := range r.Counters() {
			if strings.HasPrefix(k, "block.max.") {
				out[k] = max(out[k], v)
			} else {
				out[k] += v
			}
		}
	}
	return out
}

// Events returns the total number of events across all recorders.
func (s *Session) Events() int {
	n := 0
	for _, r := range s.recorders {
		n += len(r.events)
	}
	return n
}
