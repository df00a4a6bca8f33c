// Package trace is the structured, cycle-attributed tracing and metrics
// layer of the MPSoC simulator.  A Recorder attached to a simulation (via
// sim.Sim.Rec) receives typed events — bus transactions with their
// wait/occupancy split, kernel service entry/exit, lock operations and
// hand-offs, allocator commands, and deadlock-unit invocations with their
// verdicts — each stamped with the bus-clock cycle, the issuing PE and the
// simulated flow of control that caused it.
//
// On top of the raw event stream the Recorder maintains a counters registry
// that subsumes the simulator's ad-hoc instrumentation fields (the registry
// values are derived purely from events, so they cross-check the fields they
// replace), and a Session groups the recorders of a multi-simulation
// experiment so one Chrome trace-event file covers the whole run.
//
// Tracing is opt-in and cost-free when off: a nil *Recorder records nothing,
// and no simulated cycles are ever charged for recording.  The event stream
// is produced in scheduler dispatch order by a single goroutine at a time,
// so identical inputs yield identical streams — and byte-identical exports.
package trace

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
	// KindSched is an instant scheduler event (dispatch, preempt, block,
	// exit, ...), mirroring rtos.TraceEvent.
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

// Recorder collects the events of one simulation and derives the counters
// registry from them.  The zero value is not usable; create with
// NewRecorder.  A nil *Recorder is the "tracing off" state: callers must
// nil-check before calling Record (the simulator hooks all do).
type Recorder struct {
	// Label identifies the simulation in multi-run exports (Chrome trace
	// "process" name).
	Label    string
	events   []Event
	counters map[string]uint64
}

// eventCap pre-sizes the event buffer: even short scenarios record
// thousands of bus/service events, and growing from nil re-copies the
// buffer a dozen times per simulation in a seed sweep.
const eventCap = 1024

// NewRecorder creates an empty recorder.
func NewRecorder(label string) *Recorder {
	return &Recorder{
		Label:    label,
		events:   make([]Event, 0, eventCap),
		counters: map[string]uint64{},
	}
}

// Record appends one event and folds it into the counters registry.
func (r *Recorder) Record(ev Event) {
	r.events = append(r.events, ev)
	r.counters["count."+ev.Name]++
	if ev.Kind == KindBus {
		// The bus registry subsumes the Bus.Transactions/WordsMoved/
		// StallCycles instrumentation fields and adds the occupancy the
		// Utilization metric is computed from.
		r.counters["bus.transactions"]++
		r.counters["bus.words"] += uint64(ev.Words)
		r.counters["bus.stall_cycles"] += ev.Wait
		r.counters["bus.occupied_cycles"] += ev.Dur
	}
}

// Count adds delta to a named counter without recording an event.
func (r *Recorder) Count(name string, delta uint64) {
	r.counters[name] += delta
}

// SetCounter stores an absolute counter value (the simulator's end cycle, a
// task's longest blocking episode).
func (r *Recorder) SetCounter(name string, v uint64) {
	r.counters[name] = v
}

// Counter returns a named counter's value (0 if never touched).
func (r *Recorder) Counter(name string) uint64 { return r.counters[name] }

// Counters returns a copy of the registry.
func (r *Recorder) Counters() map[string]uint64 {
	out := make(map[string]uint64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
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

// Len returns the number of recorders created so far (used to mark the
// start of one experiment inside a multi-experiment session).
func (s *Session) Len() int { return len(s.recorders) }

// CountersFrom merges the counters of recorders[from:] — the registry of a
// single experiment inside a multi-experiment session.
func (s *Session) CountersFrom(from int) map[string]uint64 {
	if from < 0 || from > len(s.recorders) {
		return nil
	}
	out := map[string]uint64{}
	for _, r := range s.recorders[from:] {
		for k, v := range r.counters {
			out[k] += v
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
