// Package sim is a process-oriented discrete-event simulator of the paper's
// base MPSoC (Section 5.1): four MPC755-class processing elements with L1
// caches, a shared 100 MHz bus with an arbiter and memory controller, 16 MB
// of shared L2 memory, and four peripheral resources (VI, IDCT/MPEG, DSP,
// WI) with timers and interrupt outputs.
//
// Time is counted in bus-clock cycles (10 ns), the unit every table of the
// paper reports.  Each simulated flow of control (one per PE, plus device
// timers) is an iter.Pull coroutine that the scheduler resumes directly:
// exactly one proc runs at any instant, resumptions are ordered by (time,
// sequence number), and therefore a given program produces identical cycle
// counts on every run — the property the co-simulation experiments rely on
// (substituting for Seamless CVE).  A Delay that would be the next event
// popped (within the RunUntil limit and strictly before every queued event,
// which wins a tie by its older sequence number) resumes in place, with no
// coroutine switch.  A panic in a proc body surfaces from Run in the
// caller's goroutine; Close stops procs left unfinished.
package sim

import (
	"fmt"
	"iter"
	"sort"

	"deltartos/internal/trace"
)

// Cycles is simulation time in bus-clock cycles.
type Cycles = uint64

// Sim is the simulation kernel.
type Sim struct {
	now     Cycles
	limit   Cycles // the running RunUntil's limit
	events  eventHeap
	seq     uint64
	procs   []*Proc
	idle    []*coroutine // coroutines whose body returned, for the next Spawn
	drained bool         // set when the event queue ran dry inside RunUntil
	closed  bool         // set by Close
	// Bus is the shared system bus all PEs and hardware units sit on.
	Bus *Bus
	// Rec, when non-nil, receives cycle-attributed trace events from the
	// bus, the RTOS and the hardware units.  Nil (the default) disables
	// tracing at the cost of a nil check per hook — no simulated cycles
	// are ever charged for recording, so cycle counts are identical with
	// tracing on or off.
	Rec *trace.Recorder
}

// Hooks is per-Sim instrumentation injected at creation time.  It replaces
// the old package-global OnNew hook: a mutable package variable made
// concurrently-running Sims racy, so the hook now travels with the
// campaign/experiment that owns the simulation (see internal/campaign).
type Hooks struct {
	// OnNew is called once for every Sim created with these hooks
	// attached, after the bus exists.  The tracing layer uses it to hang a
	// trace.Recorder on every simulation an experiment constructs,
	// however deep inside the run it is built.
	OnNew func(*Sim)
}

// Option configures a Sim at creation.
type Option func(*Sim)

// WithHooks attaches creation hooks.  A nil h (tracing off) is valid and
// does nothing, so callers thread an optional *Hooks straight through.
func WithHooks(h *Hooks) Option {
	return func(s *Sim) {
		if h != nil && h.OnNew != nil {
			h.OnNew(s)
		}
	}
}

// Pre-sizing for the hot-path containers: the event queue depth tracks the
// number of live flows (a few procs plus watchdog deadlines), and waiter
// lists hold at most the task set of one kernel.  Starting with capacity
// makes steady-state scheduling allocation-free.
const (
	initialEventCap = 128
	signalWaiterCap = 8
)

// New creates an empty simulation with a default bus.
func New(opts ...Option) *Sim {
	s := &Sim{events: make(eventHeap, 0, initialEventCap)}
	s.Bus = NewBus(s)
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Now returns the current simulation time.
func (s *Sim) Now() Cycles { return s.now }

type event struct {
	t   Cycles
	seq uint64
	p   *Proc
}

// eventHeap is a hand-rolled binary min-heap over (t, seq).  container/heap
// moves every element through interface{}, which boxes — one allocation per
// Push — on the hottest path of the simulator (one push+pop per dispatched
// event).  Inlined sift operations over the concrete slice schedule with
// zero allocations in steady state (see BenchmarkSimDispatch).
type eventHeap []event

func (h eventHeap) before(i, j int) bool {
	return h[i].t < h[j].t || (h[i].t == h[j].t && h[i].seq < h[j].seq)
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.before(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // clear the vacated slot so the *Proc is GC-able
	q = q[:n]
	*h = q
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.before(r, l) {
			m = r
		}
		if !q.before(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top
}

type yieldKind int

const (
	yDelay yieldKind = iota
	yBlock
	yDone
)

type yieldMsg struct {
	kind  yieldKind
	delay Cycles
}

// Proc is one simulated flow of control (a PE's current context or a device
// timer).  Methods on Proc may only be called from inside the proc's own
// body function.
type Proc struct {
	sim   *Sim
	Name  string
	PE    int        // owning processing element, -1 for device/timer procs
	co    *coroutine // the coroutine running the body; nil once done
	state procState
}

type procState int

const (
	stateReady procState = iota
	stateBlocked
	stateDone
)

// coroutine is the iter.Pull coroutine a proc's body runs on.  When a body
// returns, its coroutine parks on the Sim's idle list and the next Spawn
// runs there: starting a coroutine is most of a spawn's cost, and the rtos
// kernel spawns a one-shot timer proc per Compute chunk, sleep, IPC timeout
// and watchdog.
type coroutine struct {
	next  func() (yieldMsg, bool)
	stop  func()
	yield func(yieldMsg) bool
	p     *Proc // the proc it runs, with its body
	body  func(*Proc)
}

func newCoroutine() *coroutine {
	c := &coroutine{}
	c.next, c.stop = iter.Pull(func(yield func(yieldMsg) bool) {
		c.yield = yield
		for c.run() && yield(yieldMsg{kind: yDone}) {
		}
	})
	return c
}

// stopped is the panic sentinel that unwinds the body of a proc stopped by
// Close; run recovers it.  (runtime.Goexit would not do: iter.Pull
// re-raises a Goexit in the goroutine that called stop.)
type stopped struct{}

// run runs the bound body and reports whether it returned; false means
// Close stopped it.  Any other panic propagates to Run's caller.
func (c *coroutine) run() (returned bool) {
	defer func() {
		if r := recover(); r != nil && r != (stopped{}) {
			panic(r)
		}
	}()
	c.body(c.p)
	return true
}

// Spawn creates a proc bound to a PE (use -1 for device contexts) whose body
// starts at the current simulation time.  Spawning into a simulation whose
// event queue already drained, or that was closed, panics: the proc would
// silently schedule at the stale final time and never run unless Run were
// called again.
func (s *Sim) Spawn(name string, pe int, body func(p *Proc)) *Proc {
	if s.drained || s.closed {
		state := "drained"
		if s.closed {
			state = "closed"
		}
		panic(fmt.Sprintf(
			"sim: Spawn(%q) into a %s simulation (Run returned at cycle %d): build procs before running, or spawn from a running proc",
			name, state, s.now))
	}
	var co *coroutine
	if n := len(s.idle); n > 0 {
		co, s.idle = s.idle[n-1], s.idle[:n-1]
	} else {
		co = newCoroutine()
	}
	p := &Proc{sim: s, Name: name, PE: pe, co: co}
	co.p, co.body = p, body
	s.procs = append(s.procs, p)
	s.schedule(p, s.now)
	return p
}

func (s *Sim) schedule(p *Proc, t Cycles) {
	s.seq++
	s.events.push(event{t: t, seq: s.seq, p: p})
}

// Run processes events until none remain, then returns the final time.
// Procs still blocked when the event queue drains are left blocked — the
// deadlock-scenario applications rely on observing exactly that state.
func (s *Sim) Run() Cycles {
	return s.RunUntil(^Cycles(0))
}

// RunUntil processes events up to and including time limit, then returns the
// final time.  Events scheduled past the limit stay queued, so a fault
// campaign can put a hard fuse on a wedged run (spinning lock waiters keep
// the event queue alive forever) and still inspect the frozen state.
func (s *Sim) RunUntil(limit Cycles) Cycles {
	s.limit = limit
	for len(s.events) > 0 {
		if s.events[0].t > limit {
			break
		}
		e := s.events.pop()
		if e.p.state == stateDone {
			continue
		}
		if e.t < s.now {
			panic(fmt.Sprintf("sim: time went backwards: %d < %d", e.t, s.now))
		}
		s.now = e.t
		s.dispatch(e.p)
	}
	if len(s.events) == 0 {
		s.drained = true
	}
	if s.Rec != nil {
		s.Rec.SetEndCycle(s.now)
	}
	return s.now
}

// dispatch resumes p and handles its next yield.  A panic in p's body
// propagates from here to Run's caller.
func (s *Sim) dispatch(p *Proc) {
	p.state = stateReady
	m, ok := p.co.next()
	switch {
	case !ok: // stopped by Close
		p.state = stateDone
	case m.kind == yDelay:
		s.schedule(p, s.now+m.delay)
	case m.kind == yBlock:
		p.state = stateBlocked
	default:
		p.state = stateDone
		co := p.co
		co.p, co.body, p.co = nil, nil, nil
		s.idle = append(s.idle, co)
	}
}

// Close stops every proc that has not finished, so a dropped simulation
// leaves no parked coroutine behind, and makes later Spawns panic.  A
// stopped body unwinds from its Delay or block, running its deferred calls;
// the recorder is detached first, so the unwinding records nothing.  Read
// every result off the simulation before closing it.
func (s *Sim) Close() {
	s.closed = true
	s.Rec = nil
	for _, p := range s.procs {
		if p.state != stateDone {
			p.co.stop()
		}
	}
	for _, co := range s.idle {
		co.stop()
	}
	s.idle = nil
}

// Blocked returns the names of procs that are still blocked, sorted.
func (s *Sim) Blocked() []string {
	var out []string
	for _, p := range s.procs {
		if p.state == stateBlocked {
			out = append(out, p.Name)
		}
	}
	sort.Strings(out)
	return out
}

// AllDone reports whether every spawned proc ran to completion.
func (s *Sim) AllDone() bool {
	for _, p := range s.procs {
		if p.state != stateDone {
			return false
		}
	}
	return true
}

// Now returns the current simulation time (proc view).
func (p *Proc) Now() Cycles { return p.sim.now }

// Delay advances simulation time by dt busy cycles (computation on the PE).
// When nothing can run before now+dt it takes the sequence number and time
// its event would have had and returns without entering the scheduler.
func (p *Proc) Delay(dt Cycles) {
	s := p.sim
	if t := s.now + dt; t <= s.limit && (len(s.events) == 0 || t < s.events[0].t) {
		s.seq++
		s.now = t
		return
	}
	if !p.co.yield(yieldMsg{kind: yDelay, delay: dt}) {
		panic(stopped{})
	}
}

// block parks the proc until another proc wakes it.
func (p *Proc) block() {
	if !p.co.yield(yieldMsg{kind: yBlock}) {
		panic(stopped{})
	}
}

// wake schedules p to resume at the current time.  Must be called from the
// running proc or from scheduler context.
func (p *Proc) wake() {
	if p.state != stateBlocked {
		panic("sim: waking a proc that is not blocked: " + p.Name)
	}
	p.state = stateReady
	p.sim.schedule(p, p.sim.now)
}

// Signal is a broadcast condition used to model interrupt lines, lock
// hand-offs and mailbox arrivals.  The zero value is not usable; create with
// NewSignal.
type Signal struct {
	sim     *Sim
	Name    string
	waiters []*Proc
}

// NewSignal creates a named signal.  The waiter list starts with capacity:
// lock and IRQ signals churn constantly in long campaigns, and keeping the
// backing array avoids re-growing on every contention burst.
func (s *Sim) NewSignal(name string) *Signal {
	return &Signal{sim: s, Name: name, waiters: make([]*Proc, 0, signalWaiterCap)}
}

// Wait blocks the calling proc until the signal wakes it.
func (sig *Signal) Wait(p *Proc) {
	sig.waiters = append(sig.waiters, p)
	p.block()
}

// WakeAll wakes every waiter in FIFO order and returns how many were woken.
// Slots are nilled rather than the slice dropped, keeping the backing array
// for the next contention burst without pinning the woken Procs.
func (sig *Signal) WakeAll() int {
	n := len(sig.waiters)
	for i, p := range sig.waiters {
		sig.waiters[i] = nil
		p.wake()
	}
	sig.waiters = sig.waiters[:0]
	return n
}

// Waiters returns the number of procs blocked on the signal.
func (sig *Signal) Waiters() int { return len(sig.waiters) }

// Remove drops p from the wait list without waking it (used for timeouts and
// give-up paths).  Reports whether p was waiting.  The vacated tail slot is
// nilled out so the removed Proc does not stay reachable from the backing
// array after it completes.
func (sig *Signal) Remove(p *Proc) bool {
	for i, w := range sig.waiters {
		if w == p {
			n := len(sig.waiters)
			copy(sig.waiters[i:], sig.waiters[i+1:])
			sig.waiters[n-1] = nil
			sig.waiters = sig.waiters[:n-1]
			return true
		}
	}
	return false
}
