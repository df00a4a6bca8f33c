package rtos

// IPC primitives of Atalanta v0.3 (Section 2.1): message queues (bounded
// FIFO; capacity 1 is the single-slot mailbox, capacity 0 a synchronous
// rendezvous) and event flag groups.
//
// Every primitive participates in the kernel's wait-for graph (waitfor.go):
// it remembers which tasks have used (or were declared on) each side of the
// endpoint, so a blocked receiver's potential wakers are the endpoint's
// senders and vice versa.  Blocking operations come in unbounded and
// deadline-bounded flavors (Send/SendTimeout, Recv/RecvTimeout,
// Wait/WaitTimeout); the bounded ones are the raw material of the
// retry/backoff policies in retry.go.  Message sends consult the kernel's
// IPC fault injector (drop / delay / duplicate in flight), and queues can be
// jammed into reporting full (the stuck-full fault).

import (
	"fmt"

	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

// noDeadline marks an unbounded blocking operation (sim.Cycles is unsigned,
// so the all-ones value doubles as "never").
const noDeadline = ^sim.Cycles(0)

// IPCFault describes the manipulation an injector applies to one message
// send.  The zero value is "deliver normally".
type IPCFault struct {
	// Drop loses the message in flight: the sender continues as if it
	// delivered, nothing arrives.
	Drop bool
	// Dup delivers the message twice.
	Dup bool
	// Delay holds the message in flight for this many cycles before
	// delivering it from a non-task context.  The sender does not block.
	Delay sim.Cycles
}

// IPCInjector is consulted once per message send on a queue when
// attached (fault campaigns).  Implementations must be deterministic
// functions of their arguments and their own seeded state.
type IPCInjector interface {
	SendFault(endpoint, task string, now sim.Cycles) IPCFault
}

// SetIPCInjector attaches a message fault injector to the kernel (nil
// detaches).
func (k *Kernel) SetIPCInjector(fi IPCInjector) { k.ipcInj = fi }

// sendFault consults the attached injector for one send on endpoint ep.
func (k *Kernel) sendFault(ep string, t *Task) IPCFault {
	if k.ipcInj == nil {
		return IPCFault{}
	}
	return k.ipcInj.SendFault(ep, t.Name, k.S.Now())
}

// ipcTrace records one IPC trace event and bumps the per-endpoint counter.
// Zero overhead when tracing is off (nil recorder).
func (k *Kernel) ipcTrace(t *Task, op, endpoint string) {
	if r := k.S.Rec; r != nil {
		r.Record(trace.Event{
			Cycle: k.S.Now(), PE: t.PE, Proc: t.Name,
			Kind: trace.KindIPC, Name: "ipc." + op, Arg: -1, Verdict: endpoint,
		})
		r.Count("ipc."+op+"."+endpoint, 1)
	}
}

// peerSet remembers, in first-use order, the tasks observed (or declared via
// Bind*) on one side of an endpoint — the potential wakers of the opposite
// side.  Sets stay tiny (a handful of tasks per endpoint), so linear scans
// beat maps and keep iteration deterministic.
type peerSet struct{ tasks []*Task }

func (ps *peerSet) add(t *Task) {
	for _, x := range ps.tasks {
		if x == t {
			return
		}
	}
	ps.tasks = append(ps.tasks, t)
}

// others returns every member except t, in first-use order.
func (ps *peerSet) others(t *Task) []*Task {
	out := make([]*Task, 0, len(ps.tasks))
	for _, x := range ps.tasks {
		if x != t {
			out = append(out, x)
		}
	}
	return out
}

// timedWait is the scaffolding of one blocking IPC operation on endpoint ep,
// bounded by deadline (noDeadline blocks forever).  The operation loops on
// its own ready condition, calling park once per block; it ends with
// timeout when park gives up, or with end once the condition holds.
type timedWait struct {
	c        *TaskCtx
	ep       string
	deadline sim.Cycles
	armed    bool // a wakeup timer is pending for the deadline
}

// park blocks the task once on l (nil: on no list) as prefix+ep.  It reports
// false, without blocking, once the deadline has passed; the first block of a
// bounded operation arms the deadline timer.
func (w *timedWait) park(l waitList, prefix string) bool {
	if w.deadline != noDeadline {
		if w.c.p.Now() >= w.deadline {
			return false
		}
		if !w.armed {
			w.c.armWakeup(w.deadline)
			w.armed = true
		}
	}
	w.c.k.ipcTrace(w.c.t, "block", w.ep)
	w.c.parkOn(l, prefix+w.ep)
	return true
}

// end invalidates the deadline timer, if one was armed.  Every non-unwind
// exit of the operation must end it: a stale timer firing into a later
// unrelated block would steal that block's wakeup.
func (w *timedWait) end() {
	if w.armed {
		w.c.t.gen++
	}
}

// timeout ends an operation that park gave up on: the timer is cancelled,
// the endpoint's timeout counter bumped and the timeout traced.
func (w *timedWait) timeout(timeouts *int) {
	w.end()
	*timeouts++
	w.c.k.ipcTrace(w.c.t, "timeout", w.ep)
}

// armWakeup schedules a one-shot timer that re-readies the task at deadline
// if it is still blocked then.  The timer is guarded by the task's sleep
// generation, which timedWait.end (or any later Sleep/Compute/Restart)
// advances.
func (c *TaskCtx) armWakeup(deadline sim.Cycles) {
	t := c.t
	t.gen++
	g := t.gen
	c.k.S.Spawn(fmt.Sprintf("ipcto.%s.%d", t.Name, g), -1, func(tp *sim.Proc) {
		if deadline > tp.Now() {
			tp.Delay(deadline - tp.Now())
		}
		if t.gen == g && t.state == StateBlocked {
			c.k.makeReady(t)
		}
	})
}

// rvItem is one pending rendezvous offer on a capacity-0 queue: the sender
// parks beside its message until a receiver takes it.  A fault-duplicated or
// fault-delayed copy has a nil sender (nobody waits on it).
type rvItem struct {
	msg    interface{}
	sender *Task
	taken  bool
}

// Queue is a bounded FIFO message queue.  Capacity 0 makes it a synchronous
// rendezvous channel: Send blocks until a receiver takes the message.
// Capacity 1 is Atalanta's single-slot mailbox.
type Queue struct {
	k                *Kernel
	Name             string
	cap              int
	items            []interface{}
	rv               []*rvItem  // pending rendezvous offers (capacity 0 only)
	jamUntil         sim.Cycles // stuck-full fault: report full until this cycle
	readers, writers WaitQueue
	senders          peerSet // tasks observed/declared on the sending side
	receivers        peerSet // tasks observed on the receiving side
	inFlight         int     // fault-delayed deliveries not yet landed

	// Instrumentation.
	Sends, Recvs, Timeouts, Dropped, Delayed, HighWater, Duped int
}

// NewQueue creates a queue with the given capacity (0 = rendezvous).
func (k *Kernel) NewQueue(name string, capacity int) *Queue {
	if capacity < 0 {
		panic("rtos: negative queue capacity")
	}
	q := &Queue{k: k, Name: name, cap: capacity}
	k.syncObjs = append(k.syncObjs, q)
	return q
}

// Len returns the number of queued messages.
func (q *Queue) Len() int { return len(q.items) }

// BindSender declares t a sender on this queue without an operation having
// been observed yet (scenario topology declarations for the wait-for graph).
func (q *Queue) BindSender(t *Task) { q.senders.add(t) }

// purgeTask drops a killed task from both wait queues and withdraws its
// pending rendezvous offers (Kernel.Kill).  If the victim had already been
// chosen as the wakee of a hand-off (popped from a wait queue, made ready,
// then killed before running), the message or the free slot it was woken
// for would otherwise be stranded while the remaining waiters sleep — so the
// wake is re-issued to the next eligible waiter.
func (q *Queue) purgeTask(t *Task) {
	q.readers.Remove(t)
	q.writers.Remove(t)
	kept := q.rv[:0]
	for _, it := range q.rv {
		if it.sender == t && !it.taken {
			continue
		}
		kept = append(kept, it)
	}
	q.rv = kept
	if q.recvReady() {
		q.k.wakeHead(&q.readers)
	}
	if q.cap > 0 && !q.sendBlocked() {
		q.k.wakeHead(&q.writers)
	}
}

// waitPeers implements waitNode for all three blocked positions: reader,
// writer waiting for space, rendezvous sender waiting for a taker.
func (q *Queue) waitPeers(t *Task) ([]*Task, string, bool) {
	if q.readers.Has(t) {
		if q.inFlight > 0 {
			return nil, "", false // a fault-delayed delivery will wake a reader
		}
		return q.senders.others(t), "queue:" + q.Name, true
	}
	if q.writers.Has(t) {
		if q.k.S.Now() < q.jamUntil {
			return nil, "", false // the jam-expiry proc will wake a writer
		}
		return q.receivers.others(t), "queue:" + q.Name, true
	}
	for _, it := range q.rv {
		if it.sender == t && !it.taken {
			return q.receivers.others(t), "queue:" + q.Name, true
		}
	}
	return nil, "", false
}

func (q *Queue) ipcEndpoint() bool { return true }

// sendBlocked reports whether a sender must wait for space right now.
// Rendezvous senders (cap 0) never wait for space — they wait for a taker —
// but a jam blocks them like everyone else.
func (q *Queue) sendBlocked() bool {
	if q.k.S.Now() < q.jamUntil {
		return true
	}
	if q.cap == 0 {
		return false
	}
	return len(q.items) >= q.cap
}

// recvReady reports whether a receiver could complete right now.
func (q *Queue) recvReady() bool {
	if len(q.items) > 0 {
		return true
	}
	for _, it := range q.rv {
		if !it.taken {
			return true
		}
	}
	return false
}

// Jam forces the queue to report full for the next d cycles (the stuck-full
// fault: a wedged consumer in a real system).  Senders block — or time out —
// until the jam expires; receivers keep draining buffered items.  Overlapping
// jams extend to the latest deadline.
func (q *Queue) Jam(d sim.Cycles) {
	until := q.k.S.Now() + d
	if until <= q.jamUntil {
		return
	}
	q.jamUntil = until
	q.k.S.Spawn(fmt.Sprintf("ipcjam.%s.%d", q.Name, uint64(until)), -1, func(tp *sim.Proc) {
		if until > tp.Now() {
			tp.Delay(until - tp.Now())
		}
		if q.jamUntil != until {
			return // a later jam extended the deadline; its proc will unjam
		}
		if !q.sendBlocked() {
			q.k.wakeHead(&q.writers)
		}
	})
}

// deliver lands one message into the buffer (allowing fault copies to exceed
// the capacity transiently) and wakes the best reader.
func (q *Queue) deliver(msg interface{}) {
	if q.cap == 0 {
		// Rendezvous: an in-flight (delayed/duplicated) copy arrives as an
		// orphan offer nobody blocks on.
		q.rv = append(q.rv, &rvItem{msg: msg})
	} else {
		q.items = append(q.items, msg)
		if len(q.items) > q.HighWater {
			q.HighWater = len(q.items)
		}
	}
	q.k.wakeHead(&q.readers)
}

// faultedSend opens a send: it charges the service, records the sender and
// consults the IPC fault injector.  A dropped message is lost in flight and
// a delayed one is handed to a timer proc that delivers it later; either
// way the sender believes it delivered, and sent reports the send complete.
// Otherwise the returned fault (a duplicate, at most) applies to the
// caller's own delivery.
func (q *Queue) faultedSend(c *TaskCtx, msg interface{}) (f IPCFault, sent bool) {
	c.serviceOverhead(4)
	t := c.t
	q.senders.add(t)
	f = c.k.sendFault(q.Name, t)
	if f.Drop {
		q.Sends++
		q.Dropped++
		c.k.ipcTrace(t, "send", q.Name)
		return f, true
	}
	if f.Delay > 0 {
		q.Sends++
		q.Delayed++
		q.inFlight++
		delay := f.Delay
		c.k.S.Spawn(fmt.Sprintf("ipcdly.%s.%d", q.Name, q.Delayed), -1, func(tp *sim.Proc) {
			tp.Delay(delay)
			q.inFlight--
			q.deliver(msg)
		})
		c.k.ipcTrace(t, "send", q.Name)
		return f, true
	}
	return f, false
}

// Send enqueues msg, blocking while the queue is full (capacity 0: until a
// receiver takes it).
func (q *Queue) Send(c *TaskCtx, msg interface{}) {
	q.sendCommon(c, msg, noDeadline)
}

// SendTimeout enqueues msg, giving up (ok=false) if the message cannot be
// delivered within wait cycles.  On a rendezvous queue a timed-out offer is
// withdrawn.
func (q *Queue) SendTimeout(c *TaskCtx, msg interface{}, wait sim.Cycles) bool {
	return q.sendCommon(c, msg, c.p.Now()+wait)
}

// sendCommon implements Send and SendTimeout; deadline == noDeadline blocks forever.
func (q *Queue) sendCommon(c *TaskCtx, msg interface{}, deadline sim.Cycles) bool {
	f, sent := q.faultedSend(c, msg)
	if sent {
		return true
	}
	w := timedWait{c: c, ep: q.Name, deadline: deadline}
	for q.sendBlocked() {
		if !w.park(&q.writers, "queue-send:") {
			w.timeout(&q.Timeouts)
			return false
		}
	}
	if q.cap == 0 {
		// Rendezvous: park beside the offer until a receiver takes it.
		it := &rvItem{msg: msg, sender: c.t}
		q.rv = append(q.rv, it)
		q.k.wakeHead(&q.readers)
		for !it.taken {
			if !w.park(nil, "queue-rv:") {
				q.rv, _ = removeRv(q.rv, it)
				w.timeout(&q.Timeouts)
				return false
			}
		}
	} else {
		q.deliver(msg)
	}
	w.end()
	q.Sends++
	if f.Dup {
		q.Duped++
		q.deliver(msg)
	}
	c.k.ipcTrace(c.t, "send", q.Name)
	return true
}

func removeRv(rv []*rvItem, it *rvItem) ([]*rvItem, bool) {
	for i, x := range rv {
		if x == it {
			return append(rv[:i], rv[i+1:]...), true
		}
	}
	return rv, false
}

// Recv dequeues a message, blocking while the queue is empty.
func (q *Queue) Recv(c *TaskCtx) interface{} {
	msg, _ := q.recvCommon(c, noDeadline)
	return msg
}

// RecvTimeout dequeues a message, giving up (ok=false) if none arrives
// within wait cycles.
func (q *Queue) RecvTimeout(c *TaskCtx, wait sim.Cycles) (interface{}, bool) {
	return q.recvCommon(c, c.p.Now()+wait)
}

// recvCommon implements Recv and RecvTimeout; deadline == noDeadline blocks forever.
func (q *Queue) recvCommon(c *TaskCtx, deadline sim.Cycles) (interface{}, bool) {
	c.serviceOverhead(4)
	q.receivers.add(c.t)
	w := timedWait{c: c, ep: q.Name, deadline: deadline}
	for !q.recvReady() {
		if !w.park(&q.readers, "queue-recv:") {
			w.timeout(&q.Timeouts)
			return nil, false
		}
	}
	w.end()
	return q.take(c), true
}

// TryRecv dequeues a message without blocking; ok reports success.  On a
// rendezvous queue it takes a pending offer, releasing its sender.
func (q *Queue) TryRecv(c *TaskCtx) (msg interface{}, ok bool) {
	c.serviceOverhead(3)
	q.receivers.add(c.t)
	if !q.recvReady() {
		return nil, false
	}
	return q.take(c), true
}

// take dequeues the oldest message of a ready queue: a buffered item (waking
// the best writer if space freed), or else the oldest pending rendezvous
// offer, whose sender it releases.
func (q *Queue) take(c *TaskCtx) interface{} {
	var msg interface{}
	if len(q.items) > 0 {
		msg = q.items[0]
		q.items = q.items[1:]
		if !q.sendBlocked() {
			q.k.wakeHead(&q.writers)
		}
	} else {
		for i, it := range q.rv {
			if it.taken {
				continue
			}
			it.taken = true
			msg = it.msg
			q.rv = append(q.rv[:i], q.rv[i+1:]...)
			if it.sender != nil {
				c.k.makeReady(it.sender)
			}
			break
		}
	}
	q.Recvs++
	c.k.ipcTrace(c.t, "recv", q.Name)
	return msg
}

// EventFlags is a group of 32 event bits with wait-any/wait-all semantics.
// Its waiters stay in arrival order, not in a WaitQueue: Set releases every
// satisfied waiter, in the order they began waiting.
type EventFlags struct {
	k     *Kernel
	Name  string
	bits  uint32
	waits []*eventWait

	setters peerSet // tasks observed/declared setting bits

	// Instrumentation.
	Sets, Waits, Timeouts int
}

// eventWait is one task's pending wait on an event group.  It is the
// waitList the task parks on: Push registers it with the group, Remove
// withdraws it.
type eventWait struct {
	e    *EventFlags
	t    *Task
	mask uint32
	all  bool
}

func (w *eventWait) Push(*Task) { w.e.waits = append(w.e.waits, w) }

func (w *eventWait) Remove(*Task) bool {
	for i, x := range w.e.waits {
		if x == w {
			w.e.waits = append(w.e.waits[:i], w.e.waits[i+1:]...)
			return true
		}
	}
	return false
}

// NewEventFlags creates an event group with all bits clear.
func (k *Kernel) NewEventFlags(name string) *EventFlags {
	e := &EventFlags{k: k, Name: name}
	k.syncObjs = append(k.syncObjs, e)
	return e
}

// BindSetter declares t a setter on this event group (wait-for topology).
func (e *EventFlags) BindSetter(t *Task) { e.setters.add(t) }

// purgeTask drops a killed task's pending waits (Kernel.Kill).  Set wakes
// every satisfied waiter directly (no single-wakee hand-off), so no re-wake
// is needed here.
func (e *EventFlags) purgeTask(t *Task) {
	remaining := e.waits[:0]
	for _, w := range e.waits {
		if w.t != t {
			remaining = append(remaining, w)
		}
	}
	e.waits = remaining
}

// waitPeers implements waitNode: a blocked event waiter can only be released
// by the group's setters.
func (e *EventFlags) waitPeers(t *Task) ([]*Task, string, bool) {
	for _, w := range e.waits {
		if w.t == t {
			return e.setters.others(t), "events:" + e.Name, true
		}
	}
	return nil, "", false
}

func (e *EventFlags) ipcEndpoint() bool { return true }

func (w *eventWait) satisfied(bits uint32) bool {
	if w.all {
		return bits&w.mask == w.mask
	}
	return bits&w.mask != 0
}

// Set asserts the bits in mask and releases satisfied waiters.
func (e *EventFlags) Set(c *TaskCtx, mask uint32) {
	c.serviceOverhead(3)
	e.setters.add(c.t)
	e.bits |= mask
	e.Sets++
	c.k.ipcTrace(c.t, "set", e.Name)
	remaining := e.waits[:0]
	for _, w := range e.waits {
		if w.satisfied(e.bits) {
			c.k.makeReady(w.t)
		} else {
			remaining = append(remaining, w)
		}
	}
	e.waits = remaining
}

// Wait blocks until the mask condition is met (any bit when all is false,
// every bit when all is true).  The satisfied bits are NOT auto-cleared.
func (e *EventFlags) Wait(c *TaskCtx, mask uint32, all bool) uint32 {
	bits, _ := e.waitCommon(c, mask, all, noDeadline)
	return bits
}

// WaitTimeout blocks like Wait but gives up (ok=false) if the condition is
// not met within wait cycles.
func (e *EventFlags) WaitTimeout(c *TaskCtx, mask uint32, all bool, wait sim.Cycles) (uint32, bool) {
	return e.waitCommon(c, mask, all, c.p.Now()+wait)
}

// waitCommon implements Wait and WaitTimeout; deadline == noDeadline blocks forever.
func (e *EventFlags) waitCommon(c *TaskCtx, mask uint32, all bool, deadline sim.Cycles) (uint32, bool) {
	c.serviceOverhead(3)
	e.Waits++
	ew := &eventWait{e: e, t: c.t, mask: mask, all: all}
	w := timedWait{c: c, ep: e.Name, deadline: deadline}
	for !ew.satisfied(e.bits) {
		if !w.park(ew, "events:") {
			w.timeout(&e.Timeouts)
			return e.bits & mask, false
		}
	}
	w.end()
	c.k.ipcTrace(c.t, "wait", e.Name)
	return e.bits & mask, true
}
