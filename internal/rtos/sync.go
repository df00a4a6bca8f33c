package rtos

import (
	"errors"
	"fmt"

	"deltartos/internal/sim"
)

// Typed misuse errors.  With a misuse policy installed (fault-injection
// campaigns, Kernel.SetMisusePolicy) these are reported and survivable; with
// none they remain panics — genuine programmer error.
var (
	// ErrRelock reports a task locking a mutex it already owns.
	ErrRelock = errors.New("rtos: mutex re-lock by owner")
	// ErrNotOwner reports an unlock by a task that does not own the mutex.
	ErrNotOwner = errors.New("rtos: mutex unlock by non-owner")
)

// WaitQueue is the one priority wait queue every blocking primitive of the
// kernel and of the soclc lock managers queues on: tasks are ordered by
// CurPrio at insertion, FIFO within a priority level.  The zero value is an
// empty queue.
type WaitQueue struct{ tasks []*Task }

// Push queues t behind every waiter of equal or better priority.
func (q *WaitQueue) Push(t *Task) {
	i := 0
	for i < len(q.tasks) && q.tasks[i].CurPrio <= t.CurPrio {
		i++
	}
	q.tasks = append(q.tasks, nil)
	copy(q.tasks[i+1:], q.tasks[i:])
	q.tasks[i] = t
}

// Pop removes and returns the best waiter, or nil when the queue is empty.
func (q *WaitQueue) Pop() *Task {
	if len(q.tasks) == 0 {
		return nil
	}
	t := q.tasks[0]
	q.tasks = q.tasks[1:]
	return t
}

// Remove drops t from the queue; reports whether it was queued.
func (q *WaitQueue) Remove(t *Task) bool {
	for i, w := range q.tasks {
		if w == t {
			q.tasks = append(q.tasks[:i], q.tasks[i+1:]...)
			return true
		}
	}
	return false
}

// Has reports whether t is queued.
func (q *WaitQueue) Has(t *Task) bool {
	for _, w := range q.tasks {
		if w == t {
			return true
		}
	}
	return false
}

// Len returns the number of queued tasks.
func (q *WaitQueue) Len() int { return len(q.tasks) }

// wakeHead pops q's best waiter, if any, and makes it ready.
func (k *Kernel) wakeHead(q *WaitQueue) {
	if t := q.Pop(); t != nil {
		k.makeReady(t)
	}
}

// Semaphore is a counting semaphore with priority-ordered wakeup.
type Semaphore struct {
	k       *Kernel
	Name    string
	count   int
	waiters WaitQueue
	// Instrumentation.
	Pends, Posts, Blocks int
}

// NewSemaphore creates a semaphore with an initial count.
func (k *Kernel) NewSemaphore(name string, initial int) *Semaphore {
	if initial < 0 {
		panic("rtos: negative semaphore count")
	}
	s := &Semaphore{k: k, Name: name, count: initial}
	k.syncObjs = append(k.syncObjs, s)
	return s
}

// purgeTask drops a killed task from the wait queue (Kernel.Kill).
func (s *Semaphore) purgeTask(t *Task) { s.waiters.Remove(t) }

// Count returns the current count.
func (s *Semaphore) Count() int { return s.count }

// Pend decrements the count, blocking while it is zero.
func (s *Semaphore) Pend(c *TaskCtx) {
	c.serviceOverhead(4)
	s.Pends++
	for s.count == 0 {
		s.Blocks++
		s.waiters.Push(c.t)
		c.Park("sem:" + s.Name)
	}
	s.count--
}

// TryPend decrements without blocking; reports success.
func (s *Semaphore) TryPend(c *TaskCtx) bool {
	c.serviceOverhead(3)
	s.Pends++
	if s.count == 0 {
		return false
	}
	s.count--
	return true
}

// Post increments the count and wakes the best waiter, if any.
func (s *Semaphore) Post(c *TaskCtx) {
	c.serviceOverhead(4)
	s.PostFromISR()
}

// PostFromISR increments from a non-task context (device ISR path).
func (s *Semaphore) PostFromISR() {
	s.Posts++
	s.count++
	s.k.wakeHead(&s.waiters)
}

// Mutex is a binary lock with optional priority protocols: plain, priority
// inheritance (Atalanta's long-lock behaviour, RTOS5), or immediate priority
// ceiling (the protocol the SoCLC implements in hardware, RTOS6 — exposed
// here so the software baseline of the protocol can be measured too).
type Mutex struct {
	k         *Kernel
	Name      string
	Proto     LockProtocol
	Ceiling   int // used by IPCP
	owner     *Task
	waiters   WaitQueue
	savedPrio int
	// Instrumentation.
	Acquires, Contended int
	// Lock latency: acquisition time when uncontended; lock delay: time from
	// requesting a held lock to acquiring it.
	TotalLatency sim.Cycles
	TotalDelay   sim.Cycles
}

// LockProtocol selects the mutex priority protocol.
type LockProtocol int

// Protocols.
const (
	ProtoNone LockProtocol = iota
	ProtoInherit
	ProtoCeiling
)

// NewMutex creates a mutex.  For ProtoCeiling the ceiling must be set to the
// highest priority (lowest number) of any task that uses the lock.
func (k *Kernel) NewMutex(name string, proto LockProtocol, ceiling int) *Mutex {
	m := &Mutex{k: k, Name: name, Proto: proto, Ceiling: ceiling}
	k.syncObjs = append(k.syncObjs, m)
	return m
}

// purgeTask removes a killed task from the wait queue and, if it died as
// owner, force-hands the lock to the best waiter (or frees it) so survivors
// are not blocked behind a corpse (Kernel.Kill).
func (m *Mutex) purgeTask(t *Task) {
	m.waiters.Remove(t)
	if m.owner == t {
		m.handOff(t)
	}
}

// Owner returns the current owner, or nil.
func (m *Mutex) Owner() *Task { return m.owner }

// waitPeers implements waitNode: a blocked mutex waiter can only be released
// by the current owner.  This is the lock half of the mixed lock+IPC
// wait-for graph (waitfor.go).
func (m *Mutex) waitPeers(t *Task) ([]*Task, string, bool) {
	if !m.waiters.Has(t) {
		return nil, "", false
	}
	if m.owner == nil {
		// Hand-off in flight (purge/unlock raced the query): treat as unknown.
		return nil, "", false
	}
	return []*Task{m.owner}, "mutex:" + m.Name, true
}

func (m *Mutex) ipcEndpoint() bool { return false }

// Lock acquires the mutex, applying the configured priority protocol.
func (m *Mutex) Lock(c *TaskCtx) {
	start := c.p.Now()
	c.serviceOverhead(6)
	t := c.t
	if m.owner == nil {
		m.grant(t)
		m.k.Races.Acquire(t.Name, "mutex:"+m.Name)
		m.Acquires++
		m.TotalLatency += c.p.Now() - start
		return
	}
	if m.owner == t {
		err := fmt.Errorf("%w: task %s, mutex %s", ErrRelock, t.Name, m.Name)
		if !c.k.Misuse(err) {
			panic(err.Error())
		}
		c.k.trace(t.PE, t.Name, "misuse:relock")
		return // tolerated: already held, treat as a no-op
	}
	m.Contended++
	if m.Proto == ProtoInherit {
		// Priority inheritance, propagated transitively: if the owner is
		// itself blocked on another PI mutex, ITS owner inherits too, and so
		// on down the chain (the classic chained-blocking case).
		prio := t.CurPrio
		for hop, owner := 0, m.owner; owner != nil && hop < 32; hop++ {
			if prio >= owner.CurPrio {
				break
			}
			c.k.setPriority(owner, prio)
			next := owner.waitingOn
			if next == nil || next.Proto != ProtoInherit {
				break
			}
			owner = next.owner
		}
	}
	m.waiters.Push(t)
	t.waitingOn = m
	c.k.blockCurrent(t, "mutex:"+m.Name)
	for m.owner != t && !t.killed {
		t.sig.Wait(c.p)
	}
	t.waitingOn = nil
	c.ensureRunning() // unwinds the task if it was killed while waiting
	m.k.Races.Acquire(t.Name, "mutex:"+m.Name)
	m.Acquires++
	m.TotalDelay += c.p.Now() - start
}

// grant makes t the owner, raising it to the ceiling under IPCP.
func (m *Mutex) grant(t *Task) {
	m.owner = t
	m.savedPrio = t.CurPrio
	if m.Proto == ProtoCeiling && m.Ceiling < t.CurPrio {
		// Immediate priority ceiling: raise on acquisition.
		m.k.setPriority(t, m.Ceiling)
	}
}

// handOff takes the lock from its departing owner t — restoring the priority
// the acquisition may have boosted or raised, and dropping t's shadow-lockset
// entry — and grants it to the best waiter, or frees it.
func (m *Mutex) handOff(t *Task) {
	m.k.Races.Release(t.Name, "mutex:"+m.Name)
	m.k.setPriority(t, m.savedPrio)
	next := m.waiters.Pop()
	if next == nil {
		m.owner = nil
		return
	}
	m.grant(next)
	m.k.makeReady(next)
}

// Unlock releases the mutex, restoring the owner's priority and handing the
// lock to the highest-priority waiter.
func (m *Mutex) Unlock(c *TaskCtx) {
	c.serviceOverhead(6)
	t := c.t
	if m.owner != t {
		owner := "<free>"
		if m.owner != nil {
			owner = m.owner.Name
		}
		err := fmt.Errorf("%w: task %s, mutex %s owned by %s", ErrNotOwner, t.Name, m.Name, owner)
		if !c.k.Misuse(err) {
			panic(err.Error())
		}
		c.k.trace(t.PE, t.Name, "misuse:unlock")
		return // tolerated: the lock keeps its true owner
	}
	m.handOff(t)
}

// AvgLatency returns the mean uncontended acquisition cost in cycles.
func (m *Mutex) AvgLatency() float64 {
	n := m.Acquires - m.Contended
	if n <= 0 {
		return 0
	}
	return float64(m.TotalLatency) / float64(n)
}

// AvgDelay returns the mean contended hand-off cost in cycles.
func (m *Mutex) AvgDelay() float64 {
	if m.Contended == 0 {
		return 0
	}
	return float64(m.TotalDelay) / float64(m.Contended)
}
