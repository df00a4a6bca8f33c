package rtos

import (
	"errors"
	"fmt"
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

// Mutex is a plain binary lock: exclusion with priority-ordered hand-off.
// It never changes a task's priority; the paper's two lock priority
// protocols (software priority inheritance, RTOS5, and the SoCLC's IPCP,
// RTOS6) are the soclc managers, which Table 10 measures.
type Mutex struct {
	k       *Kernel
	Name    string
	owner   *Task
	waiters WaitQueue
}

// NewMutex creates a mutex.
func (k *Kernel) NewMutex(name string) *Mutex {
	m := &Mutex{k: k, Name: name}
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

// Lock acquires the mutex, queueing behind the owner by priority.
func (m *Mutex) Lock(c *TaskCtx) {
	c.serviceOverhead(6)
	t := c.t
	if m.owner == nil {
		m.owner = t
		m.k.Races.Acquire(t.Name, "mutex:"+m.Name)
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
	m.waiters.Push(t)
	c.k.blockCurrent(t, "mutex:"+m.Name)
	for m.owner != t && !t.killed {
		t.sig.Wait(c.p)
	}
	c.ensureRunning() // unwinds the task if it was killed while waiting
	m.k.Races.Acquire(t.Name, "mutex:"+m.Name)
}

// handOff takes the lock from its departing owner t — dropping t's
// shadow-lockset entry — and grants it to the best waiter, or frees it.
func (m *Mutex) handOff(t *Task) {
	m.k.Races.Release(t.Name, "mutex:"+m.Name)
	m.owner = m.waiters.Pop()
	if m.owner != nil {
		m.k.makeReady(m.owner)
	}
}

// Unlock releases the mutex, handing it to the highest-priority waiter.
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
