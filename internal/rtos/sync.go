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
		m.handOff()
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
}

// handOff takes the lock from its departing owner and grants it to the best
// waiter, or frees it.
func (m *Mutex) handOff() {
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
	m.handOff()
}
