package soclc

// The lock table both managers embed: lock state, the acquisition and
// release bookkeeping that does not depend on the lock system's costs or
// protocol, the misuse and dropped-release fault paths, and the recovery
// surface (wait-for chains for victim selection, forced reclaim of a killed
// task's locks), so the recovery policy is agnostic to the RTOS5/RTOS6
// configuration.

import (
	"fmt"

	"deltartos/internal/rtos"
	"deltartos/internal/sim"
)

// lockTable is the state and the protocol-independent paths of a lock
// manager.
type lockTable struct {
	k          *rtos.Kernel
	locks      []lockState
	shortOwner []*rtos.Task // holder of each short lock, nil when free
	stats      Stats
	inj        Injector
	// atGrant applies the manager's priority protocol when long lock id
	// passes to t, whose priority before the grant was prio: LockCache's
	// IPCP ceiling.  nil for SoftwareLocks, whose inheritance boost happens
	// when a task blocks.
	atGrant func(t *rtos.Task, id, prio int)
	// Instrumentation.
	ShortAcquires int
}

func newLockTable(k *rtos.Kernel, longs, shorts int) lockTable {
	return lockTable{k: k, locks: make([]lockState, longs), shortOwner: make([]*rtos.Task, shorts)}
}

// Stats implements Manager.
func (lt *lockTable) Stats() Stats { return lt.stats }

// SetInjector attaches a fault injector (nil detaches).
func (lt *lockTable) SetInjector(inj Injector) { lt.inj = inj }

// Owner returns the task holding long lock id, or nil.
func (lt *lockTable) Owner(id int) *rtos.Task { return lt.locks[id].owner }

// request counts an acquisition of long lock id by the calling task, after
// the manager charged its cost, and grants the lock if it is free.  Reports
// whether it did; otherwise the acquisition is contended.
func (lt *lockTable) request(c *rtos.TaskCtx, id int, start sim.Cycles) bool {
	lt.stats.Acquires++
	if lt.locks[id].owner == nil {
		lt.grant(c, id, start)
		return true
	}
	lt.stats.Contended++
	return false
}

// grant gives the free long lock id to the calling task on the uncontended
// path.
func (lt *lockTable) grant(c *rtos.TaskCtx, id int, start sim.Cycles) {
	l := &lt.locks[id]
	t := c.Task()
	l.owner = t
	l.savedPrio = t.CurPrio
	if lt.atGrant != nil {
		lt.atGrant(t, id, l.savedPrio)
	}
	lt.stats.TotalLatency += c.Now() - start
	record(c, "lock.acquire", start, id, "uncontended")
}

// granted completes a contended acquisition once a hand-off has made the
// calling task the owner of long lock id.
func (lt *lockTable) granted(c *rtos.TaskCtx, id int, start sim.Cycles) {
	lt.stats.TotalDelay += c.Now() - start
	record(c, "lock.acquire", start, id, "contended")
}

// owns reports whether the calling task holds long lock id.  A release by
// any other task is misuse: a traced no-op under the kernel's misuse policy,
// a panic without one.
func (lt *lockTable) owns(c *rtos.TaskCtx, id int) bool {
	owner := lt.locks[id].owner
	if owner == c.Task() {
		return true
	}
	name := "<free>"
	if owner != nil {
		name = owner.Name
	}
	err := fmt.Errorf("%w: task %s, lock %d owned by %s", ErrNotOwner, c.Task().Name, id, name)
	if !lt.k.Misuse(err) {
		panic(err.Error())
	}
	record(c, "lock.release.misuse", c.Now(), id, "tolerated")
	return false
}

// release frees long lock id from the calling task, after the manager
// charged its cost, and restores the task's priority.  Reports whether
// waiters remain, so the caller must hand the lock off.  A release the
// injector drops is lost: the task still owns the lock and keeps any boost.
func (lt *lockTable) release(c *rtos.TaskCtx, id int, start sim.Cycles) bool {
	l := &lt.locks[id]
	t := c.Task()
	if lt.inj != nil && lt.inj.DropRelease(t.Name, id, c.Now()) {
		record(c, "lock.release.drop", start, id, "")
		return false
	}
	lt.k.SetTaskPriority(t, l.savedPrio)
	if l.waiters.Len() == 0 {
		l.owner = nil
		record(c, "lock.release", start, id, "")
		return false
	}
	return true
}

// handOff passes long lock id to its best waiter under the manager's
// priority protocol and returns the new owner, which the caller wakes.
func (lt *lockTable) handOff(id int) *rtos.Task {
	l := &lt.locks[id]
	next := l.waiters.Pop()
	l.owner = next
	l.savedPrio = next.BasePrio
	if lt.atGrant != nil {
		lt.atGrant(next, id, next.BasePrio)
	}
	return next
}

// claimShort takes short lock id for the calling task if it is free;
// reports whether it did.
func (lt *lockTable) claimShort(c *rtos.TaskCtx, id int) bool {
	if lt.shortOwner[id] != nil {
		return false
	}
	lt.shortOwner[id] = c.Task()
	return true
}

// shortAcquired completes a short-lock acquisition that began spinning at
// start.
func (lt *lockTable) shortAcquired(c *rtos.TaskCtx, id int, start sim.Cycles) {
	lt.ShortAcquires++
	record(c, "lock.acquire.short", start, id, "")
}

// freeShort clears short lock id; reports whether it was held, so the
// caller charges the release store.  Freeing a free lock is misuse (see
// owns).
func (lt *lockTable) freeShort(c *rtos.TaskCtx, id int) bool {
	if lt.shortOwner[id] == nil {
		err := fmt.Errorf("%w: task %s, short lock %d", ErrShortFree, c.Task().Name, id)
		if !lt.k.Misuse(err) {
			panic(err.Error())
		}
		record(c, "lock.release.misuse", c.Now(), id, "tolerated")
		return false
	}
	lt.shortOwner[id] = nil
	record(c, "lock.release.short", c.Now(), id, "")
	return true
}

// Holdings lists the long locks owned by t, in id order.
func (lt *lockTable) Holdings(t *rtos.Task) []int {
	var out []int
	for id := range lt.locks {
		if lt.locks[id].owner == t {
			out = append(out, id)
		}
	}
	return out
}

// WaitChain follows the wait-for chain from t (victim selection): the lock t
// waits on has an owner, who may itself wait on another lock, and so on.
// The chain includes t and stops at a task that is not waiting on any
// managed lock, or when the chain closes into a cycle (deadlock).
func (lt *lockTable) WaitChain(t *rtos.Task) []*rtos.Task {
	chain := []*rtos.Task{t}
	seen := map[*rtos.Task]bool{t: true}
	for cur := t; ; {
		var next *rtos.Task
		for id := range lt.locks {
			if lt.locks[id].waiters.Has(cur) {
				next = lt.locks[id].owner
				break
			}
		}
		if next == nil || seen[next] {
			return chain
		}
		chain = append(chain, next)
		seen[next] = true
		cur = next
	}
}

// ReclaimOwnedBy force-releases every lock held by a killed task: the victim
// is purged from all waiter queues, long locks hand off to their best waiter
// under the manager's priority protocol (or free), and short locks clear.
// The new owner is made ready directly — LockCache raises no grant
// interrupt here.  Runs outside any task context (the recovery proc charges
// its own time) and returns the reclaimed long and short lock ids, in id
// order.
func (lt *lockTable) ReclaimOwnedBy(t *rtos.Task) (longs, shorts []int) {
	for id := range lt.locks {
		lt.locks[id].waiters.Remove(t)
	}
	for id := range lt.locks {
		l := &lt.locks[id]
		if l.owner != t {
			continue
		}
		longs = append(longs, id)
		if l.waiters.Len() == 0 {
			l.owner = nil
			continue
		}
		lt.k.Unpark(lt.handOff(id))
	}
	for id, o := range lt.shortOwner {
		if o == t {
			lt.shortOwner[id] = nil
			shorts = append(shorts, id)
		}
	}
	return longs, shorts
}
