package soclc

import (
	"fmt"
	"testing"

	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

func chainNames(ts []*rtos.Task) string {
	var out []string
	for _, t := range ts {
		out = append(out, t.Name)
	}
	return fmt.Sprint(out)
}

// TestReclaimOwnedByBothManagers kills a victim that holds long lock 0 (two
// waiters queued behind it) and short lock 0 while it waits for long lock 1,
// beside an unrelated two-task deadlock on locks 2 and 3.  Reclaim must
// purge the victim from lock 1's queue, hand lock 0 to its best waiter
// (raised to the ceiling under IPCP, untouched under inheritance) and clear
// the short lock, tracing one lock.reclaim release by the victim per lock;
// the wait chains must stop at the victim's blocker and at the deadlock
// cycle.
func TestReclaimOwnedByBothManagers(t *testing.T) {
	const whiBase, lock0Ceiling = 3, 1
	for _, tc := range []struct {
		name string
		mk   func(k *rtos.Kernel) (Manager, *lockTable)
		// wantWhiPrio is the best waiter's priority right after the
		// reclaim hand-off of lock 0.
		wantWhiPrio int
	}{
		{"SoftwareLocks", func(k *rtos.Kernel) (Manager, *lockTable) {
			sl := NewSoftwareLocks(k, 4)
			sl.EnableShortLocks(1)
			return sl, &sl.lockTable
		}, whiBase},
		{"LockCache", func(k *rtos.Kernel) (Manager, *lockTable) {
			lc, err := NewLockCache(k, Config{ShortLocks: 1, LongLocks: 4, PEs: 6})
			if err != nil {
				t.Fatal(err)
			}
			for id, c := range []int{lock0Ceiling, 2, 2, 2} {
				lc.SetCeiling(id, c)
			}
			return lc, &lc.lockTable
		}, lock0Ceiling},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, k := newWorld(t, 6)
			tr := trace.NewRecorder("reclaim")
			s.Rec = tr
			m, lt := tc.mk(k)
			victim := k.CreateTask("victim", 0, 4, 0, func(c *rtos.TaskCtx) {
				m.AcquireShort(c, 0)
				m.Acquire(c, 0)
				c.Compute(5000)
				m.Acquire(c, 1) // held by blocker: the victim waits here
			})
			blocker := k.CreateTask("blocker", 1, 6, 0, func(c *rtos.TaskCtx) {
				m.Acquire(c, 1)
				c.Compute(200000)
				m.Release(c, 1)
			})
			waiter := func(name string, pe, prio int, at sim.Cycles) *rtos.Task {
				return k.CreateTask(name, pe, prio, at, func(c *rtos.TaskCtx) {
					m.Acquire(c, 0)
					c.Compute(100)
					m.Release(c, 0)
				})
			}
			wlo := waiter("wlo", 2, 5, 2000)
			whi := waiter("whi", 3, whiBase, 3000)
			cycle := func(name string, pe, prio, first, second int) *rtos.Task {
				return k.CreateTask(name, pe, prio, 0, func(c *rtos.TaskCtx) {
					m.Acquire(c, first)
					c.Compute(5000)
					m.Acquire(c, second)
				})
			}
			da := cycle("da", 4, 7, 2, 3)
			db := cycle("db", 5, 8, 3, 2)

			checked := false
			s.Spawn("recovery", -1, func(p *sim.Proc) {
				p.Delay(50000)
				if got := m.Holdings(victim); fmt.Sprint(got) != "[0]" {
					t.Errorf("Holdings(victim) = %v, want [0]", got)
				}
				if got := chainNames(m.WaitChain(victim)); got != "[victim blocker]" {
					t.Errorf("WaitChain(victim) = %s, want [victim blocker]", got)
				}
				if got := chainNames(m.WaitChain(da)); got != "[da db]" {
					t.Errorf("WaitChain(da) = %s, want [da db] (stop at the cycle)", got)
				}
				if got := chainNames(m.WaitChain(wlo)); got != "[wlo victim blocker]" {
					t.Errorf("WaitChain(wlo) = %s, want [wlo victim blocker]", got)
				}

				k.Kill(victim)
				longs, shorts := m.ReclaimOwnedBy(victim)
				if fmt.Sprint(longs) != "[0]" || fmt.Sprint(shorts) != "[0]" {
					t.Errorf("reclaimed longs %v shorts %v, want [0] [0]", longs, shorts)
				}
				var reclaims []string
				for _, ev := range tr.Events() {
					if ev.Name == "lock.reclaim" {
						reclaims = append(reclaims, fmt.Sprintf("%s %s:%d", ev.Proc, ev.Verdict, ev.Arg))
					}
				}
				if got := fmt.Sprint(reclaims); got != "[victim long:0 victim short:0]" {
					t.Errorf("reclaim events %s, want [victim long:0 victim short:0]", got)
				}
				for id := range lt.locks {
					if lt.locks[id].waiters.Has(victim) {
						t.Errorf("victim still queued on lock %d", id)
					}
				}
				if got := chainNames(m.WaitChain(victim)); got != "[victim]" {
					t.Errorf("WaitChain(victim) after reclaim = %s, want [victim]", got)
				}
				if got := lt.Owner(0); got != whi {
					t.Errorf("lock 0 handed to %v, want the best waiter whi", got)
				}
				if whi.CurPrio != tc.wantWhiPrio {
					t.Errorf("whi priority after the hand-off = %d, want %d", whi.CurPrio, tc.wantWhiPrio)
				}
				if lt.shortOwner[0] != nil {
					t.Errorf("short lock 0 still held by %s", lt.shortOwner[0].Name)
				}
				if got := m.Holdings(victim); len(got) != 0 {
					t.Errorf("Holdings(victim) after reclaim = %v", got)
				}
				checked = true
			})
			s.Run()

			if !checked {
				t.Fatal("recovery proc never ran")
			}
			for _, w := range []*rtos.Task{whi, wlo, blocker} {
				if _, done := w.Finished(); !done {
					t.Errorf("%s did not finish (state %v)", w.Name, w.State())
				}
			}
			// The blocker's release finds the victim gone from lock 1's queue.
			for id := 0; id < 2; id++ {
				if o := lt.Owner(id); o != nil {
					t.Errorf("lock %d left owned by %s", id, o.Name)
				}
			}
			if db.State() != rtos.StateBlocked {
				t.Errorf("db state %v, want still deadlocked", db.State())
			}
		})
	}
}
