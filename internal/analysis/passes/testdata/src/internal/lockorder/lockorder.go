// Package lockorder is golden testdata for the lockorder pass: a miniature
// copy of the simulator's lock surfaces plus scenarios with and without
// lock-order cycles.
package lockorder

type TaskCtx struct{}

type Kernel struct{}

func (k *Kernel) CreateTask(name string, pe, prio, delay int, fn func(c *TaskCtx)) {}

type Manager struct{}

func (m *Manager) Acquire(c *TaskCtx, id int) {}
func (m *Manager) Release(c *TaskCtx, id int) {}

type World struct{}

func (w *World) Request(c *TaskCtx, p, q int)          {}
func (w *World) Release(c *TaskCtx, p, q int)          {}
func (w *World) RequestBoth(c *TaskCtx, p, qa, qb int) {}

const (
	lockA = 0
	lockB = 1
)

// ConflictingOrder's two tasks take lockA/lockB in opposite orders: the
// classic two-task deadlock (true positive).
func ConflictingOrder(k *Kernel, m *Manager) {
	k.CreateTask("t1", 0, 1, 0, func(c *TaskCtx) {
		m.Acquire(c, lockA)
		m.Acquire(c, lockB) // want `potential deadlock: tasks of ConflictingOrder acquire locks in conflicting orders`
		m.Release(c, lockB)
		m.Release(c, lockA)
	})
	k.CreateTask("t2", 0, 1, 0, func(c *TaskCtx) {
		m.Acquire(c, lockB)
		m.Acquire(c, lockA)
		m.Release(c, lockA)
		m.Release(c, lockB)
	})
}

// ConsistentOrder's tasks agree on the global order: no cycle, no report.
func ConsistentOrder(k *Kernel, m *Manager) {
	k.CreateTask("t1", 0, 1, 0, func(c *TaskCtx) {
		m.Acquire(c, lockA)
		m.Acquire(c, lockB)
		m.Release(c, lockB)
		m.Release(c, lockA)
	})
	k.CreateTask("t2", 1, 1, 0, func(c *TaskCtx) {
		m.Acquire(c, lockA)
		m.Acquire(c, lockB)
		m.Release(c, lockB)
		m.Release(c, lockA)
	})
}

// BatchOrder uses a batch request, whose grant order the manager chooses at
// runtime: both orders are assumed, which alone closes a cycle against any
// task ordering the same pair (true positive).
func BatchOrder(k *Kernel, w *World) {
	k.CreateTask("t", 0, 1, 0, func(c *TaskCtx) {
		w.RequestBoth(c, 0, 0, 1) // want `potential deadlock: tasks of BatchOrder acquire locks in conflicting orders`
		w.Release(c, 0, 0)
		w.Release(c, 0, 1)
	})
}

// ExpectedDeadlock carries the directive: the cycle is intentional, so the
// pass stays silent but still records it in its result (the cross-check
// consumes it).
//
//deltalint:deadlock-expected golden test of the suppression directive
func ExpectedDeadlock(k *Kernel, w *World) {
	k.CreateTask("t1", 0, 1, 0, func(c *TaskCtx) {
		w.Request(c, 0, 0)
		w.Request(c, 0, 1)
	})
	k.CreateTask("t2", 0, 1, 0, func(c *TaskCtx) {
		w.Request(c, 1, 1)
		w.Request(c, 1, 0)
	})
}

// SeparateScenarios shows the per-scenario graph scope: each function's
// tasks use a consistent order, and the conflict between the two functions
// is irrelevant because their tasks never run together.
func SeparateScenarios(k *Kernel, m *Manager) {
	k.CreateTask("t", 0, 1, 0, func(c *TaskCtx) {
		m.Acquire(c, lockA)
		m.Acquire(c, lockB)
		m.Release(c, lockB)
		m.Release(c, lockA)
	})
}

func SeparateScenariosReversed(k *Kernel, m *Manager) {
	k.CreateTask("t", 0, 1, 0, func(c *TaskCtx) {
		m.Acquire(c, lockB)
		m.Acquire(c, lockA)
		m.Release(c, lockA)
		m.Release(c, lockB)
	})
}

// BreakHeld's t1 leaves an unbounded loop by a break while still holding
// lockA, then takes lockB: the lock held across the break orders A before B,
// against t2's B-before-A (true positive).
func BreakHeld(k *Kernel, m *Manager, ready func() bool) {
	k.CreateTask("t1", 0, 1, 0, func(c *TaskCtx) {
		for {
			m.Acquire(c, lockA)
			if ready() {
				break
			}
			m.Release(c, lockA)
		}
		m.Acquire(c, lockB) // want `potential deadlock: tasks of BreakHeld acquire locks in conflicting orders`
		m.Release(c, lockB)
		m.Release(c, lockA)
	})
	k.CreateTask("t2", 0, 1, 0, func(c *TaskCtx) {
		m.Acquire(c, lockB)
		m.Acquire(c, lockA)
		m.Release(c, lockA)
		m.Release(c, lockB)
	})
}
