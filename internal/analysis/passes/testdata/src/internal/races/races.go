// Package races is golden testdata for the lockset race pass: guard
// inference over guarded locations, empty-lockset reports with two
// conflicting witnesses, guardedby checking (declared guards turn inference
// into checking), race-expected acknowledgement, and interprocedural
// attribution — accesses inside locally bound helper literals must
// attribute to the calling task, with held-sets carried through lock
// wrappers by the summary cache.
package races

type TaskCtx struct{}

type Kernel struct{}

func (k *Kernel) CreateTask(name string, pe, prio, delay int, fn func(c *TaskCtx)) {}

type Manager struct{}

func (m *Manager) Acquire(c *TaskCtx, id int) {}
func (m *Manager) Release(c *TaskCtx, id int) {}

const (
	lockA = 0
	lockB = 1
)

func sink(v int) {}

// Lock wrappers: at a wrapped access the held-set depends on the
// interprocedural summary cache classifying these as lock summaries.
func acquireA(m *Manager, c *TaskCtx) { m.Acquire(c, lockA) }
func releaseA(m *Manager, c *TaskCtx) { m.Release(c, lockA) }

// GuardInference: both tasks touch counter only inside the long:0 critical
// section, so the candidate lockset stays {long:0} — no findings, and the
// manifest records the inferred guard (asserted by the result test).
func GuardInference(k *Kernel, m *Manager) {
	counter := 0
	k.CreateTask("t1", 0, 1, 0, func(c *TaskCtx) {
		m.Acquire(c, lockA)
		counter++
		m.Release(c, lockA)
	})
	k.CreateTask("t2", 0, 2, 0, func(c *TaskCtx) {
		m.Acquire(c, lockA)
		sink(counter)
		m.Release(c, lockA)
	})
}

// EmptyLockset: t2 reads counter outside any critical section, so the
// candidate lockset narrows from {long:0} to {} (true positive, reported at
// the first write witness).
func EmptyLockset(k *Kernel, m *Manager) {
	counter := 0
	k.CreateTask("t1", 0, 1, 0, func(c *TaskCtx) {
		m.Acquire(c, lockA)
		counter++ // want `EmptyLockset: counter is accessed by 2 tasks with an empty candidate lockset: write by task t1`
		m.Release(c, lockA)
	})
	k.CreateTask("t2", 0, 2, 0, func(c *TaskCtx) {
		sink(counter)
	})
}

// DistinctGuards: every access is inside a critical section, but t1 uses
// long:0 and t2 uses long:1, so the intersection is still empty.
func DistinctGuards(k *Kernel, m *Manager) {
	shared := 0
	k.CreateTask("t1", 0, 1, 0, func(c *TaskCtx) {
		m.Acquire(c, lockA)
		shared++ // want `DistinctGuards: shared is accessed by 2 tasks with an empty candidate lockset`
		m.Release(c, lockA)
	})
	k.CreateTask("t2", 0, 2, 0, func(c *TaskCtx) {
		m.Acquire(c, lockB)
		shared++
		m.Release(c, lockB)
	})
}

// ReadOnlyShared: both tasks only read the captured value — no writes, no
// race, whatever the locksets.
func ReadOnlyShared(k *Kernel, m *Manager) {
	limit := 8
	k.CreateTask("t1", 0, 1, 0, func(c *TaskCtx) {
		sink(limit)
	})
	k.CreateTask("t2", 0, 2, 0, func(c *TaskCtx) {
		sink(limit)
	})
}

// GuardedChecking: the declaration names its guard, so inference becomes
// checking — the unguarded read is a violation even though t2 is the only
// reader.
func GuardedChecking(k *Kernel, m *Manager) {
	//deltalint:guardedby(long:0)
	state := 0
	k.CreateTask("t1", 0, 1, 0, func(c *TaskCtx) {
		m.Acquire(c, lockA)
		state++
		m.Release(c, lockA)
	})
	k.CreateTask("t2", 0, 2, 0, func(c *TaskCtx) {
		sink(state) // want `GuardedChecking: state is declared guardedby\(long:0\) but task t2 read it at .* without holding long:0`
	})
}

// GuardedDeclaredClean: every access holds the declared guard — checking
// passes, no findings.
func GuardedDeclaredClean(k *Kernel, m *Manager) {
	//deltalint:guardedby(long:0)
	state := 0
	k.CreateTask("t1", 0, 1, 0, func(c *TaskCtx) {
		m.Acquire(c, lockA)
		state++
		m.Release(c, lockA)
	})
	k.CreateTask("t2", 0, 2, 0, func(c *TaskCtx) {
		m.Acquire(c, lockA)
		sink(state)
		m.Release(c, lockA)
	})
}

// RaceExpected: the same narrowing as EmptyLockset, acknowledged on the
// declaration — the diagnostic is suppressed, but the manifest keeps the
// location flagged for the runtime cross-check (asserted by the result
// test).
func RaceExpected(k *Kernel, m *Manager) {
	//deltalint:race-expected fixture statistics counter
	hits := 0
	k.CreateTask("t1", 0, 1, 0, func(c *TaskCtx) {
		hits++
	})
	k.CreateTask("t2", 0, 2, 0, func(c *TaskCtx) {
		hits++
	})
}

// InterprocAttribution: the shared counter is touched only inside a locally
// bound helper literal, and t1's guard is taken through the acquireA
// wrapper.  t2 runs the helper bare, so the candidate lockset narrows to
// empty — the witnesses must attribute to the calling tasks, not to the
// helper.
func InterprocAttribution(k *Kernel, m *Manager) {
	total := 0
	bump := func(c *TaskCtx) {
		n := 1     // helper-local: per-invocation, never shared
		total += n // want `InterprocAttribution: total is accessed by 2 tasks with an empty candidate lockset`
	}
	k.CreateTask("t1", 0, 1, 0, func(c *TaskCtx) {
		acquireA(m, c)
		bump(c)
		releaseA(m, c)
	})
	k.CreateTask("t2", 0, 2, 0, func(c *TaskCtx) {
		bump(c)
	})
}

// InterprocGuarded: the same helper idiom, but both tasks call it inside
// the wrapped critical section — the summary cache must prove long:0 held
// at the inlined access, so the guard is inferred and nothing is reported.
func InterprocGuarded(k *Kernel, m *Manager) {
	total := 0
	bump := func(c *TaskCtx) {
		total++
	}
	k.CreateTask("t1", 0, 1, 0, func(c *TaskCtx) {
		acquireA(m, c)
		bump(c)
		releaseA(m, c)
	})
	k.CreateTask("t2", 0, 2, 0, func(c *TaskCtx) {
		acquireA(m, c)
		bump(c)
		releaseA(m, c)
	})
}

// SingleTask: one closure owns the variable exclusively — never racy.
func SingleTask(k *Kernel, m *Manager) {
	private := 0
	k.CreateTask("t1", 0, 1, 0, func(c *TaskCtx) {
		private++
		sink(private)
	})
}

// tally is a helper literal bound at package level: n is declared inside
// it, so every invocation gets its own n and two tasks calling tally share
// nothing.
var tally = func(c *TaskCtx) {
	n := 0
	n++
	sink(n)
}

// PackageHelperLocal: both tasks call the package-level helper bare — its
// local is per-invocation, so nothing is reported.
func PackageHelperLocal(k *Kernel, m *Manager) {
	k.CreateTask("t1", 0, 1, 0, func(c *TaskCtx) {
		tally(c)
	})
	k.CreateTask("t2", 0, 2, 0, func(c *TaskCtx) {
		tally(c)
	})
}
