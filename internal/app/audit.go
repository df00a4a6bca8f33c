package app

// The runtime halves of the static claims and races cross-checks read the
// trace stream.  The scenarios record every hold transition (the lock
// managers' lock.* events, the resource services' res.* events) and every
// instrumented shared-location access (access.* events); after a traced
// run, HeldSets and RaceAudit fold the recorded events into the per-task
// held-sets and the Eraser shadow-lockset verdicts.  An untraced run records
// nothing and audits nothing.

import (
	"sort"

	"deltartos/internal/claims"
	"deltartos/internal/races"
	"deltartos/internal/rtos"
	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

// recordRes books that task took ("res.acquire") or dropped ("res.release")
// resource q, from the flow of control proc on pe at now.  task differs
// from proc when one flow acts for another: a grant handed to a waiter at
// another task's release, or a give-up release.
func recordRes(r *trace.Recorder, name string, now sim.Cycles, pe int, proc string, q int, task string) {
	if r == nil {
		return
	}
	r.Record(trace.Event{
		Cycle: now, PE: pe, Proc: proc,
		Kind: trace.KindLock, Name: name, Arg: int64(q), Verdict: task,
	})
}

// recordTaskRes is recordRes from the calling task's own context.
func recordTaskRes(c *rtos.TaskCtx, name string, q int, task string) {
	t := c.Task()
	recordRes(c.Kernel().S.Rec, name, c.Now(), t.PE, t.Name, q, task)
}

// recordAccess books proc's access to the shared location loc at now.
func recordAccess(r *trace.Recorder, now sim.Cycles, pe int, proc, loc string, write bool) {
	if r == nil {
		return
	}
	name := "access.read"
	if write {
		name = "access.write"
	}
	r.Record(trace.Event{
		Cycle: now, PE: pe, Proc: proc,
		Kind: trace.KindAccess, Name: name, Arg: -1, Verdict: loc,
	})
}

// recordTaskAccess is recordAccess by the calling task.
func recordTaskAccess(c *rtos.TaskCtx, loc string, write bool) {
	t := c.Task()
	recordAccess(c.Kernel().S.Rec, c.Now(), t.PE, t.Name, loc, write)
}

// holdStep decodes the hold transition ev carries: the task it is for, the
// canonical key, and whether the task takes or drops it.  ok is false for
// every other event, a dropped release ("lock.release.drop") included: the
// lock stays held.
func holdStep(ev trace.Event) (task, key string, acquire, ok bool) {
	switch ev.Name {
	case "lock.acquire":
		return ev.Proc, claims.ResourceKey("long", int(ev.Arg)), true, true
	case "lock.release", "lock.handoff":
		return ev.Proc, claims.ResourceKey("long", int(ev.Arg)), false, true
	case "lock.acquire.short":
		return ev.Proc, claims.ResourceKey("short", int(ev.Arg)), true, true
	case "lock.release.short":
		return ev.Proc, claims.ResourceKey("short", int(ev.Arg)), false, true
	case "res.acquire":
		return ev.Verdict, claims.ResourceKey("res", int(ev.Arg)), true, true
	case "res.release":
		return ev.Verdict, claims.ResourceKey("res", int(ev.Arg)), false, true
	}
	return "", "", false, false
}

// HeldSets folds a recorded event stream into every (task, lock or
// resource) hold it shows, sorted by task then key: the runtime side of the
// static-claims cross-check.
func HeldSets(evs []trace.Event) []claims.TaskClaim {
	held := map[string]map[string]bool{}
	for _, ev := range evs {
		task, key, acquire, ok := holdStep(ev)
		if !ok || !acquire {
			continue
		}
		if held[task] == nil {
			held[task] = map[string]bool{}
		}
		held[task][key] = true
	}
	out := make([]claims.TaskClaim, 0, len(held))
	for task, keys := range held {
		tc := claims.TaskClaim{Task: task}
		for k := range keys {
			tc.Resources = append(tc.Resources, k)
		}
		sort.Strings(tc.Resources)
		out = append(out, tc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Task < out[j].Task })
	return out
}

// RaceAudit replays a recorded event stream through the Eraser shadow-lockset
// state machine: the runtime side of the races cross-check.
func RaceAudit(evs []trace.Event) *races.Auditor {
	a := races.NewAuditor()
	for _, ev := range evs {
		if ev.Kind == trace.KindAccess {
			a.Access(ev.Proc, ev.Verdict, ev.Name == "access.write")
			continue
		}
		task, key, acquire, ok := holdStep(ev)
		switch {
		case !ok:
		case acquire:
			a.Acquire(task, key)
		default:
			a.Release(task, key)
		}
	}
	return a
}
