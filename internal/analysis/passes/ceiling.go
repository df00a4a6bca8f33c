package passes

import (
	"go/ast"
	"go/token"
	"sort"
)

// Ceiling returns the ceiling analyzer.  SoCLC's immediate-priority-ceiling
// protocol is only correct when every long lock's programmed ceiling
// dominates (is numerically <=) the priority of every task that acquires
// it; ceilings default to 0 — the HIGHEST priority — so a forgotten
// SetCeiling silently turns every critical section into a global
// non-preemptible one (the footgun called out at the LockCache
// constructor).  The pass activates in packages that build a LockCache (or
// program ceilings) and checks the package's static long-lock acquirer
// sets against every constant-folded SetCeiling call.  The per-task IPCP
// blocking bound those ceilings imply is the blocking pass's Ceiling term.
func Ceiling() *Analyzer {
	return &Analyzer{
		Name: "ceiling",
		Doc: "validate IPCP lock ceilings against static acquirer priorities\n\n" +
			"Every long lock acquired with a constant id in a package that uses\n" +
			"LockCache must have a SetCeiling(id, c) with c <= the highest\n" +
			"(numerically smallest) priority among the lock's static acquirers;\n" +
			"locks acquired with no programmed ceiling are flagged (the default\n" +
			"is 0 = highest priority).  Intentional sites are annotated\n" +
			"//deltalint:ceiling <why>.  The result reports per-lock ceilings.",
		Requires: []*Analyzer{lockFlowAnalyzer},
		Run:      runCeiling,
	}
}

// LockCeiling describes one long lock's static ceiling situation.
type LockCeiling struct {
	ID         int
	Ceiling    int // programmed value (last SetCeiling); 0 when unprogrammed
	Programmed bool
	// MinAcquirerPrio is the numerically smallest (most important) priority
	// among static acquirers with known priorities; valid when HasAcquirerPrio.
	MinAcquirerPrio int
	HasAcquirerPrio bool
	Acquirers       []string // task names, sorted
}

// CeilingResult is the ceiling analyzer's result.
type CeilingResult struct {
	Locks []LockCeiling
}

type ceilCall struct {
	id, ceil int64
	pos      token.Pos
}

// scanCeilings walks every file once for the package's constant-folded
// SetCeiling calls, in source order, and reports whether the package also
// builds a LockCache.
func scanCeilings(pass *Pass) (sets []ceilCall, lockCache bool) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch calleeName(call) {
			case "NewLockCache":
				lockCache = true
			case "SetCeiling":
				if len(call.Args) != 2 {
					return true
				}
				id, _, ok1 := constIntOf(pass, call.Args[0])
				c, _, ok2 := constIntOf(pass, call.Args[1])
				if ok1 && ok2 {
					sets = append(sets, ceilCall{id: id, ceil: c, pos: call.Pos()})
				}
			}
			return true
		})
	}
	return sets, lockCache
}

// foldCeilings folds the SetCeiling calls into per-lock ceilings (last call
// wins, like the runtime) and the set of programmed lock ids.
func foldCeilings(sets []ceilCall) (map[int64]int64, map[int64]bool) {
	ceil := map[int64]int64{}
	programmed := map[int64]bool{}
	for _, s := range sets {
		ceil[s.id] = s.ceil
		programmed[s.id] = true
	}
	return ceil, programmed
}

func runCeiling(pass *Pass) (any, error) {
	res := &CeilingResult{}
	sets, lockCache := scanCeilings(pass)
	if !lockCache && len(sets) == 0 {
		return res, nil
	}

	rep := pass.ResultOf[lockFlowAnalyzer].(*flowReport)

	// Package-wide static acquirer sets per long lock id (shared with the
	// blocking engine).
	lockIDs, byLock := indexLongAcquires(rep)

	ceil, programmed := foldCeilings(sets)

	for _, id := range lockIDs {
		acqs := byLock[id]
		lc := LockCeiling{ID: int(id), Programmed: programmed[id]}
		if programmed[id] {
			lc.Ceiling = int(ceil[id])
		}
		names := map[string]bool{}
		for _, a := range acqs {
			names[a.task.name] = true
			if a.task.hasPrio && (!lc.HasAcquirerPrio || int(a.task.prio) < lc.MinAcquirerPrio) {
				lc.MinAcquirerPrio = int(a.task.prio)
				lc.HasAcquirerPrio = true
			}
		}
		for n := range names {
			lc.Acquirers = append(lc.Acquirers, n)
		}
		sort.Strings(lc.Acquirers)
		res.Locks = append(res.Locks, lc)

		if !programmed[id] {
			// Report at the first (lowest-position) acquire site.
			first := acqs[0]
			for _, a := range acqs[1:] {
				if a.acq.pos < first.acq.pos {
					first = a
				}
			}
			if !hasLineDirective(pass, first.acq.pos, "deltalint:ceiling") {
				pass.Reportf(first.acq.pos,
					"ceiling: lock %s is acquired but has no programmed ceiling (SetCeiling defaults to 0, the highest priority)",
					first.acq.display)
			}
		}
	}

	// Every constant SetCeiling must dominate its lock's acquirer set.
	for _, s := range sets {
		lcIdx := -1
		for i := range res.Locks {
			if res.Locks[i].ID == int(s.id) {
				lcIdx = i
			}
		}
		if lcIdx < 0 {
			continue // ceiling for a lock never acquired statically
		}
		lc := res.Locks[lcIdx]
		if lc.HasAcquirerPrio && s.ceil > int64(lc.MinAcquirerPrio) &&
			!hasLineDirective(pass, s.pos, "deltalint:ceiling") {
			pass.Reportf(s.pos,
				"ceiling: SetCeiling(%d, %d) does not dominate the lock's acquirers (highest acquirer priority %d): IPCP requires ceiling <= %d",
				s.id, s.ceil, lc.MinAcquirerPrio, lc.MinAcquirerPrio)
		}
	}
	return res, nil
}

func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// hasLineDirective reports a //deltalint:<name> directive on pos's line or
// the line above, locating the enclosing file first.
func hasLineDirective(pass *Pass, pos token.Pos, directive string) bool {
	file := fileFor(pass, pos)
	return file != nil && directiveAt(pass.Fset, file, pos, directive)
}
