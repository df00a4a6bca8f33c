package passes

import (
	"sort"

	"deltartos/internal/claims"
)

// Claims returns the claims analyzer.  It infers each task's maximal
// resource-claim set — every lock and resource the task body can hold,
// found by the lock-flow task-closure walk — and publishes it as a
// machine-readable claims manifest (the analyzer result, also exported by
// `deltalint -claims`).  The manifest is the static precondition of the
// paper's deadlock-avoidance schemes: the DAA/DAU and the Banker's
// algorithm are only sound when every process's maximal claim is declared
// before it runs.
//
// In scopes that declare claims statically (constant-folded
// Banker.DeclareClaim calls), the pass verifies the declarations cover the
// inferred claim sets and reports every task request that no DeclareClaim
// covers — the Banker would reject it at runtime.
func Claims() *Analyzer {
	return &Analyzer{
		Name: "claims",
		Doc: "infer per-task maximal resource claims and check DeclareClaim coverage\n\n" +
			"The result is a *claims.Manifest mapping every scenario function to\n" +
			"the claim set of each task it creates.  Scenarios that call\n" +
			"Banker.DeclareClaim with constant arguments are additionally checked:\n" +
			"each statically inferred resource request must be covered by a\n" +
			"declaration, or the Banker's safety precondition fails at runtime.",
		Requires: []*Analyzer{lockFlowAnalyzer},
		Run:      runClaims,
	}
}

func runClaims(pass *Pass) (any, error) {
	rep := pass.ResultOf[lockFlowAnalyzer].(*flowReport)
	manifest := &claims.Manifest{Module: pass.PkgPath}
	for _, scope := range rep.scopes {
		real := 0
		for _, t := range scope.tasks {
			if !t.pseudo {
				real++
			}
		}
		if real == 0 {
			continue // not a scenario: no tasks created here
		}
		sc := claims.Scenario{Name: scope.fn}
		for _, t := range scope.tasks {
			if len(t.acquires) == 0 {
				continue
			}
			c := claims.Claim{Task: t.name, Proc: -1}
			for _, a := range sortedAcquires(t) {
				c.Resources = append(c.Resources, a.key)
				if a.space == "res" && a.hasProc && c.Proc < 0 {
					c.Proc = int(a.proc)
				}
			}
			sc.Claims = append(sc.Claims, c)
		}
		if len(sc.Claims) > 0 {
			manifest.Scenarios = append(manifest.Scenarios, sc)
		}
		checkDeclares(pass, scope)
	}
	manifest.Normalize()
	return manifest, nil
}

// sortedAcquires returns a task's acquires ordered by canonical key.
func sortedAcquires(t *taskInfo) []*taskAcquire {
	var keys []string
	for k := range t.acquires {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*taskAcquire, 0, len(keys))
	for _, k := range keys {
		out = append(out, t.acquires[k])
	}
	return out
}

// checkDeclares verifies that a scope's static DeclareClaim calls cover
// every inferred resource request.  Scopes with no constant declarations
// are skipped: their claims come from a manifest at runtime.
func checkDeclares(pass *Pass, scope *flowScope) {
	if len(scope.declares) == 0 {
		return
	}
	declared := map[int64]map[int64]bool{}
	for _, d := range scope.declares {
		set, ok := declared[d.proc]
		if !ok {
			set = map[int64]bool{}
			declared[d.proc] = set
		}
		for _, r := range d.resources {
			set[r] = true
		}
	}
	for _, t := range scope.tasks {
		for _, a := range sortedAcquires(t) {
			if a.space != "res" || !a.numeric || !a.hasProc {
				continue
			}
			if !declared[a.proc][a.id] {
				pass.Reportf(a.pos, "claims: task %s (process %d) may request %s but no DeclareClaim covers it",
					t.name, a.proc, a.display)
			}
		}
	}
}
