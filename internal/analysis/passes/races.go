package passes

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"

	"deltartos/internal/analysis/framework"
	"deltartos/internal/races"
)

// The races pass: Eraser-style lockset analysis over scenario task closures.
//
// The one lockflow solve per package walks every task body (and the bound
// helper literals it calls, inlined with the caller's held-set) and records
// each shared-location access with the lock set held on all paths to it
// (recordAccesses); the pass reads them from the shared *flowReport.  Per
// location the candidate lockset is the intersection of the held sets of
// every access; a location written and touched by ≥2 task closures whose
// candidate set is empty is a potential data race.  A
// //deltalint:guardedby(<lock>) declaration turns inference into checking
// (every access must hold the declared guards), and
// //deltalint:race-expected acknowledges an intentional race — the
// diagnostic is suppressed but the location stays flagged in the result,
// which is what the runtime shadow-auditor cross-check consumes.

// Races returns the lockset race analyzer.
func Races() *Analyzer {
	return &Analyzer{
		Name: "races",
		Doc: "detect shared-state data races via Eraser-style lockset inference\n\n" +
			"Infers each shared location's guard set by intersecting the locks held\n" +
			"at every task-closure access and reports locations whose candidate\n" +
			"lockset goes empty; //deltalint:guardedby(<lock>) turns inference into\n" +
			"checking and //deltalint:race-expected acknowledges an intentional race.\n" +
			"Emits the guard manifest for deltalint -races, cross-checked against\n" +
			"the runtime shadow-lockset auditor (DESIGN.md §14).",
		Requires: []*Analyzer{lockFlowAnalyzer},
		Run:      runRaces,
	}
}

// raceAccess is one (task, site) access with the locks held on all paths.
type raceAccess struct {
	accessKey
	held map[string]bool // intersected over dataflow visits
}

// raceLoc aggregates the accesses of one abstract location within a scope,
// sorted by position once the scope's solve ends.
type raceLoc struct {
	loc      framework.SharedLoc
	accesses []*raceAccess
}

type accessKey struct {
	unit  *taskInfo
	pos   token.Pos
	write bool
}

// recordAccesses books the shared-location accesses of CFG node n, a node
// of fn's body, with the fact in effect before the node's calls are
// interpreted.  Inlined bound literals run under the calling task, so
// accesses through the telemetry/withFrame idiom attribute to the task that
// runs them; scope-level code (pseudo tasks) is not a task closure and is
// skipped.
func (sf *scopeFlow) recordAccesses(fn, n ast.Node, f *flowFact) {
	if sf.task.pseudo {
		return
	}
	for _, a := range sf.w.shared.AccessesIn(n) {
		// State declared inside fn — its parameters and locals — is
		// per-invocation, not shared.  AccessesIn does not descend into
		// nested literals, so fn is the innermost literal of the access.
		if root := a.Loc.Root.Pos(); root >= fn.Pos() && root < fn.End() {
			continue
		}
		key := accessKey{unit: sf.task, pos: a.Pos, write: a.Write}
		acc, ok := sf.accesses[key]
		if !ok {
			acc = &raceAccess{accessKey: key, held: heldKeys(f)}
			sf.accesses[key] = acc
			rl, ok := sf.locs[a.Loc.Key]
			if !ok {
				rl = &raceLoc{loc: a.Loc}
				sf.locs[a.Loc.Key] = rl
				sf.scope.locs = append(sf.scope.locs, rl)
			}
			rl.accesses = append(rl.accesses, acc)
			continue
		}
		// Re-visited site (loop fixpoint, another path): keep only locks
		// held on every path to the access.
		for k := range acc.held {
			if f.holds(k) < 0 {
				delete(acc.held, k)
			}
		}
	}
}

func runRaces(pass *Pass) (any, error) {
	manifest := &races.Manifest{}
	for _, scope := range pass.ResultOf[lockFlowAnalyzer].(*flowReport).scopes {
		if sc := reportRaceScope(pass, scope); len(sc.Locations) > 0 {
			manifest.Scenarios = append(manifest.Scenarios, sc)
		}
	}
	manifest.Normalize()
	return manifest, nil
}

func heldKeys(f *flowFact) map[string]bool {
	out := map[string]bool{}
	for _, h := range f.held {
		out[h.node.key] = true
	}
	return out
}

// reportRaceScope runs guard inference over one scope's accesses, reports
// the races and builds the scope's manifest entry.
func reportRaceScope(pass *Pass, scope *flowScope) races.Scenario {
	sc := races.Scenario{Name: scope.fn}
	for _, rl := range scope.locs {
		key := rl.loc.Key
		units := map[*taskInfo]bool{}
		taskNames := map[string]bool{}
		reads, writes := 0, 0
		guards := map[string]bool{}
		for i, a := range rl.accesses {
			units[a.unit] = true
			taskNames[a.unit.name] = true
			if a.write {
				writes++
			} else {
				reads++
			}
			if i == 0 {
				for k := range a.held {
					guards[k] = true
				}
			} else {
				for k := range guards {
					if !a.held[k] {
						delete(guards, k)
					}
				}
			}
		}
		declared := declaredGuards(pass, rl.loc)

		loc := races.Location{
			Name:     key,
			Kind:     rl.loc.Kind,
			Reads:    reads,
			Writes:   writes,
			Guards:   sortedKeys(guards),
			Declared: declared,
		}
		for t := range taskNames {
			loc.Tasks = append(loc.Tasks, t)
		}
		sort.Strings(loc.Tasks)

		expected := raceExpected(pass, scope, rl)
		var diag func()
		if len(declared) > 0 {
			// Declared guard: inference becomes checking.
			for _, a := range rl.accesses {
				for _, g := range declared {
					if !a.held[g] {
						loc.Racy = true
						if diag == nil {
							a, g := a, g
							diag = func() {
								pass.Reportf(a.pos, "%s: %s is declared guardedby(%s) but task %s %s it at %s without holding %s",
									sc.Name, key, strings.Join(declared, ","), a.unit.name, rw(a.write), posStr(pass, a.pos), g)
							}
						}
					}
				}
			}
		} else if len(units) >= 2 && writes > 0 && len(guards) == 0 {
			loc.Racy = true
			wit, confl := raceWitnesses(rl)
			narrow := narrowingPath(rl)
			diag = func() {
				pass.Reportf(wit.pos, "%s: %s is accessed by %d tasks with an empty candidate lockset: write by task %s at %s, %s by task %s at %s; lockset %s",
					sc.Name, key, len(taskNames), wit.unit.name, posStr(pass, wit.pos),
					rw(confl.write), confl.unit.name, posStr(pass, confl.pos), narrow)
			}
		}
		if loc.Racy {
			loc.Expected = expected
			if !expected && diag != nil {
				diag()
			}
		}

		// The manifest lists genuinely shared locations (≥2 closures) plus
		// anything globally visible or explicitly declared.
		if len(units) >= 2 || rl.loc.Kind == framework.SharedGlobal || len(declared) > 0 {
			sc.Locations = append(sc.Locations, loc)
		}
	}
	return sc
}

// raceWitnesses picks the two conflicting accesses quoted in the report:
// the first write, and the first access from a different task closure.
func raceWitnesses(rl *raceLoc) (wr, other *raceAccess) {
	for _, a := range rl.accesses {
		if a.write {
			wr = a
			break
		}
	}
	for _, a := range rl.accesses {
		if a.unit != wr.unit {
			other = a
			break
		}
	}
	if other == nil {
		other = wr
	}
	return wr, other
}

// narrowingPath renders how the candidate lockset shrank to empty, in
// source order: "{long:0,long:1} -> {long:0} -> {}".
func narrowingPath(rl *raceLoc) string {
	var steps []string
	var cand map[string]bool
	for i, a := range rl.accesses {
		if i == 0 {
			cand = map[string]bool{}
			for k := range a.held {
				cand[k] = true
			}
		} else {
			changed := false
			for k := range cand {
				if !a.held[k] {
					delete(cand, k)
					changed = true
				}
			}
			if !changed {
				continue
			}
		}
		steps = append(steps, "{"+strings.Join(sortedKeys(cand), ",")+"}")
		if len(cand) == 0 {
			break
		}
	}
	return strings.Join(steps, " -> ")
}

func rw(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

func posStr(pass *Pass, pos token.Pos) string {
	p := pass.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

func sortedKeys(set map[string]bool) []string {
	var out []string
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fileFor finds the package file containing pos.
func fileFor(pass *Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if pos >= f.FileStart && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// declaredGuards returns the //deltalint:guardedby(...) annotation attached
// to the location's declaration: the base variable's declaration line, or —
// for field paths — the struct field's declaration line.
func declaredGuards(pass *Pass, loc framework.SharedLoc) []string {
	if g := guardsDeclaredAt(pass, loc.Root.Pos()); g != nil {
		return g
	}
	if loc.Fld != nil {
		if g := guardsDeclaredAt(pass, loc.Fld.Pos()); g != nil {
			return g
		}
	}
	return nil
}

// guardsDeclaredAt parses a guardedby directive on pos's line or the line
// directly above it.
func guardsDeclaredAt(pass *Pass, pos token.Pos) []string {
	file := fileFor(pass, pos)
	if file == nil {
		return nil
	}
	line := pass.Fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "deltalint:guardedby(") {
				continue
			}
			cl := pass.Fset.Position(c.Pos()).Line
			if cl != line && cl != line-1 {
				continue
			}
			inner := strings.TrimPrefix(text, "deltalint:guardedby(")
			if i := strings.IndexByte(inner, ')'); i >= 0 {
				inner = inner[:i]
			}
			var out []string
			for _, g := range strings.Split(inner, ",") {
				if g = strings.TrimSpace(g); g != "" {
					out = append(out, g)
				}
			}
			sort.Strings(out)
			return out
		}
	}
	return nil
}

// raceExpected reports whether the location's race is acknowledged: a
// //deltalint:race-expected on the scope function's doc, on the location's
// declaration (base variable or struct field), or on any access line.
func raceExpected(pass *Pass, scope *flowScope, rl *raceLoc) bool {
	if hasDirective(scope.decl.Doc, "deltalint:race-expected") {
		return true
	}
	const directive = "deltalint:race-expected"
	if hasLineDirective(pass, rl.loc.Root.Pos(), directive) {
		return true
	}
	if rl.loc.Fld != nil && hasLineDirective(pass, rl.loc.Fld.Pos(), directive) {
		return true
	}
	for _, a := range rl.accesses {
		if hasLineDirective(pass, a.pos, directive) {
			return true
		}
	}
	return false
}
