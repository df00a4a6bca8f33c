// Package passes implements the ten deltalint analyzers:
//
//   - lockorder: builds the static lock-order graph across the tasks of
//     each scenario and reports potential deadlock cycles — the static
//     mirror of the runtime PDDA/DDU (see DESIGN.md §8).
//   - lockpair: flags paths through a task body where an acquired lock is
//     not released, released without being held, or re-acquired; runs on
//     the CFG dataflow engine (see DESIGN.md §9).
//   - claims: infers each task's maximal resource-claim set and emits the
//     machine-readable claims manifest; checks Banker DeclareClaim
//     coverage against the inferred claims.
//   - ceiling: validates IPCP SetCeiling values against static acquirer
//     priorities and flags locks acquired with no programmed ceiling.
//   - memlife: checks SoCDMMU alloc/free pairing, double free,
//     use-after-free of block handles and leak-on-task-exit.
//   - determinism: enforces the byte-identical-runs contract in simulation
//     code (no wall clock, no math/rand, no order-sensitive map ranges,
//     and no package-level vars in internal/sim or internal/campaign —
//     those packages run on several goroutines at once).
//   - tracekind: requires switches over module enums (trace.Kind,
//     fault.Kind, ...) to be exhaustive or carry a default clause.
//   - ipc: matches blocking IPC operations (recv, event wait, rendezvous
//     send) across the tasks of each scenario MPI-style and reports
//     send/recv cycles, blocking ops with no counterparty, and tasks
//     cascading behind already-flagged ones — the static mirror of the
//     runtime IPC deadlock core (see DESIGN.md §12).
//   - blocking: computes per-task worst-case blocking bounds per scenario
//     (direct + ceiling push-through + transitive chain + kernel
//     overhead) over the shared interprocedural summaries; emits no
//     diagnostics — its result is written by deltalint -blocking and
//     cross-checked against the kernel's traced block.* counters (see
//     DESIGN.md §13).
//   - races: Eraser-style lockset analysis over scenario task closures —
//     infers each shared location's guard set by intersecting the locks
//     held at every access and reports locations whose candidate lockset
//     goes empty; emits the guard manifest for deltalint -races and is
//     cross-checked against the runtime shadow-lockset auditor (see
//     DESIGN.md §14).
//
// The passes share one lock-flow solve and one summary build per package
// through two analyzers outside All(), lockflow and summaries (Requires).
//
// Findings can be acknowledged in source with comment directives:
//
//	//deltalint:deadlock-expected  on a scenario function whose lock graph
//	                               intentionally contains a cycle (the
//	                               detection/avoidance experiments)
//	//deltalint:ordered <why>      on a map-range statement whose iteration
//	                               order provably cannot leak into
//	                               simulation-visible state
//	//deltalint:global-ok <why>    on a package-level var in internal/sim or
//	                               internal/campaign that is provably
//	                               immutable or goroutine-confined
//	//deltalint:partial <why>      on a switch that deliberately handles a
//	                               subset of an enum
//	//deltalint:ceiling <why>      on an acquire or SetCeiling line whose
//	                               ceiling situation is intentional
//	//deltalint:memlife <why>      on an allocation whose lifetime is
//	                               managed outside the analyzable scope
//	//deltalint:ipc-expected <why> on a scenario function whose message
//	                               topology is intentionally fragile (the
//	                               chaos-campaign rings)
//	//deltalint:guardedby(<lock>)  on a shared variable or struct-field
//	                               declaration, naming the canonical lock
//	                               key(s) every access must hold
//	//deltalint:race-expected <why> on a racy location's declaration, an
//	                               access line or the scenario doc, when the
//	                               race is intentional (statistics counters
//	                               whose increments are atomic in the
//	                               discrete-event model)
package passes

import (
	"go/ast"
	"go/token"
	"strings"

	"deltartos/internal/analysis/framework"
)

// Analyzer and Pass alias the framework types so the pass sources read
// exactly like golang.org/x/tools/go/analysis passes.
type (
	Analyzer = framework.Analyzer
	Pass     = framework.Pass
)

// All returns the full deltalint analyzer set in reporting order.
func All() []*Analyzer {
	return []*Analyzer{LockOrder(), LockPair(), Claims(), Ceiling(), MemLife(), Determinism(), TraceKind(), IPC(), Blocking(), Races()}
}

// Summaries returns one "name: synopsis" line per registered analyzer, in
// reporting order, where the synopsis is the first line of the pass Doc.
// This is the deltalint -list output; the parity test pins the README pass
// table against it.
func Summaries() []string {
	var out []string
	for _, a := range All() {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		out = append(out, a.Name+": "+doc)
	}
	return out
}

// KnownDirectives is the canonical registry of //deltalint: source
// directives, sorted.  Every directive a pass consults must be listed here
// (and documented in the package comment above and the README) — the
// parity test in passes_test.go enforces both.
func KnownDirectives() []string {
	return []string{
		"ceiling",
		"deadlock-expected",
		"global-ok",
		"guardedby",
		"ipc-expected",
		"memlife",
		"ordered",
		"partial",
		"race-expected",
	}
}

// hasDirective reports whether a comment group contains the given
// //deltalint: directive.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// directiveAt reports whether file has the directive on the same line as
// pos or on the line directly above it (trailing or preceding comment).
func directiveAt(fset *token.FileSet, file *ast.File, pos token.Pos, directive string) bool {
	line := fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if text != directive && !strings.HasPrefix(text, directive+" ") {
				continue
			}
			cl := fset.Position(c.Pos()).Line
			if cl == line || cl == line-1 {
				return true
			}
		}
	}
	return false
}

// inSimulationScope reports whether a package path is part of the
// simulation tree held to the determinism contract.  The module prefix is
// irrelevant: any internal/ package qualifies (testdata trees mimic this
// with an internal/ directory).
func inSimulationScope(pkgPath string) bool {
	return strings.Contains(pkgPath, "internal/") || strings.HasPrefix(pkgPath, "internal")
}

// firstSegment returns the leading path element ("deltartos" for
// "deltartos/internal/app").
func firstSegment(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}
