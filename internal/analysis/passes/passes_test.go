package passes

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"deltartos/internal/analysis/analysistest"
	"deltartos/internal/analysis/framework"
	"deltartos/internal/races"
)

func testdata() string { return filepath.Join("testdata", "src") }

func TestLockOrderGolden(t *testing.T) {
	analysistest.Run(t, testdata(), LockOrder(), "internal/lockorder")
}

func TestLockPairGolden(t *testing.T) {
	analysistest.Run(t, testdata(), LockPair(), "internal/lockpair")
}

func TestClaimsGolden(t *testing.T) {
	analysistest.Run(t, testdata(), Claims(), "internal/claims")
}

func TestCeilingGolden(t *testing.T) {
	analysistest.Run(t, testdata(), Ceiling(), "internal/ceiling")
}

func TestMemLifeGolden(t *testing.T) {
	analysistest.Run(t, testdata(), MemLife(), "internal/memlife")
}

func TestDeterminismGolden(t *testing.T) {
	analysistest.Run(t, testdata(), Determinism(), "internal/determinism")
}

// The global-free check only applies to the concurrency-bearing packages
// (internal/sim, internal/campaign), exercised by their own golden trees.
func TestDeterminismGlobalFreeGolden(t *testing.T) {
	analysistest.Run(t, testdata(), Determinism(), "internal/sim", "internal/campaign")
}

func TestTraceKindGolden(t *testing.T) {
	analysistest.Run(t, testdata(), TraceKind(), "internal/tracekind")
}

func TestIPCGolden(t *testing.T) {
	analysistest.Run(t, testdata(), IPC(), "internal/ipc")
}

// The ipc result must include findings suppressed by
// //deltalint:ipc-expected, and its per-scope flagged set must cover every
// task a wedge could capture — that is what the static-vs-runtime
// cross-check consumes.
func TestIPCResultKeepsExpectedFindings(t *testing.T) {
	results := analysistest.Run(t, testdata(), IPC(), "internal/ipc")
	res, ok := results["internal/ipc"].(*IPCResult)
	if !ok {
		t.Fatalf("ipc result has type %T, want *IPCResult", results["internal/ipc"])
	}
	byScope := map[string]IPCScopeReport{}
	for _, s := range res.Scopes {
		byScope[s.Scope] = s
	}

	exp, ok := byScope["ExpectedFragile"]
	if !ok {
		t.Fatal("ExpectedFragile missing from the result despite its suppressed cycle")
	}
	if !exp.Expected {
		t.Error("ExpectedFragile not marked Expected")
	}
	if got := strings.Join(exp.Flagged, ","); got != "ea,eb" {
		t.Errorf("ExpectedFragile flagged = %s, want ea,eb", got)
	}

	if got := strings.Join(byScope["CascadeMonitor"].Flagged, ","); got != "a,b,mon" {
		t.Errorf("CascadeMonitor flagged = %s, want a,b,mon (cycle plus cascade)", got)
	}
	if got := strings.Join(byScope["RendezvousCycle"].Flagged, ","); got != "left,right" {
		t.Errorf("RendezvousCycle flagged = %s, want left,right", got)
	}

	for _, clean := range []string{"MatchedPipeline", "BoundedVariants", "MatchedEvents", "SelfFeeder"} {
		if s, ok := byScope[clean]; ok {
			t.Errorf("%s reported findings on a clean topology: %+v", clean, s.Findings)
		}
	}
}

// The interprocedural summary engine must carry lock effects through
// wrappers, wrapper chains, bound closures and (mutually) recursive helpers
// — ordering facts for lockorder, pairing facts for lockpair.
func TestSummaryEngineOrderGolden(t *testing.T) {
	analysistest.Run(t, testdata(), LockOrder(), "internal/summary")
}

func TestSummaryEnginePairGolden(t *testing.T) {
	analysistest.Run(t, testdata(), LockPair(), "internal/summarypair")
}

// The blocking pass emits no diagnostics; its golden contract is the result:
// finite IPCP bounds with the right direct term, infinite bounds for busy
// loops and unsupervised lock-order cycles, and finiteness restored by a
// deadlock-expected supervisor annotation.
func TestBlockingGolden(t *testing.T) {
	results := analysistest.Run(t, testdata(), Blocking(), "internal/blocking")
	res, ok := results["internal/blocking"].(*BlockingResult)
	if !ok {
		t.Fatalf("blocking result has type %T, want *BlockingResult", results["internal/blocking"])
	}
	bounds := map[string]BlockingBound{}
	for _, b := range res.Bounds {
		bounds[b.Scenario+"/"+b.Task] = b
		if b.Total != b.Direct+b.Ceiling+b.Chain+b.Overhead {
			t.Errorf("%s/%s: total %d is not the sum of its terms %d+%d+%d+%d",
				b.Scenario, b.Task, b.Total, b.Direct, b.Ceiling, b.Chain, b.Overhead)
		}
	}

	hi := bounds["SimpleIPCP/hi"]
	if !hi.Finite || hi.Direct != 900 || hi.Ceiling != 900 {
		t.Errorf("SimpleIPCP/hi: finite=%v direct=%d ceiling=%d, want finite with direct=ceiling=900 (lo's critical section)",
			hi.Finite, hi.Direct, hi.Ceiling)
	}
	if strings.Join(hi.Waits, ",") != "long:0" || strings.Join(hi.DependsOn, ",") != "lo" {
		t.Errorf("SimpleIPCP/hi: waits=%v depends_on=%v, want [long:0] [lo]", hi.Waits, hi.DependsOn)
	}
	lo := bounds["SimpleIPCP/lo"]
	if !lo.Finite || lo.Direct != 0 || lo.Ceiling != 0 {
		t.Errorf("SimpleIPCP/lo: finite=%v direct=%d ceiling=%d, want finite with no blocking terms (lowest priority)",
			lo.Finite, lo.Direct, lo.Ceiling)
	}

	for _, task := range []string{"spin", "victim"} {
		b := bounds["BusyLoop/"+task]
		if b.Finite || len(b.Reasons) == 0 || !strings.Contains(b.Reasons[0], "unbounded non-blocking loop") {
			t.Errorf("BusyLoop/%s: finite=%v reasons=%v, want infinite with an unbounded-loop reason", task, b.Finite, b.Reasons)
		}
	}
	for _, task := range []string{"t1", "t2"} {
		b := bounds["UnsupervisedCycle/"+task]
		if b.Finite || len(b.Reasons) == 0 || !strings.Contains(b.Reasons[0], "unsupervised cyclic lock-order graph") {
			t.Errorf("UnsupervisedCycle/%s: finite=%v reasons=%v, want infinite with a cyclic-graph reason", task, b.Finite, b.Reasons)
		}
	}
	for _, task := range []string{"s1", "s2"} {
		if b := bounds["SupervisedCycle/"+task]; !b.Finite {
			t.Errorf("SupervisedCycle/%s: not finite (%v) despite the deadlock-expected supervisor", task, b.Reasons)
		}
	}
}

func TestRacesGolden(t *testing.T) {
	analysistest.Run(t, testdata(), Races(), "internal/races")
}

// The races result is the guard manifest the runtime cross-check consumes:
// it must record inferred guards, keep racy locations suppressed by
// //deltalint:race-expected, and carry declared-guard violations.
func TestRacesResultKeepsExpectedFindings(t *testing.T) {
	results := analysistest.Run(t, testdata(), Races(), "internal/races")
	res, ok := results["internal/races"].(*races.Manifest)
	if !ok {
		t.Fatalf("races result has type %T, want *races.Manifest", results["internal/races"])
	}

	locOf := func(scenario, name string) *races.Location {
		t.Helper()
		sc := res.Scenario(scenario)
		if sc == nil {
			t.Fatalf("scenario %s missing from the manifest", scenario)
		}
		for i := range sc.Locations {
			if sc.Locations[i].Name == name {
				return &sc.Locations[i]
			}
		}
		t.Fatalf("%s: location %s missing from the manifest", scenario, name)
		return nil
	}

	if l := locOf("GuardInference", "counter"); l.Racy || strings.Join(l.Guards, ",") != "long:0" {
		t.Errorf("GuardInference/counter: racy=%v guards=%v, want inferred guard long:0", l.Racy, l.Guards)
	}
	if l := locOf("EmptyLockset", "counter"); !l.Racy || l.Expected {
		t.Errorf("EmptyLockset/counter: racy=%v expected=%v, want an unacknowledged race", l.Racy, l.Expected)
	}
	if l := locOf("RaceExpected", "hits"); !l.Racy || !l.Expected {
		t.Errorf("RaceExpected/hits: racy=%v expected=%v, want racy and expected (suppressed diagnostic, visible flag)", l.Racy, l.Expected)
	}
	if l := locOf("GuardedChecking", "state"); !l.Racy || strings.Join(l.Declared, ",") != "long:0" {
		t.Errorf("GuardedChecking/state: racy=%v declared=%v, want a flagged declared-guard violation", l.Racy, l.Declared)
	}
	if l := locOf("GuardedDeclaredClean", "state"); l.Racy {
		t.Errorf("GuardedDeclaredClean/state: racy despite every access holding the declared guard")
	}
	if l := locOf("InterprocAttribution", "total"); !l.Racy || strings.Join(l.Tasks, ",") != "t1,t2" {
		t.Errorf("InterprocAttribution/total: racy=%v tasks=%v, want a race attributed to the calling tasks t1,t2", l.Racy, l.Tasks)
	}
	if l := locOf("InterprocGuarded", "total"); l.Racy || strings.Join(l.Guards, ",") != "long:0" {
		t.Errorf("InterprocGuarded/total: racy=%v guards=%v, want long:0 inferred through the wrapper summaries", l.Racy, l.Guards)
	}
	if sc := res.Scenario("SingleTask"); sc != nil {
		for _, l := range sc.Locations {
			t.Errorf("SingleTask: %s in the manifest despite a single accessing closure", l.Name)
		}
	}
}

// readmePasses extracts the pass names from README's lint table rows
// (lines shaped `| `name` | ... |`).
func readmePasses(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|")
	var names []string
	for _, m := range row.FindAllStringSubmatch(string(data), -1) {
		names = append(names, m[1])
	}
	return names
}

// The README lint table and the registered analyzer list must name the same
// passes, in the same order — and the `deltalint -list` output (Summaries)
// must cover exactly that list, one well-formed "name: synopsis" line per
// pass.
func TestRegisteredPassesMatchREADME(t *testing.T) {
	var registered []string
	for _, a := range All() {
		registered = append(registered, a.Name)
	}
	if got, want := strings.Join(readmePasses(t), ","), strings.Join(registered, ","); got != want {
		t.Errorf("README pass table = %s\nregistered passes  = %s", got, want)
	}
	summaries := Summaries()
	if len(summaries) != len(registered) {
		t.Fatalf("Summaries() has %d lines, want one per registered pass (%d)", len(summaries), len(registered))
	}
	for i, line := range summaries {
		name, synopsis, ok := strings.Cut(line, ": ")
		if !ok || name != registered[i] {
			t.Errorf("Summaries()[%d] = %q, want a %q line shaped \"name: synopsis\"", i, line, registered[i])
			continue
		}
		if strings.TrimSpace(synopsis) == "" || strings.Contains(synopsis, "\n") {
			t.Errorf("Summaries()[%d] synopsis %q must be one non-empty line", i, synopsis)
		}
	}
}

// Every //deltalint:<name> directive — in the README's examples and in the
// pass sources — must be a registered KnownDirectives entry, and every known
// directive must be documented in the README.
func TestKnownDirectivesMatchREADMEAndSources(t *testing.T) {
	known := map[string]bool{}
	for _, d := range KnownDirectives() {
		known[d] = true
	}
	dirRE := regexp.MustCompile(`deltalint:([a-z][a-z-]*)`)

	data, err := os.ReadFile(filepath.Join("..", "..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	inREADME := map[string]bool{}
	for _, m := range dirRE.FindAllStringSubmatch(string(data), -1) {
		inREADME[m[1]] = true
	}
	for d := range inREADME {
		if !known[d] {
			t.Errorf("README documents directive %q which is not in KnownDirectives()", d)
		}
	}
	var undocumented []string
	for d := range known {
		if !inREADME[d] {
			undocumented = append(undocumented, d)
		}
	}
	sort.Strings(undocumented)
	if len(undocumented) > 0 {
		t.Errorf("KnownDirectives %v are not documented in README's directive examples", undocumented)
	}

	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range dirRE.FindAllStringSubmatch(string(src), -1) {
			if !known[m[1]] {
				t.Errorf("%s references directive %q which is not in KnownDirectives()", e.Name(), m[1])
			}
		}
	}
}

// The lockorder result must include cycles suppressed by
// //deltalint:deadlock-expected — that is what the static-vs-runtime
// cross-check (internal/app) consumes.
func TestLockOrderResultKeepsExpectedCycles(t *testing.T) {
	results := analysistest.Run(t, testdata(), LockOrder(), "internal/lockorder")
	res, ok := results["internal/lockorder"].(*LockOrderResult)
	if !ok {
		t.Fatalf("lockorder result has type %T, want *LockOrderResult", results["internal/lockorder"])
	}
	byScope := map[string][]LockCycle{}
	for _, c := range res.Cycles() {
		byScope[c.Scope] = append(byScope[c.Scope], c)
	}
	exp := byScope["ExpectedDeadlock"]
	if len(exp) != 1 {
		t.Fatalf("ExpectedDeadlock: got %d cycles, want 1: %+v", len(exp), exp)
	}
	if !exp[0].Expected {
		t.Errorf("ExpectedDeadlock cycle not marked Expected")
	}
	if got := strings.Join(exp[0].Nodes, ","); got != "res:0,res:1" {
		t.Errorf("ExpectedDeadlock cycle nodes = %s, want res:0,res:1", got)
	}
	if len(byScope["ConflictingOrder"]) != 1 {
		t.Errorf("ConflictingOrder: got %d cycles, want 1", len(byScope["ConflictingOrder"]))
	}
	for _, scope := range []string{"ConsistentOrder", "SeparateScenarios", "SeparateScenariosReversed"} {
		if n := len(byScope[scope]); n != 0 {
			t.Errorf("%s: got %d cycles, want 0", scope, n)
		}
	}
}

// HasCycle answers without listing cycles; it must agree with the listing
// for every scope of the lockorder golden package and of internal/app.
func TestLockOrderHasCycleMatchesCycles(t *testing.T) {
	golden := analysistest.Run(t, testdata(), LockOrder(), "internal/lockorder")["internal/lockorder"]
	_, app, err := framework.RunAnalyzer(appPackage(t), LockOrder())
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]any{"internal/lockorder": golden, "internal/app": app} {
		r := res.(*LockOrderResult)
		listed := map[string]int{}
		for _, c := range r.Cycles() {
			listed[c.Scope]++
		}
		verdicts := map[bool]int{}
		for _, ls := range r.scopes {
			scope := ls.flow.fn
			if got, want := r.HasCycle(scope), listed[scope] > 0; got != want {
				t.Errorf("%s: HasCycle(%s) = %v, but %d cycles are listed", name, scope, got, listed[scope])
			}
			verdicts[listed[scope] > 0]++
		}
		if verdicts[true] == 0 || verdicts[false] == 0 {
			t.Errorf("%s: scopes with and without cycles: %v; the comparison is vacuous", name, verdicts)
		}
	}
}

// The lock passes share one lockflow report and one summary set per
// package, so no pass may edit them: running every pass in reverse order on
// a second load of the same package must reproduce each pass's diagnostics
// and result exactly.
func TestSharedResultsIndependentOfPassOrder(t *testing.T) {
	outputs := func(reverse bool) map[string]string {
		pkgs, err := framework.LoadModule(".", "deltartos/internal/app")
		if err != nil {
			t.Fatalf("load internal/app: %v", err)
		}
		analyzers := All()
		if reverse {
			slices.Reverse(analyzers)
		}
		out := map[string]string{}
		for _, a := range analyzers {
			diags, res, err := framework.RunAnalyzer(pkgs[0], a)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, d := range diags {
				fmt.Fprintf(&b, "%s: %s\n", pkgs[0].Fset.Position(d.Pos), d.Message)
			}
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s: marshal result: %v", a.Name, err)
			}
			out[a.Name] = b.String() + string(js)
		}
		return out
	}
	forward, backward := outputs(false), outputs(true)
	for _, a := range All() {
		if forward[a.Name] != backward[a.Name] {
			t.Errorf("%s: output depends on which passes ran first\nin order:\n%s\nreversed:\n%s",
				a.Name, forward[a.Name], backward[a.Name])
		}
	}
}
