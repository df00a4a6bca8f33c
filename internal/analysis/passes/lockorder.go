package passes

import (
	"go/token"
	"sort"
	"strings"
)

// LockCycle is one potential-deadlock cycle in a scenario's static
// lock-order graph.
type LockCycle struct {
	// Scope is the top-level function whose tasks form the cycle.
	Scope string
	// Expected is true when the scope carries //deltalint:deadlock-expected.
	Expected bool
	// Nodes are the canonical lock keys on the cycle ("res:1", "long:0").
	Nodes []string
	// Path is the human-readable witness, e.g.
	// "res:0(resVI) -> res:1(resIDCT) -> res:2(resDSP) -> res:0(resVI)".
	Path string
	// Pos anchors the report (the first edge's acquire site).
	Pos token.Pos
}

// LockOrderResult is the lockorder pass result, consumed by the
// static-vs-runtime cross-check tests.  It includes cycles suppressed by
// //deltalint:deadlock-expected.
type LockOrderResult struct {
	Cycles []LockCycle
}

// LockOrder returns the lockorder analyzer: it builds a per-scenario
// lock-order graph (an edge A→B for every site acquiring B while holding
// A, including the assumed both-order edges of batch requests) and reports
// every elementary cycle as a potential deadlock — the static counterpart
// of the runtime parallel deadlock detection unit.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name: "lockorder",
		Doc: "report cycles in the static lock-order graph of each scenario's tasks\n\n" +
			"An edge A->B is recorded whenever some task acquires lock B while\n" +
			"holding lock A.  A cycle means tasks can block each other forever\n" +
			"(the static mirror of the runtime DDU/PDDA).  Intentional deadlock\n" +
			"experiments are annotated //deltalint:deadlock-expected.",
		Requires: []*Analyzer{lockFlowAnalyzer},
		Run:      runLockOrder,
	}
}

func runLockOrder(pass *Pass) (any, error) {
	rep := pass.ResultOf[lockFlowAnalyzer].(*flowReport)
	res := &LockOrderResult{}
	for _, scope := range rep.scopes {
		cycles := findCycles(scope)
		res.Cycles = append(res.Cycles, cycles...)
		if scope.expected {
			continue
		}
		for _, c := range cycles {
			pass.Reportf(c.Pos,
				"potential deadlock: tasks of %s acquire locks in conflicting orders: %s (annotate the scenario //deltalint:deadlock-expected if intentional)",
				c.Scope, c.Path)
		}
	}
	sort.Slice(res.Cycles, func(i, j int) bool {
		if res.Cycles[i].Scope != res.Cycles[j].Scope {
			return res.Cycles[i].Scope < res.Cycles[j].Scope
		}
		return strings.Join(res.Cycles[i].Nodes, ",") < strings.Join(res.Cycles[j].Nodes, ",")
	})
	return res, nil
}

// findCycles enumerates the distinct simple cycles of a scope's lock-order
// graph.  Cycles are canonicalized (rotated to start at the smallest node)
// and deduplicated, so each set of conflicting locks is reported once.
func findCycles(scope *flowScope) []LockCycle {
	// Adjacency over canonical keys; remember a witness edge per pair.
	adj := map[string][]string{}
	edgeAt := map[string]lockEdge{}
	display := map[string]string{}
	for _, e := range scope.edges {
		adj[e.from.key] = append(adj[e.from.key], e.to.key)
		edgeAt[e.from.key+"->"+e.to.key] = e
		display[e.from.key] = e.from.display
		display[e.to.key] = e.to.display
	}
	var nodes []string
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		sort.Strings(adj[n])
	}

	seen := map[string]bool{}
	var out []LockCycle
	var path []string
	onPath := map[string]bool{}

	record := func(cycle []string) {
		// Rotate to smallest node for a canonical form.
		min := 0
		for i := range cycle {
			if cycle[i] < cycle[min] {
				min = i
			}
		}
		canon := append(append([]string(nil), cycle[min:]...), cycle[:min]...)
		id := strings.Join(canon, "->")
		if seen[id] {
			return
		}
		seen[id] = true
		var parts []string
		for _, k := range canon {
			parts = append(parts, display[k])
		}
		parts = append(parts, display[canon[0]])
		first := edgeAt[canon[0]+"->"+canon[1%len(canon)]]
		pos := first.pos
		if pos == token.NoPos {
			pos = scope.decl.Pos()
		}
		out = append(out, LockCycle{
			Scope:    scope.fn,
			Expected: scope.expected,
			Nodes:    canon,
			Path:     strings.Join(parts, " -> "),
			Pos:      pos,
		})
	}

	var dfs func(start, cur string)
	dfs = func(start, cur string) {
		for _, next := range adj[cur] {
			if next == start {
				record(append([]string(nil), path...))
				continue
			}
			// Only extend through nodes >= start so each cycle is found
			// from its smallest node exactly once.
			if next < start || onPath[next] {
				continue
			}
			onPath[next] = true
			path = append(path, next)
			dfs(start, next)
			path = path[:len(path)-1]
			delete(onPath, next)
		}
	}
	for _, n := range nodes {
		onPath[n] = true
		path = append(path, n)
		dfs(n, n)
		path = path[:0]
		delete(onPath, n)
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].Nodes, ",") < strings.Join(out[j].Nodes, ",")
	})
	// Self-edges cannot exist (addEdge drops them), but guard anyway.
	var filtered []LockCycle
	for _, c := range out {
		if len(c.Nodes) > 1 {
			filtered = append(filtered, c)
		}
	}
	return filtered
}
