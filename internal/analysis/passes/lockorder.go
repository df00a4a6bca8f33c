package passes

import (
	"go/token"
	"sort"
	"strings"

	"deltartos/internal/analysis/framework"
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

// lockGraph interns a scope's lock keys in sorted order, so ID order is key
// order, and builds its lock-order Digraph with every successor list in
// ascending order.
func lockGraph(scope *flowScope) (*framework.Digraph, []string) {
	id := map[string]int{}
	for _, e := range scope.edges {
		id[e.from.key], id[e.to.key] = 0, 0
	}
	keys := make([]string, 0, len(id))
	for k := range id {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		id[k] = i
	}
	adj := make([][]int, len(keys))
	for _, e := range scope.edges {
		from := id[e.from.key]
		adj[from] = append(adj[from], id[e.to.key])
	}
	for _, succ := range adj {
		sort.Ints(succ)
	}
	return framework.NewDigraph(adj), keys
}

// hasLockCycle reports whether a scope's lock-order graph has a cycle.
func hasLockCycle(scope *flowScope) bool {
	g, _ := lockGraph(scope)
	return g.HasCycle()
}

// findCycles lists the elementary cycles of a scope's lock-order graph, each
// once, starting at its smallest key.
func findCycles(scope *flowScope) []LockCycle {
	g, keys := lockGraph(scope)
	// The last display seen for a key wins; addEdge keeps one witness edge
	// per from->to pair.
	display := map[string]string{}
	witness := map[[2]string]token.Pos{}
	for _, e := range scope.edges {
		display[e.from.key] = e.from.display
		display[e.to.key] = e.to.display
		witness[[2]string{e.from.key, e.to.key}] = e.pos
	}
	var out []LockCycle
	for cycle := range g.Cycles() {
		c := LockCycle{Scope: scope.fn, Expected: scope.expected, Nodes: make([]string, len(cycle))}
		parts := make([]string, len(cycle), len(cycle)+1)
		for i, v := range cycle {
			c.Nodes[i], parts[i] = keys[v], display[keys[v]]
		}
		c.Path = strings.Join(append(parts, parts[0]), " -> ")
		if c.Pos = witness[[2]string{c.Nodes[0], c.Nodes[1%len(c.Nodes)]}]; c.Pos == token.NoPos {
			c.Pos = scope.decl.Pos()
		}
		out = append(out, c)
	}
	return out
}
