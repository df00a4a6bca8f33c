package passes

import (
	"encoding/json"
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
// static-vs-runtime cross-check tests and the fuzz lint round-trip.  It
// keeps every scope's lock-order graph, including the scopes marked
// //deltalint:deadlock-expected, and lists cycles only when asked.
type LockOrderResult struct {
	scopes []lockScope
}

// lockScope is one scope's lock-order graph with its keys in ID order.
type lockScope struct {
	flow *flowScope
	g    *framework.Digraph
	keys []string
}

// HasCycle reports whether the lock-order graph of the named scope has a
// cycle, without listing any.
func (r *LockOrderResult) HasCycle(scope string) bool {
	for _, ls := range r.scopes {
		if ls.flow.fn == scope && ls.g.HasCycle() {
			return true
		}
	}
	return false
}

// Cycles lists every elementary cycle of every scope, sorted by scope and
// then by node keys.
func (r *LockOrderResult) Cycles() []LockCycle {
	type keyed struct {
		key string // the cycle's nodes, joined once
		c   LockCycle
	}
	var all []keyed
	for _, ls := range r.scopes {
		for _, c := range ls.cycles() {
			all = append(all, keyed{strings.Join(c.Nodes, ","), c})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c.Scope != all[j].c.Scope {
			return all[i].c.Scope < all[j].c.Scope
		}
		return all[i].key < all[j].key
	})
	out := make([]LockCycle, len(all))
	for i := range all {
		out[i] = all[i].c
	}
	return out
}

// MarshalJSON encodes the result as its cycle list.
func (r *LockOrderResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct{ Cycles []LockCycle }{r.Cycles()})
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

// runLockOrder builds every scope's graph but lists the cycles only of the
// scopes it reports: the ones not marked deadlock-expected.
func runLockOrder(pass *Pass) (any, error) {
	rep := pass.ResultOf[lockFlowAnalyzer].(*flowReport)
	res := &LockOrderResult{}
	for _, scope := range rep.scopes {
		g, keys := lockGraph(scope)
		ls := lockScope{scope, g, keys}
		res.scopes = append(res.scopes, ls)
		if scope.expected {
			continue
		}
		for _, c := range ls.cycles() {
			pass.Reportf(c.Pos,
				"potential deadlock: tasks of %s acquire locks in conflicting orders: %s (annotate the scenario //deltalint:deadlock-expected if intentional)",
				c.Scope, c.Path)
		}
	}
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

// cycles lists the elementary cycles of the scope's lock-order graph, each
// once, starting at its smallest key.
func (ls lockScope) cycles() []LockCycle {
	scope := ls.flow
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
	for cycle := range ls.g.Cycles() {
		c := LockCycle{Scope: scope.fn, Expected: scope.expected, Nodes: make([]string, len(cycle))}
		parts := make([]string, len(cycle), len(cycle)+1)
		for i, v := range cycle {
			c.Nodes[i], parts[i] = ls.keys[v], display[ls.keys[v]]
		}
		c.Path = strings.Join(append(parts, parts[0]), " -> ")
		if c.Pos = witness[[2]string{c.Nodes[0], c.Nodes[1%len(c.Nodes)]}]; c.Pos == token.NoPos {
			c.Pos = scope.decl.Pos()
		}
		out = append(out, c)
	}
	return out
}
