package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Interprocedural call graph.
//
// The summary-based passes (lockorder, lockpair, claims, ipc, memlife,
// blocking) all need the same skeleton: which package-level functions and
// locally-bound function literals exist, who calls whom, and a bottom-up
// order so callee effect summaries are available before their callers are
// summarized.  This file provides that skeleton — nodes, edges, the SCC
// condensation (through Digraph) and a fixpoint driver — with no knowledge
// of what a "summary" is; the passes layer supplies the transfer function.

// CGNode is one function in the call graph: either a *ast.FuncDecl or a
// *ast.FuncLit that is bound to a named local (`f := func(...) {...}`).
// Obj is the defining object (the FuncDecl's name for declarations, the
// bound variable for literals); it is the key callers resolve through.
type CGNode struct {
	Obj  types.Object  // defining object (never nil)
	Decl *ast.FuncDecl // non-nil for package-level functions and methods
	Lit  *ast.FuncLit  // non-nil for bound function literals
	Pos  token.Pos

	// Callees are the objects of graph nodes this function's body calls
	// (direct calls and calls through bound literals / aliases), sorted by
	// position of first call for determinism.  Calls to functions outside
	// the graph (other packages, builtins) are not recorded.
	Callees []types.Object
}

// Body returns the function body irrespective of node kind.
func (n *CGNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// CallGraph is the per-package interprocedural skeleton.
type CallGraph struct {
	Nodes map[types.Object]*CGNode
	// SCCs is the condensation: each element is one strongly connected
	// component, listed bottom-up (callees before callers).  Singleton
	// components without a self-edge are the common case; larger
	// components are recursion cycles.
	SCCs [][]*CGNode

	// Aliases maps a local variable or struct-field object to the function
	// object it was assigned from (`f := helper`, `f := recv.Method` — a
	// method value — or `s.f = recv.Method`).  Calls through the alias
	// resolve to the target's summary.
	Aliases map[types.Object]types.Object

	// poisoned marks alias keys (struct fields, typically) that received
	// conflicting or unresolvable bindings: calls through them must stay
	// opaque rather than resolve to the wrong target.
	poisoned map[types.Object]bool

	info *types.Info
}

// BuildCallGraph constructs the call graph for one package: one node per
// package-level FuncDecl and per locally-bound FuncLit, edges from the
// syntax via the type checker's Uses map, then the SCC condensation.
func BuildCallGraph(files []*ast.File, info *types.Info) *CallGraph {
	g := &CallGraph{
		Nodes:    map[types.Object]*CGNode{},
		Aliases:  map[types.Object]types.Object{},
		poisoned: map[types.Object]bool{},
		info:     info,
	}
	for _, file := range files {
		g.collectNodes(file)
	}
	//deltalint:ordered collectEdges writes only the iterated node's own state
	for _, n := range g.Nodes {
		g.collectEdges(n)
	}
	g.condense()
	return g
}

// collectNodes registers FuncDecls, bound FuncLits and function aliases.
func (g *CallGraph) collectNodes(file *ast.File) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		if obj := g.info.Defs[fn.Name]; obj != nil {
			g.Nodes[obj] = &CGNode{Obj: obj, Decl: fn, Pos: fn.Pos()}
		}
	}
	// Bound literals and aliases can appear anywhere, including inside
	// other function bodies.
	bind := func(name *ast.Ident, rhs ast.Expr) {
		obj := g.info.Defs[name]
		if obj == nil {
			return
		}
		if lit, ok := rhs.(*ast.FuncLit); ok {
			g.Nodes[obj] = &CGNode{Obj: obj, Lit: lit, Pos: lit.Pos()}
			return
		}
		if target := g.aliasTarget(rhs); target != nil {
			g.Aliases[obj] = target
		}
	}
	// Struct fields are shared across instances and assignments, so unlike
	// a `:=`-defined local a field alias is kept only while every binding
	// agrees: a second, different target (or one the resolver cannot name)
	// poisons the field and calls through it stay opaque.
	bindField := func(obj types.Object, rhs ast.Expr) {
		if obj == nil || g.poisoned[obj] {
			return
		}
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() {
			return
		}
		if _, isFunc := obj.Type().Underlying().(*types.Signature); !isFunc {
			return
		}
		target := g.aliasTarget(rhs)
		if prev, bound := g.Aliases[obj]; target == nil || (bound && prev != target) {
			delete(g.Aliases, obj)
			g.poisoned[obj] = true
			return
		}
		g.Aliases[obj] = target
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				switch l := lhs.(type) {
				case *ast.Ident:
					bind(l, st.Rhs[i])
				case *ast.SelectorExpr:
					// Method value stored in a struct field:
					// s.f = recv.Method.
					if sel, ok := g.info.Selections[l]; ok && sel.Kind() == types.FieldVal {
						bindField(sel.Obj(), st.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) != len(st.Values) {
				return true
			}
			for i, name := range st.Names {
				bind(name, st.Values[i])
			}
		case *ast.CompositeLit:
			// Keyed struct literals bind fields too: S{f: recv.Method}.
			for _, el := range st.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok {
					bindField(g.info.Uses[key], kv.Value)
				}
			}
		}
		return true
	})
}

// aliasTarget resolves an assignment's RHS to the function object it
// denotes — a named function, another alias, or a method value — or nil.
func (g *CallGraph) aliasTarget(rhs ast.Expr) types.Object {
	switch v := ast.Unparen(rhs).(type) {
	case *ast.Ident:
		// Function alias: f := helper.
		if target := g.info.Uses[v]; target != nil {
			if _, isFunc := target.Type().(*types.Signature); isFunc {
				return target
			}
		}
	case *ast.SelectorExpr:
		// Method value: f := recv.Method.
		if sel, ok := g.info.Selections[v]; ok && sel.Kind() == types.MethodVal {
			return sel.Obj()
		}
		if target := g.info.Uses[v.Sel]; target != nil {
			if _, isFunc := target.Type().(*types.Signature); isFunc {
				return target
			}
		}
	}
	return nil
}

// AliasedCallee resolves a call's target through the alias links alone and
// returns the final object, even when it is not a graph node (a method
// value from another package stored in a local or a struct field).  Direct
// calls — no alias hop involved — return nil: their own callee name
// already classifies them.
func (g *CallGraph) AliasedCallee(call *ast.CallExpr) types.Object {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = g.info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := g.info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = g.info.Uses[fun.Sel]
		}
	}
	seen := map[types.Object]bool{}
	hops := 0
	for obj != nil && !seen[obj] {
		seen[obj] = true
		next, ok := g.Aliases[obj]
		if !ok {
			break
		}
		obj = next
		hops++
	}
	if hops == 0 {
		return nil
	}
	return obj
}

// Resolve follows alias bindings (at most one hop per link, cycle-guarded)
// to the graph node a call target denotes, or nil.
func (g *CallGraph) Resolve(obj types.Object) *CGNode {
	seen := map[types.Object]bool{}
	for obj != nil && !seen[obj] {
		seen[obj] = true
		if n, ok := g.Nodes[obj]; ok {
			return n
		}
		obj = g.Aliases[obj]
	}
	return nil
}

// CalleeObject resolves a call expression's target to the object of a graph
// node (following aliases and method values), or nil for calls that leave
// the graph.
func (g *CallGraph) CalleeObject(call *ast.CallExpr) types.Object {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = g.info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := g.info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = g.info.Uses[fun.Sel]
		}
	}
	if n := g.Resolve(obj); n != nil {
		return n.Obj
	}
	return nil
}

// collectEdges records, in source order, the graph-internal callees of n.
func (g *CallGraph) collectEdges(n *CGNode) {
	seen := map[types.Object]bool{}
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		// Nested bound literals are their own nodes; don't attribute
		// their calls to the enclosing function.  (Unbound literals —
		// immediately-invoked or passed as arguments — stay part of the
		// enclosing body.)
		if lit, ok := x.(*ast.FuncLit); ok {
			//deltalint:ordered membership probe; at most one node owns a literal
			for _, ln := range g.Nodes {
				if ln.Lit == lit {
					return false
				}
			}
			return true
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := g.CalleeObject(call); obj != nil && obj != n.Obj && !seen[obj] {
			seen[obj] = true
			n.Callees = append(n.Callees, obj)
		}
		return true
	})
}

// condense numbers the nodes by position and lists the components of the
// resulting Digraph bottom-up (callees before callers), members sorted by
// position.
func (g *CallGraph) condense() {
	nodes := make([]*CGNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Pos < nodes[j].Pos })
	id := make(map[types.Object]int, len(nodes))
	for i, n := range nodes {
		id[n.Obj] = i
	}
	adj := make([][]int, len(nodes))
	for i, n := range nodes {
		for _, c := range n.Callees {
			adj[i] = append(adj[i], id[c])
		}
	}
	for _, comp := range NewDigraph(adj).SCCs() {
		members := make([]*CGNode, len(comp))
		for k, i := range comp {
			members[k] = nodes[i]
		}
		sort.Slice(members, func(i, j int) bool { return members[i].Pos < members[j].Pos })
		g.SCCs = append(g.SCCs, members)
	}
}

// FixpointBottomUp drives a summary computation over the condensation:
// components are visited callees-first, and within each component the
// transfer function fn is re-applied to every member until none reports a
// change (recursion converges to whatever lattice the caller implements).
// fn returns true if the summary it computed for the node changed.
func (g *CallGraph) FixpointBottomUp(fn func(n *CGNode) bool) {
	for _, comp := range g.SCCs {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if fn(n) {
					changed = true
				}
			}
		}
	}
}
