package passes

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"deltartos/internal/analysis/framework"
)

// The shared interprocedural summary engine.
//
// Every summary-consuming pass (lockorder, lockpair, claims, ceiling,
// memlife, ipc, blocking) used to carry its own copy of the same
// machinery: index `name := func(...){...}` bindings, recognize wrapper
// helpers, and propagate effects through calls.  That machinery now lives
// here, built on the framework call graph: one `summaries` value per
// package (summariesAnalyzer, shared read-only) holds the package's
// locally-bound literals (alias- and method-value-resolved), a bottom-up
// fixpoint of per-function lock-effect summaries, SoCDMMU alloc/free
// effect summaries, and function-level //deltalint: directives.
//
// The fixpoint runs over the call graph's SCC condensation
// (framework.BuildCallGraph), so a helper that only calls other summarized
// helpers is itself summarized — transitively, to any depth — while
// recursive helpers (self- or mutually-recursive components) never reduce
// to a summary and are analyzed as ordinary opaque calls, exactly like
// before.

// summaries is the package-wide interprocedural summary set.
type summaries struct {
	pass  *Pass
	graph *framework.CallGraph

	// lockOps maps a function to the straight-line lock-operation sequence
	// its body performs (possibly behind a single nil guard).  Calls to a
	// summarized function apply the ops at the call site, and the function
	// itself is excluded from top-level scope walks.
	lockOps map[types.Object][]lockOp

	// memFns maps a function to its SoCDMMU effect summary: which
	// parameter indices it frees and whether it returns a fresh
	// allocation.  Effects propagate transitively: a helper that hands its
	// parameter to a freeing callee frees it too.
	memFns map[types.Object]*memSummary

	// funcDirectives records //deltalint: directives written on function
	// doc comments, keyed by the function object.
	funcDirectives map[types.Object][]string
}

// summariesAnalyzer builds the package's summary set once for every pass
// that requires it; it is not in All().
var summariesAnalyzer = &Analyzer{
	Name: "summaries",
	Doc:  "build the interprocedural call graph and effect summaries once per package",
	Run:  func(pass *Pass) (any, error) { return newSummaries(pass), nil },
}

// newSummaries builds the summary set for one package: call graph, SCC
// condensation, directive collection, then the bottom-up effect fixpoint.
func newSummaries(pass *Pass) *summaries {
	s := &summaries{
		pass:           pass,
		graph:          framework.BuildCallGraph(pass.Files, pass.TypesInfo),
		lockOps:        map[types.Object][]lockOp{},
		memFns:         map[types.Object]*memSummary{},
		funcDirectives: map[types.Object][]string{},
	}
	//deltalint:ordered each node writes only its own funcDirectives key
	for _, n := range s.graph.Nodes {
		if n.Decl == nil || n.Decl.Doc == nil {
			continue
		}
		for _, d := range KnownDirectives() {
			if hasDirective(n.Decl.Doc, "deltalint:"+d) {
				s.funcDirectives[n.Obj] = append(s.funcDirectives[n.Obj], d)
			}
		}
	}
	s.graph.FixpointBottomUp(func(n *framework.CGNode) bool {
		if n.Decl == nil {
			return false // bound literals are inlined, not summarized
		}
		changed := false
		if _, done := s.lockOps[n.Obj]; !done {
			if ops, ok := s.lockSummary(n.Decl); ok {
				s.lockOps[n.Obj] = ops
				changed = true
			}
		}
		if ms := s.memSummaryOf(n.Decl); ms != nil {
			if prev, ok := s.memFns[n.Obj]; !ok || !equalMemSummaries(prev, ms) {
				s.memFns[n.Obj] = ms
				changed = true
			}
		}
		return changed
	})
	return s
}

// localLit resolves obj — through function aliases and method values — to a
// locally-bound function literal, or nil.  These are the helper bodies the
// passes inline at their call sites with the caller's state.
func (s *summaries) localLit(obj types.Object) *ast.FuncLit {
	if n := s.graph.Resolve(obj); n != nil {
		return n.Lit
	}
	return nil
}

// resolveLockOps returns the lock-operation summary of the call's target,
// following aliases and method values, or nil.
func (s *summaries) resolveLockOps(call *ast.CallExpr) []lockOp {
	if obj := s.graph.CalleeObject(call); obj != nil {
		if ops, ok := s.lockOps[obj]; ok {
			return ops
		}
	}
	// A call through an alias chain — a method value stored in a local or
	// a struct field — resolves to the target's name; the lock surfaces
	// whose identity lives in the arguments classify with the call-site
	// args.  Mutex Lock/Unlock is excluded: its identity is the receiver,
	// which the alias has detached from the call site.
	if target := s.graph.AliasedCallee(call); target != nil {
		if name := target.Name(); name != "Lock" && name != "Unlock" {
			return classifyLockOpsNamed(s.pass, name, call)
		}
	}
	return nil
}

// isLockWrapper reports whether fd has a lock summary (and is therefore
// applied at call sites instead of being walked as its own scope).
func (s *summaries) isLockWrapper(fd *ast.FuncDecl) bool {
	obj := s.pass.TypesInfo.Defs[fd.Name]
	if obj == nil {
		return false
	}
	_, ok := s.lockOps[obj]
	return ok
}

// directiveReaches reports whether fn, or any function reachable from it in
// the call graph, carries the named //deltalint: directive.
func (s *summaries) directiveReaches(obj types.Object, directive string) bool {
	seen := map[types.Object]bool{}
	var walk func(o types.Object) bool
	walk = func(o types.Object) bool {
		if o == nil || seen[o] {
			return false
		}
		seen[o] = true
		for _, d := range s.funcDirectives[o] {
			if d == directive {
				return true
			}
		}
		n, ok := s.graph.Nodes[o]
		if !ok {
			return false
		}
		for _, c := range n.Callees {
			if walk(c) {
				return true
			}
		}
		return false
	}
	return walk(obj)
}

// lockSummary reduces fd's body to a lock-operation sequence if possible.
// The summarizable shape is a single (possibly nil-guarded) statement whose
// call either classifies directly as a lock operation — the
// ResourceManager.lock idiom — or resolves, through aliases and method
// values, to an already-summarized callee (a transitive wrapper chain; the
// bottom-up fixpoint makes the callee's summary available first).
// Recursive functions never qualify: the call back into their own SCC has
// no summary yet, and never will — they are analyzed as opaque calls, and
// multi-statement bodies keep being walked as their own scopes so pairing
// misuse inside them is still reported.
func (s *summaries) lockSummary(fd *ast.FuncDecl) ([]lockOp, bool) {
	if len(fd.Body.List) != 1 {
		return nil, false
	}
	st := fd.Body.List[0]
	if ifst, ok := st.(*ast.IfStmt); ok && ifst.Else == nil && len(ifst.Body.List) == 1 {
		st = ifst.Body.List[0]
	}
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	if ops := classifyLockOps(s.pass, call); len(ops) > 0 {
		return ops, true
	}
	if obj := s.graph.CalleeObject(call); obj != nil {
		if ops, ok := s.lockOps[obj]; ok {
			return ops, true
		}
	}
	return nil, false
}

// memSummaryOf computes fd's SoCDMMU effect summary against the current
// fixpoint state, or nil when fd has no memory effects.
func (s *summaries) memSummaryOf(fd *ast.FuncDecl) *memSummary {
	var params []types.Object
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, n := range field.Names {
				params = append(params, s.pass.TypesInfo.Defs[n])
			}
		}
	}
	sum := &memSummary{}
	seen := map[int]bool{}
	noteFreed := func(arg ast.Expr) {
		id, ok := arg.(*ast.Ident)
		if !ok {
			return
		}
		obj := s.pass.TypesInfo.Uses[id]
		for i, p := range params {
			if p != nil && p == obj && !seen[i] {
				seen[i] = true
				sum.freesParams = append(sum.freesParams, i)
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, _ := calleeOf(s.pass, call)
		if name == "Free" && len(call.Args) == 2 && ctxFirstArg(s.pass, call) {
			noteFreed(call.Args[1])
			return true
		}
		// Transitive frees: handing a parameter to a callee that frees it.
		if obj := s.graph.CalleeObject(call); obj != nil {
			if cs, ok := s.memFns[obj]; ok {
				for _, i := range cs.freesParams {
					if i < len(call.Args) {
						noteFreed(call.Args[i])
					}
				}
			}
		}
		return true
	})
	sort.Ints(sum.freesParams)
	sum.fresh = s.returnsFresh(fd)
	if len(sum.freesParams) == 0 && !sum.fresh {
		return nil
	}
	return sum
}

// isAllocLike recognizes `X.Alloc(c, n)` and calls to fresh-returning
// summarized helpers.
func (s *summaries) isAllocLike(call *ast.CallExpr) bool {
	name, _ := calleeOf(s.pass, call)
	if name == "Alloc" && len(call.Args) == 2 && ctxFirstArg(s.pass, call) {
		return true
	}
	if obj := s.graph.CalleeObject(call); obj != nil {
		if cs, ok := s.memFns[obj]; ok {
			return cs.fresh
		}
	}
	return false
}

// returnsFresh reports whether fd hands a fresh allocation to its caller:
// either it returns an alloc-like call directly, or it allocates into a
// local whose only other uses are inside return statements.
func (s *summaries) returnsFresh(fd *ast.FuncDecl) bool {
	direct := false
	var handle types.Object
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			if len(st.Results) == 1 {
				if call, ok := st.Results[0].(*ast.CallExpr); ok && s.isAllocLike(call) {
					direct = true
				}
			}
		case *ast.AssignStmt:
			if len(st.Rhs) == 1 && len(st.Lhs) >= 1 {
				if call, ok := st.Rhs[0].(*ast.CallExpr); ok && s.isAllocLike(call) {
					if id, ok := st.Lhs[0].(*ast.Ident); ok {
						handle = s.pass.TypesInfo.Defs[id]
					}
				}
			}
		}
		return true
	})
	if direct {
		return true
	}
	if handle == nil {
		return false
	}
	fresh := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.ReturnStmt); ok {
			return false // uses inside returns are fine
		}
		if id, ok := n.(*ast.Ident); ok && s.pass.TypesInfo.Uses[id] == handle {
			fresh = false
		}
		return true
	})
	return fresh
}

func equalMemSummaries(a, b *memSummary) bool {
	if a.fresh != b.fresh || len(a.freesParams) != len(b.freesParams) {
		return false
	}
	for i := range a.freesParams {
		if a.freesParams[i] != b.freesParams[i] {
			return false
		}
	}
	return true
}

// ---- shared syntactic classifiers ----
//
// These used to exist in near-identical copies on lockWalker, memWalker and
// ipcWalker; they are package-level now so the summary engine and every
// pass share one definition.

// calleeOf returns the called name and, when resolvable, its object.
func calleeOf(pass *Pass, call *ast.CallExpr) (string, types.Object) {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name, pass.TypesInfo.Uses[fn]
	case *ast.SelectorExpr:
		return fn.Sel.Name, pass.TypesInfo.Uses[fn.Sel]
	}
	return "", nil
}

// ctxFirstArg reports whether the call's first argument is a *...Ctx task
// context — the signature marker of the simulator's kernel surfaces.
func ctxFirstArg(pass *Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return false
	}
	ptr, ok := tv.Type.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && strings.HasSuffix(named.Obj().Name(), "Ctx")
}

// constIntOf folds an expression to a constant int64 plus its source
// spelling (identifier or selector name) when it has one.
func constIntOf(pass *Pass, e ast.Expr) (int64, string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, "", false
	}
	v, ok := constant.Int64Val(tv.Value)
	if !ok {
		return 0, "", false
	}
	name := ""
	if id, ok := e.(*ast.Ident); ok {
		name = id.Name
	} else if sel, ok := e.(*ast.SelectorExpr); ok {
		name = sel.Sel.Name
	}
	return v, name, true
}

// classifyLockOps maps a call expression to the lock operations it
// performs (see the lock-surface table at the top of lockflow.go).
func classifyLockOps(pass *Pass, call *ast.CallExpr) []lockOp {
	name, _ := calleeOf(pass, call)
	return classifyLockOpsNamed(pass, name, call)
}

// classifyLockOpsNamed classifies the call under an explicit callee name —
// the call site's own for direct calls, the alias target's for calls
// through method values.
func classifyLockOpsNamed(pass *Pass, name string, call *ast.CallExpr) []lockOp {
	if name == "" || !ctxFirstArg(pass, call) {
		return nil
	}
	idNode := func(space string, arg ast.Expr) (lockNode, bool) {
		id, src, ok := constIntOf(pass, arg)
		if !ok {
			return lockNode{}, false
		}
		return makeNode(space, id, src), true
	}
	switch {
	case name == "Acquire" && len(call.Args) == 2:
		if n, ok := idNode("long", call.Args[1]); ok {
			return []lockOp{{acquire: true, node: n}}
		}
	case name == "AcquireShort" && len(call.Args) == 2:
		if n, ok := idNode("short", call.Args[1]); ok {
			return []lockOp{{acquire: true, node: n}}
		}
	case name == "Release" && len(call.Args) == 2:
		if n, ok := idNode("long", call.Args[1]); ok {
			return []lockOp{{node: n}}
		}
	case name == "ReleaseShort" && len(call.Args) == 2:
		if n, ok := idNode("short", call.Args[1]); ok {
			return []lockOp{{node: n}}
		}
	case name == "Request" && len(call.Args) == 3:
		if n, ok := idNode("res", call.Args[2]); ok {
			op := lockOp{acquire: true, node: n}
			op.proc, _, op.hasProc = constIntOf(pass, call.Args[1])
			return []lockOp{op}
		}
	case name == "Release" && len(call.Args) == 3:
		if n, ok := idNode("res", call.Args[2]); ok {
			op := lockOp{node: n}
			op.proc, _, op.hasProc = constIntOf(pass, call.Args[1])
			return []lockOp{op}
		}
	case (name == "RequestBoth" || name == "RequestPair") && len(call.Args) == 4:
		a, okA := idNode("res", call.Args[2])
		b, okB := idNode("res", call.Args[3])
		if okA && okB {
			op := lockOp{acquire: true, batch: []lockNode{a, b}}
			op.proc, _, op.hasProc = constIntOf(pass, call.Args[1])
			return []lockOp{op}
		}
	case (name == "Lock" || name == "Unlock") && len(call.Args) == 1:
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		node, ok := mutexNodeOf(pass, sel.X)
		if !ok {
			return nil
		}
		return []lockOp{{acquire: name == "Lock", node: node}}
	}
	return nil
}

// mutexNodeOf derives a lock identity for an rtos.Mutex receiver
// expression: the variable or struct field holding the mutex.
func mutexNodeOf(pass *Pass, recv ast.Expr) (lockNode, bool) {
	var obj types.Object
	switch x := recv.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[x]; ok {
			obj = sel.Obj()
		} else {
			obj = pass.TypesInfo.Uses[x.Sel]
		}
	}
	if obj == nil {
		return lockNode{}, false
	}
	key := "mutex:" + obj.Name()
	if obj.Pkg() != nil {
		key = "mutex:" + obj.Pkg().Name() + "." + obj.Name()
	}
	return lockNode{key: key, display: key}, true
}
