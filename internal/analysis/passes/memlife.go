package passes

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"

	"deltartos/internal/analysis/framework"
)

// MemLife returns the memlife analyzer: SoCDMMU allocation-lifetime checks
// as a forward dataflow problem over each function's CFG.  The tracked
// objects are block handles returned by ctx-style allocators
// (`addr, err := X.Alloc(c, bytes)`); along every path the pass checks
//
//   - alloc/free pairing: a live handle must reach X.Free(c, addr) (or a
//     deferred free, or a callee that frees the parameter) on every path to
//     the end of the declaring body — task bodies included, which makes the
//     leak-on-task-exit check fall out for free;
//   - double free and use-after-free of handles;
//   - frees of allocations whose error result was never checked.
//
// Error results are tracked through edge refinement: on the `err != nil`
// edge the allocation is failed (nothing to free), on the `err == nil` edge
// it is live.  Handles that escape — stored, appended, captured by a
// closure, passed to an unknown callee or returned — leave the analysis
// (ownership moved), so pool idioms like the splash heap are not flagged.
// Interprocedural propagation uses per-function summaries: callees that
// free a parameter count as frees, and helpers that return a fresh
// allocation count as allocators at their call sites.
func MemLife() *Analyzer {
	return &Analyzer{
		Name: "memlife",
		Doc: "check SoCDMMU alloc/free pairing, use-after-free and task-exit leaks\n\n" +
			"Block handles from `addr, err := X.Alloc(c, n)` must be freed on\n" +
			"every path out of their declaring body (including task bodies),\n" +
			"never freed twice, and never used after being freed.  Handles that\n" +
			"escape (stored, returned, captured, passed on) transfer ownership\n" +
			"and leave the analysis.  Intentional sites are annotated\n" +
			"//deltalint:memlife <why> at the allocation.",
		Run: runMemLife,
	}
}

// memState is a handle's lifetime state along one path.
type memState int

const (
	memLive   memState = iota // allocated (possibly unchecked error)
	memFreed                  // released
	memFailed                 // allocation failed on this path
)

// memObj is one tracked handle.
type memObj struct {
	obj   types.Object
	err   types.Object // associated error result; nil once refined
	state memState
	pos   token.Pos // allocation site
	name  string    // source spelling, for diagnostics
}

// memDefer is one pending `defer X.Free(c, addr)`.
type memDefer struct {
	obj types.Object
	pos token.Pos
}

// memFact is the dataflow fact: tracked handles plus pending deferred
// frees.
type memFact struct {
	objs   []memObj
	defers []memDefer
}

func (f *memFact) clone() *memFact {
	c := &memFact{}
	c.objs = append([]memObj(nil), f.objs...)
	c.defers = append([]memDefer(nil), f.defers...)
	return c
}

func (f *memFact) find(obj types.Object) int {
	for i := range f.objs {
		if f.objs[i].obj == obj {
			return i
		}
	}
	return -1
}

func (f *memFact) drop(i int) {
	f.objs = append(f.objs[:i], f.objs[i+1:]...)
}

func equalMemFacts(a, b *memFact) bool {
	if len(a.objs) != len(b.objs) || len(a.defers) != len(b.defers) {
		return false
	}
	for i := range a.objs {
		if a.objs[i] != b.objs[i] {
			return false
		}
	}
	for i := range a.defers {
		if a.defers[i] != b.defers[i] {
			return false
		}
	}
	return true
}

// memSummary is a callee's interprocedural behaviour.
type memSummary struct {
	freesParams []int // parameter indices the callee frees
	fresh       bool  // returns a fresh allocation without retaining it
}

type memFinding struct {
	pos token.Pos
	msg string
}

type memWalker struct {
	pass    *Pass
	sums    *summaries
	findSet map[string]memFinding
}

func runMemLife(pass *Pass) (any, error) {
	mw := &memWalker{
		pass:    pass,
		sums:    newSummaries(pass),
		findSet: map[string]memFinding{},
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				mw.analyzeBody(fd.Body)
			}
		}
		// Every function literal is its own root: handles allocated inside
		// must be balanced by the literal's end (task bodies, helpers).
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				mw.analyzeBody(lit.Body)
			}
			return true
		})
	}
	var out []memFinding
	for _, f := range mw.findSet {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos != out[j].pos {
			return out[i].pos < out[j].pos
		}
		return out[i].msg < out[j].msg
	})
	for _, f := range out {
		pass.Reportf(f.pos, "%s", f.msg)
	}
	return nil, nil
}

func (mw *memWalker) addFinding(pos token.Pos, msg string) {
	key := strconv.Itoa(int(pos)) + "|" + msg
	if _, ok := mw.findSet[key]; !ok {
		mw.findSet[key] = memFinding{pos: pos, msg: msg}
	}
}

// isAllocCall recognizes `X.Alloc(c, bytes)` and fresh-returning helper
// calls, via the shared summary engine.
func (mw *memWalker) isAllocCall(call *ast.CallExpr) bool {
	return mw.sums.isAllocLike(call)
}

// freeTargets returns the handle expressions of a free-style call: a direct
// `X.Free(c, addr)` or a callee whose effect summary frees one of its
// parameters (transitively, through any depth of helpers).
func (mw *memWalker) freeTargets(call *ast.CallExpr) []ast.Expr {
	name, _ := calleeOf(mw.pass, call)
	if name == "Free" && len(call.Args) == 2 && ctxFirstArg(mw.pass, call) {
		return []ast.Expr{call.Args[1]}
	}
	if obj := mw.sums.graph.CalleeObject(call); obj != nil {
		if s, ok := mw.sums.memFns[obj]; ok && len(s.freesParams) > 0 {
			var out []ast.Expr
			for _, i := range s.freesParams {
				if i < len(call.Args) {
					out = append(out, call.Args[i])
				}
			}
			return out
		}
	}
	return nil
}

// analyzeBody solves the lifetime problem over one body.
func (mw *memWalker) analyzeBody(body *ast.BlockStmt) {
	p := &memProblem{mw: mw, body: body}
	framework.Solve(framework.BuildCFG(body), p)
}

// memProblem adapts the lifetime analysis to the framework solver.
type memProblem struct {
	mw   *memWalker
	body *ast.BlockStmt
}

// Boundary implements framework.FlowProblem.
func (p *memProblem) Boundary() any { return &memFact{} }

// Equal implements framework.FlowProblem.
func (p *memProblem) Equal(a, b any) bool { return equalMemFacts(a.(*memFact), b.(*memFact)) }

// FlowThrough implements framework.EdgeRefiner: `err != nil` / `err == nil`
// branch edges resolve the maybe-failed state of the associated handle.
func (p *memProblem) FlowThrough(e *framework.Edge, fact any) any {
	if e.Cond == nil {
		return fact
	}
	bin, ok := e.Cond.(*ast.BinaryExpr)
	if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return fact
	}
	var errExpr ast.Expr
	if isNilIdent(bin.Y) {
		errExpr = bin.X
	} else if isNilIdent(bin.X) {
		errExpr = bin.Y
	} else {
		return fact
	}
	id, ok := errExpr.(*ast.Ident)
	if !ok {
		return fact
	}
	errObj := p.mw.pass.TypesInfo.Uses[id]
	if errObj == nil {
		return fact
	}
	f := fact.(*memFact)
	refined := false
	for i := range f.objs {
		if f.objs[i].err == errObj {
			refined = true
		}
	}
	if !refined {
		return fact
	}
	out := f.clone()
	// failTaken: on this edge the error is non-nil.
	failTaken := (bin.Op == token.NEQ) != e.Negate
	for i := range out.objs {
		if out.objs[i].err != errObj {
			continue
		}
		out.objs[i].err = nil
		if failTaken {
			out.objs[i].state = memFailed
		} else {
			out.objs[i].state = memLive
		}
	}
	return out
}

// Join implements framework.FlowProblem.
func (p *memProblem) Join(b *framework.Block, in []framework.EdgeFact) any {
	switch b.Kind {
	case framework.BlockLoopHead:
		return p.joinLoopHead(b, in)
	case framework.BlockExit:
		return p.joinExit(in)
	case framework.BlockPlain, framework.BlockJoin, framework.BlockLoopExit, framework.BlockEntry:
		return p.joinMerge(in)
	}
	return p.joinMerge(in)
}

// joinMerge unions the incoming facts.  A handle freed on some paths but
// live on others is a finding (it will double-free or leak depending on
// which path ran).
func (p *memProblem) joinMerge(in []framework.EdgeFact) *memFact {
	out := in[0].Fact.(*memFact).clone()
	for _, ef := range in[1:] {
		f := ef.Fact.(*memFact)
		for _, o := range f.objs {
			i := out.find(o.obj)
			if i < 0 {
				out.objs = append(out.objs, o)
				continue
			}
			cur := &out.objs[i]
			if cur.state == o.state {
				continue
			}
			lf := (cur.state == memLive && o.state == memFreed) ||
				(cur.state == memFreed && o.state == memLive)
			if lf {
				p.mw.addFinding(cur.pos, fmt.Sprintf(
					"memlife: block %s is freed on only some paths through the conditional", cur.name))
				out.drop(i)
				continue
			}
			// live+failed keeps the stricter live state (a later free of the
			// failed path is separately flagged); freed+failed settles freed.
			if cur.state == memFailed {
				cur.state = o.state
			}
		}
		for _, d := range f.defers {
			present := false
			for _, e := range out.defers {
				if e == d {
					present = true
					break
				}
			}
			if !present {
				out.defers = append(out.defers, d)
			}
		}
	}
	return out
}

// joinLoopHead reports handles allocated inside the loop body that are
// still live when the back edge closes the iteration, then continues with
// the loop-entry fact.
func (p *memProblem) joinLoopHead(b *framework.Block, in []framework.EdgeFact) *memFact {
	var entries, backs []framework.EdgeFact
	for _, ef := range in {
		if ef.Edge.Back {
			backs = append(backs, ef)
		} else {
			entries = append(entries, ef)
		}
	}
	if len(entries) == 0 {
		return p.joinMerge(backs)
	}
	var loopPos, loopEnd token.Pos
	if b.Stmt != nil {
		loopPos, loopEnd = b.Stmt.Pos(), b.Stmt.End()
	}
	for _, ef := range backs {
		f := ef.Fact.(*memFact)
		for _, o := range f.objs {
			if o.state == memLive && o.pos >= loopPos && o.pos < loopEnd {
				p.mw.addFinding(o.pos, fmt.Sprintf(
					"memlife: block %s allocated in the loop body is not freed by the end of the iteration", o.name))
			}
		}
	}
	return p.joinMerge(entries)
}

// joinExit applies deferred frees and reports leaks on every path reaching
// the end of the body.
func (p *memProblem) joinExit(in []framework.EdgeFact) *memFact {
	var processed []framework.EdgeFact
	for _, ef := range in {
		f := ef.Fact.(*memFact).clone()
		for _, d := range f.defers {
			if i := f.find(d.obj); i >= 0 {
				if f.objs[i].state == memFreed {
					p.mw.addFinding(d.pos, fmt.Sprintf(
						"memlife: block %s is already freed on this path", f.objs[i].name))
				} else {
					f.objs[i].state = memFreed
				}
			}
		}
		f.defers = nil
		for _, o := range f.objs {
			if o.state == memLive {
				p.mw.addFinding(o.pos, fmt.Sprintf(
					"memlife: block %s allocated here is not freed on every path to the end of the function", o.name))
			}
		}
		f.objs = nil
		processed = append(processed, framework.EdgeFact{Edge: ef.Edge, Fact: f})
	}
	return p.joinMerge(processed)
}

// Transfer implements framework.FlowProblem.
func (p *memProblem) Transfer(b *framework.Block, in any) any {
	f := in.(*memFact).clone()
	for _, n := range b.Nodes {
		p.node(n, f)
	}
	return f
}

func (p *memProblem) node(n ast.Node, f *memFact) {
	// Deferred frees register without running.
	if ds, ok := n.(*ast.DeferStmt); ok {
		if targets := p.mw.freeTargets(ds.Call); len(targets) > 0 {
			for _, t := range targets {
				if id, ok := t.(*ast.Ident); ok {
					if obj := p.mw.pass.TypesInfo.Uses[id]; obj != nil && f.find(obj) >= 0 {
						d := memDefer{obj: obj, pos: ds.Call.Pos()}
						present := false
						for _, e := range f.defers {
							if e == d {
								present = true
								break
							}
						}
						if !present {
							f.defers = append(f.defers, d)
						}
					}
				}
			}
			return
		}
	}

	// Pass 1: use-after-free — any appearance of a freed handle outside the
	// call that freed it.
	freeing := p.freeingIdents(n)
	ast.Inspect(n, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		if freeing[id] {
			return true
		}
		obj := p.mw.pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if i := f.find(obj); i >= 0 && f.objs[i].state == memFreed {
			p.mw.addFinding(id.Pos(), fmt.Sprintf(
				"memlife: block %s is used after being freed", f.objs[i].name))
			f.drop(i)
		}
		return true
	})

	// Pass 2: interpret the statement.  Plain reads (conditions,
	// comparisons) keep the handle tracked; only genuinely escaping
	// positions — unknown-call arguments, assignment sources, channel
	// sends, returns — transfer ownership out of the analysis.
	switch s := n.(type) {
	case *ast.AssignStmt:
		p.assign(s, f)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && p.mw.isAllocCall(call) {
			p.mw.addFinding(call.Pos(),
				"memlife: allocation result is discarded; the block can never be freed")
			return
		}
		p.calls(n, f)
	case *ast.ReturnStmt:
		// Returned handles transfer ownership to the caller.
		p.calls(n, f)
		p.untrackIdents(s, f)
	case *ast.SendStmt:
		p.calls(n, f)
		p.escapes(s.Value, f, nil)
	default:
		p.calls(n, f)
	}
}

// assign handles allocation bindings, reassignment and aliasing.
func (p *memProblem) assign(s *ast.AssignStmt, f *memFact) {
	if len(s.Rhs) == 1 {
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok && p.mw.isAllocCall(call) {
			var handle, errV types.Object
			name := ""
			if len(s.Lhs) >= 1 {
				if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					handle = p.defOrUse(id)
					name = id.Name
				}
			}
			if len(s.Lhs) >= 2 {
				if id, ok := s.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
					errV = p.defOrUse(id)
				}
			}
			if handle == nil {
				p.mw.addFinding(call.Pos(),
					"memlife: allocation result is discarded; the block can never be freed")
				return
			}
			if hasLineDirective(p.mw.pass, call.Pos(), "deltalint:memlife") {
				return
			}
			// A rebound handle or a reused error variable invalidates stale
			// associations.
			if i := f.find(handle); i >= 0 {
				f.drop(i)
			}
			for i := range f.objs {
				if f.objs[i].err == errV {
					f.objs[i].err = nil
				}
			}
			f.objs = append(f.objs, memObj{obj: handle, err: errV, state: memLive, pos: call.Pos(), name: name})
			return
		}
	}
	// Not an allocation: process calls, treat RHS appearances as escapes
	// and LHS rebinds as untracks.
	p.calls(s, f)
	for _, l := range s.Lhs {
		if id, ok := l.(*ast.Ident); ok {
			if obj := p.defOrUse(id); obj != nil {
				if i := f.find(obj); i >= 0 {
					f.drop(i)
				}
			}
		}
	}
	for _, r := range s.Rhs {
		p.escapes(r, f, nil)
	}
}

func (p *memProblem) defOrUse(id *ast.Ident) types.Object {
	if obj := p.mw.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return p.mw.pass.TypesInfo.Uses[id]
}

// freeingIdents collects the handle identifiers consumed by free-style
// calls in the node (excluded from the use-after-free scan).
func (p *memProblem) freeingIdents(n ast.Node) map[*ast.Ident]bool {
	out := map[*ast.Ident]bool{}
	ast.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, t := range p.mw.freeTargets(call) {
			if id, ok := t.(*ast.Ident); ok {
				out[id] = true
			}
		}
		return true
	})
	return out
}

// calls interprets free-style calls and unknown-call escapes in order.
func (p *memProblem) calls(n ast.Node, f *memFact) {
	var list []*ast.CallExpr
	ast.Inspect(n, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			list = append(list, v)
		}
		return true
	})
	for _, call := range list {
		targets := p.mw.freeTargets(call)
		if len(targets) > 0 {
			for _, t := range targets {
				p.applyFree(t, call, f)
			}
			continue
		}
		if p.mw.isAllocCall(call) {
			continue // handled by assign/ExprStmt
		}
		// Unknown callee: tracked handles passed as arguments escape.
		for _, arg := range call.Args {
			p.escapes(arg, f, nil)
		}
	}
}

func (p *memProblem) applyFree(target ast.Expr, call *ast.CallExpr, f *memFact) {
	id, ok := target.(*ast.Ident)
	if !ok {
		return
	}
	obj := p.mw.pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	i := f.find(obj)
	if i < 0 {
		return // parameters and escaped handles are not tracked
	}
	o := &f.objs[i]
	if o.state == memFreed {
		p.mw.addFinding(call.Pos(), fmt.Sprintf(
			"memlife: block %s is already freed on this path", o.name))
		return
	}
	if o.state == memFailed {
		p.mw.addFinding(call.Pos(), fmt.Sprintf(
			"memlife: block %s may be freed after its allocation failed (missing err guard)", o.name))
		return
	}
	if o.err != nil {
		// Freed before the error was ever checked: allowed (the allocator
		// returns a zero handle on failure), but the maybe-failed state
		// resolves here.
		o.err = nil
	}
	o.state = memFreed
}

// escapes untracks every tracked handle appearing in the subtree —
// stores, aliases, closure captures, unknown calls.
func (p *memProblem) escapes(n ast.Node, f *memFact, skip map[*ast.Ident]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		if skip != nil && skip[id] {
			return true
		}
		obj := p.mw.pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if i := f.find(obj); i >= 0 {
			f.drop(i)
		}
		return true
	})
}

// untrackIdents silently drops tracked handles named in the subtree.
func (p *memProblem) untrackIdents(n ast.Node, f *memFact) {
	p.escapes(n, f, nil)
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
