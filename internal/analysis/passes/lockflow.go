package passes

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"deltartos/internal/analysis/framework"
)

// The CFG-based lock-flow engine, the one held-lock analysis behind every
// lock pass.  It recognizes the repository's lock surfaces by shape:
//
//	Acquire(c, id) / Release(c, id)            long locks   (soclc.Manager)
//	AcquireShort(c, id) / ReleaseShort(c, id)  short locks  (spin / SoCLC)
//	Request(c, p, q) / Release(c, p, q)        resources    (ResourceManager,
//	                                            AvoidanceWorld)
//	RequestBoth/RequestPair(c, p, qa, qb)      batch resource requests:
//	                                            grant order is chosen by the
//	                                            manager, so both acquisition
//	                                            orders are assumed
//	Lock(c) / Unlock(c)                        rtos.Mutex (identity = the
//	                                            receiver variable or field)
//
// where c's static type is a pointer to a *Ctx-suffixed named type (the
// rtos.TaskCtx convention), and lock/resource ids fold to compile-time
// constants.  Ops with non-constant ids are skipped: the engine is a
// may-analysis and never guesses identities.
//
// Each function body is lowered to the framework's control-flow graph and a
// forward dataflow problem tracks the held-lock set along every path.  The
// engine records, per top-level function (tasks synchronize only with tasks
// of the same scenario): the lock-order edges of the lockorder pass, the
// lockpair diagnostics, and the per-task facts the claims and ceiling passes
// consume — which locks/resources each task can hold (its maximal claim set)
// and the longest constant-cycle critical section it executes under each
// lock.
//
// Interprocedural propagation uses the summary engine in interproc.go:
// wrapper helpers resolve to the wrapped operation, locally-bound literals
// (the telemetry/withFrame helper idiom) and literals passed as plain call
// arguments are re-analyzed at each call site with the caller's entry fact
// (the resulting exit fact becomes the caller's state — a polymorphic
// summary, computed per call), and CreateTask/Spawn/go literals are queued
// as fresh task roots.

// lockNode identifies one lock in the static graph.
type lockNode struct {
	key     string // canonical id, e.g. "long:0", "res:1", "mutex:mu"
	display string // id plus the source spelling, e.g. "res:1(resIDCT)"
}

func makeNode(space string, id int64, srcName string) lockNode {
	key := fmt.Sprintf("%s:%d", space, id)
	display := key
	if srcName != "" {
		display = fmt.Sprintf("%s(%s)", key, srcName)
	}
	return lockNode{key: key, display: display}
}

type lockOp struct {
	acquire bool
	batch   []lockNode // batch acquisition (both orders); nil for single
	node    lockNode
	proc    int64 // constant process id of resource-space ops
	hasProc bool
}

// lockEdge is one ordered acquisition: to was acquired while from was held.
type lockEdge struct {
	from, to lockNode
	pos      token.Pos
}

// lockWalker is the per-package context of the engine; the interprocedural
// pieces (bound-literal bodies, wrapper summaries) come from the shared
// summary engine in interproc.go.
type lockWalker struct {
	pass *Pass
	sums *summaries
	// onNode, when set, observes every CFG node with the fact in effect
	// before the node's calls are interpreted — the races pass's
	// access-recording hook.  Inlined bound literals are observed under the
	// calling task, so accesses through the telemetry/withFrame idiom
	// attribute to the task that runs them.
	onNode func(task *taskInfo, n ast.Node, f *flowFact)
}

func newLockWalker(pass *Pass) *lockWalker {
	return &lockWalker{pass: pass, sums: newSummaries(pass)}
}

// pairFinding is one lockpair diagnostic.
type pairFinding struct {
	pos token.Pos
	msg string
}

// taskAcquire is one lock/resource a task can hold, with the worst-case
// constant-cycle critical section observed under it.
type taskAcquire struct {
	key     string // canonical id, e.g. "long:0"
	display string // id plus source spelling
	space   string // "long", "short", "res", "mutex"
	id      int64  // numeric id within the space
	numeric bool   // id parsed (false for mutex identities)
	pos     token.Pos
	proc    int64 // resource-space process id (res ops only)
	hasProc bool
	maxCS   int64 // max constant cycles charged while held, over all paths
}

// taskInfo aggregates the lock footprint of one task body (or, for pseudo
// entries, the scope's own straight-line code and stray closures).
type taskInfo struct {
	name     string // runtime task name when constant, else a label
	pos      token.Pos
	prio     int64
	hasPrio  bool
	pseudo   bool         // scope-level code, not a created task
	delay    int64        // constant CreateTask start delay (cycles), 0 otherwise
	lit      *ast.FuncLit // the task body literal (nil for pseudo entries)
	acquires map[string]*taskAcquire
}

// declareClaim is one constant-folded Banker.DeclareClaim call.
type declareClaim struct {
	proc      int64
	resources []int64
	pos       token.Pos
}

// flowScope is the engine's product for one top-level function.
type flowScope struct {
	fn       string
	pos      token.Pos
	expected bool       // //deltalint:deadlock-expected
	edges    []lockEdge // lock-order graph, one witness per from->to pair
	findings []pairFinding
	tasks    []*taskInfo
	declares []declareClaim
}

type flowReport struct {
	scopes []*flowScope
}

// runLockFlow analyzes every top-level function of the package.
func runLockFlow(pass *Pass) *flowReport {
	return runLockFlowWith(newLockWalker(pass))
}

// runLockFlowWith is runLockFlow on an existing walker, letting the blocking
// pass reuse its summary build for the work walk.
func runLockFlowWith(w *lockWalker) *flowReport {
	rep := &flowReport{}
	for _, file := range w.pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil && !w.sums.isLockWrapper(fd) {
				rep.scopes = append(rep.scopes, flowScopeOf(w, fd))
			}
		}
	}
	return rep
}

// flowHeld is one held lock on a path, with its acquire site and the
// constant cycles charged so far while holding it.
type flowHeld struct {
	node lockNode
	pos  token.Pos
	cs   int64
}

// deferEntry is one deferred lock operation (a `defer Release(...)`).
type deferEntry struct {
	ops []lockOp
	pos token.Pos
}

// flowFact is the dataflow fact: the ordered held-lock set plus pending
// deferred operations.  nil facts mean "unreachable".
type flowFact struct {
	held     []flowHeld
	deferred []deferEntry
}

func (f *flowFact) clone() *flowFact {
	c := &flowFact{}
	c.held = append([]flowHeld(nil), f.held...)
	c.deferred = append([]deferEntry(nil), f.deferred...)
	return c
}

func (f *flowFact) holds(key string) int {
	for i := len(f.held) - 1; i >= 0; i-- {
		if f.held[i].node.key == key {
			return i
		}
	}
	return -1
}

func (f *flowFact) addDeferred(ops []lockOp, pos token.Pos) {
	for _, d := range f.deferred {
		if d.pos == pos {
			return
		}
	}
	f.deferred = append(f.deferred, deferEntry{ops: ops, pos: pos})
}

func equalFacts(a, b *flowFact) bool {
	if len(a.held) != len(b.held) || len(a.deferred) != len(b.deferred) {
		return false
	}
	for i := range a.held {
		if a.held[i].node.key != b.held[i].node.key ||
			a.held[i].pos != b.held[i].pos || a.held[i].cs != b.held[i].cs {
			return false
		}
	}
	for i := range a.deferred {
		if a.deferred[i].pos != b.deferred[i].pos {
			return false
		}
	}
	return true
}

func unionDeferred(a, b []deferEntry) []deferEntry {
	out := append([]deferEntry(nil), a...)
	for _, d := range b {
		present := false
		for _, e := range out {
			if e.pos == d.pos {
				present = true
				break
			}
		}
		if !present {
			out = append(out, d)
		}
	}
	return out
}

// taskReq queues a CreateTask/Spawn function literal for analysis as a
// fresh task root.
type taskReq struct {
	lit     *ast.FuncLit
	label   string // diagnostic label, e.g. "task sense"
	name    string // runtime task name when constant
	prio    int64
	hasPrio bool
	delay   int64 // constant start delay (cycles), 0 otherwise
}

// scopeFlow carries the engine state while analyzing one top-level scope.
type scopeFlow struct {
	w     *lockWalker
	scope *flowScope

	where string    // current diagnostic label
	task  *taskInfo // accumulation target for acquires/critical sections
	depth int

	active    map[*ast.FuncLit]bool
	seen      map[*ast.FuncLit]bool
	queued    map[*ast.FuncLit]bool
	taskQueue []taskReq

	cfgs    map[*ast.BlockStmt]*framework.CFG
	findSet map[string]pairFinding
	edgeSet map[string]bool
}

func newTaskInfo(name string, pos token.Pos) *taskInfo {
	return &taskInfo{name: name, pos: pos, acquires: map[string]*taskAcquire{}}
}

func flowScopeOf(w *lockWalker, fd *ast.FuncDecl) *flowScope {
	scope := &flowScope{
		fn:       fd.Name.Name,
		pos:      fd.Pos(),
		expected: hasDirective(fd.Doc, "deltalint:deadlock-expected"),
	}
	sf := &scopeFlow{
		w:       w,
		scope:   scope,
		active:  map[*ast.FuncLit]bool{},
		seen:    map[*ast.FuncLit]bool{},
		queued:  map[*ast.FuncLit]bool{},
		cfgs:    map[*ast.BlockStmt]*framework.CFG{},
		findSet: map[string]pairFinding{},
		edgeSet: map[string]bool{},
	}
	pseudo := newTaskInfo(fd.Name.Name, fd.Pos())
	pseudo.pseudo = true
	sf.analyzeRoot(fd.Body, fd.Name.Name, pseudo)
	sf.drainTasks()
	// Literals never reached by a call or task creation still describe code
	// that can run: analyze them as standalone roots.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if !sf.seen[lit] {
				sf.seen[lit] = true
				sf.analyzeRoot(lit.Body, fd.Name.Name+" (closure)", pseudo)
				sf.drainTasks()
			}
			return false
		}
		return true
	})
	if len(pseudo.acquires) > 0 {
		scope.tasks = append(scope.tasks, pseudo)
	}
	scope.findings = sf.sortedFindings()
	return scope
}

func (sf *scopeFlow) drainTasks() {
	for len(sf.taskQueue) > 0 {
		req := sf.taskQueue[0]
		sf.taskQueue = sf.taskQueue[1:]
		ti := newTaskInfo(req.name, req.lit.Pos())
		ti.prio, ti.hasPrio = req.prio, req.hasPrio
		ti.delay = req.delay
		ti.lit = req.lit
		sf.scope.tasks = append(sf.scope.tasks, ti)
		sf.analyzeRoot(req.lit.Body, req.label, ti)
	}
}

// analyzeRoot solves one body from an empty fact, reporting balance at its
// exits and accumulating lock facts into task.
func (sf *scopeFlow) analyzeRoot(body *ast.BlockStmt, where string, task *taskInfo) {
	prevW, prevT := sf.where, sf.task
	sf.where, sf.task = where, task
	p := &bodyProblem{sf: sf, body: body, boundary: &flowFact{}}
	framework.Solve(sf.cfgFor(body), p)
	sf.where, sf.task = prevW, prevT
}

// analyzeInline solves a function literal's body starting from the caller's
// fact and returns the fact at its exit (the call-site summary).  Exit
// balance is not checked here: locks may intentionally stay held or be
// released across the helper boundary.
func (sf *scopeFlow) analyzeInline(lit *ast.FuncLit, in *flowFact) *flowFact {
	p := &bodyProblem{sf: sf, body: lit.Body, inline: true, boundary: in}
	framework.Solve(sf.cfgFor(lit.Body), p)
	if p.exit == nil {
		// No path reaches the literal's end (e.g. an infinite loop): keep
		// the caller's fact.
		return in
	}
	return p.exit
}

func (sf *scopeFlow) cfgFor(body *ast.BlockStmt) *framework.CFG {
	if g, ok := sf.cfgs[body]; ok {
		return g
	}
	g := framework.BuildCFG(body)
	sf.cfgs[body] = g
	return g
}

func (sf *scopeFlow) addFinding(pos token.Pos, msg string) {
	key := strconv.Itoa(int(pos)) + "|" + msg
	if _, ok := sf.findSet[key]; !ok {
		sf.findSet[key] = pairFinding{pos: pos, msg: msg}
	}
}

func (sf *scopeFlow) sortedFindings() []pairFinding {
	var out []pairFinding
	for _, f := range sf.findSet {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos != out[j].pos {
			return out[i].pos < out[j].pos
		}
		return out[i].msg < out[j].msg
	})
	return out
}

// bodyProblem adapts one body's lock analysis to the framework solver.
type bodyProblem struct {
	sf       *scopeFlow
	body     *ast.BlockStmt
	inline   bool
	boundary *flowFact
	exit     *flowFact
}

// Boundary implements framework.FlowProblem.
func (p *bodyProblem) Boundary() any { return p.boundary.clone() }

// Equal implements framework.FlowProblem.
func (p *bodyProblem) Equal(a, b any) bool { return equalFacts(a.(*flowFact), b.(*flowFact)) }

// Transfer implements framework.FlowProblem.
func (p *bodyProblem) Transfer(b *framework.Block, in any) any {
	f := in.(*flowFact).clone()
	for _, n := range b.Nodes {
		if p.sf.w.onNode != nil {
			p.sf.w.onNode(p.sf.task, n, f)
		}
		f = p.sf.processNode(n, f)
	}
	return f
}

// Join implements framework.FlowProblem, applying kind-specific merge rules.
func (p *bodyProblem) Join(b *framework.Block, in []framework.EdgeFact) any {
	switch b.Kind {
	case framework.BlockLoopHead:
		return p.sf.joinLoopHead(in)
	case framework.BlockJoin:
		return p.sf.joinBranches(in)
	case framework.BlockExit:
		return p.joinExit(in)
	case framework.BlockPlain, framework.BlockLoopExit, framework.BlockEntry:
		return p.sf.joinSilent(edgeFacts(in))
	}
	return p.sf.joinSilent(edgeFacts(in))
}

func edgeFacts(in []framework.EdgeFact) []*flowFact {
	out := make([]*flowFact, len(in))
	for i, ef := range in {
		out[i] = ef.Fact.(*flowFact)
	}
	return out
}

// joinExit processes each path reaching the function end.  For roots, the
// deferred releases run and any lock still held is a finding; for inlined
// literals only the literal's own defers run and the merged fact becomes
// the call-site summary.
func (p *bodyProblem) joinExit(in []framework.EdgeFact) any {
	var processed []*flowFact
	for _, ef := range in {
		f := ef.Fact.(*flowFact).clone()
		if p.inline {
			p.sf.applyDeferredWithin(f, p.body)
		} else {
			p.sf.applyAllDeferred(f)
			for _, h := range f.held {
				p.sf.recordCS(h)
				p.sf.addFinding(h.pos, fmt.Sprintf(
					"%s: lock %s acquired here is not released on every path to the end of %s",
					p.sf.where, h.node.display, p.sf.where))
			}
			f.held = nil
		}
		processed = append(processed, f)
	}
	out := p.sf.joinSilent(processed)
	p.exit = out
	return out
}

// joinSilent intersects held sets (first fact's order, worst-case critical
// sections) and unions deferred ops, without reporting.
func (sf *scopeFlow) joinSilent(facts []*flowFact) *flowFact {
	first := facts[0]
	out := &flowFact{}
	for _, h := range first.held {
		onAll := true
		cs := h.cs
		for _, o := range facts[1:] {
			i := o.holds(h.node.key)
			if i < 0 {
				onAll = false
				break
			}
			if o.held[i].cs > cs {
				cs = o.held[i].cs
			}
		}
		if onAll {
			h.cs = cs
			out.held = append(out.held, h)
		}
	}
	out.deferred = first.deferred
	for _, o := range facts[1:] {
		out.deferred = unionDeferred(out.deferred, o.deferred)
	}
	return out
}

// joinBranches merges the arms of a conditional: any lock held on some arms
// but not all is a pairing finding.
func (sf *scopeFlow) joinBranches(in []framework.EdgeFact) *flowFact {
	facts := edgeFacts(in)
	first := facts[0]
	for _, h := range first.held {
		for _, o := range facts[1:] {
			if o.holds(h.node.key) < 0 {
				sf.addFinding(h.pos, fmt.Sprintf(
					"%s: lock %s is held on only some branches after the conditional",
					sf.where, h.node.display))
				break
			}
		}
	}
	for _, o := range facts[1:] {
		for _, h := range o.held {
			if first.holds(h.node.key) < 0 {
				sf.addFinding(h.pos, fmt.Sprintf(
					"%s: lock %s is held on only some branches after the conditional",
					sf.where, h.node.display))
			}
		}
	}
	return sf.joinSilent(facts)
}

// joinLoopHead keeps the loop-entry fact (a balanced loop leaves it
// unchanged) and reports any lock the back edges carry beyond it.
func (sf *scopeFlow) joinLoopHead(in []framework.EdgeFact) *flowFact {
	var entries, backs []*flowFact
	for _, ef := range in {
		if ef.Edge.Back {
			backs = append(backs, ef.Fact.(*flowFact))
		} else {
			entries = append(entries, ef.Fact.(*flowFact))
		}
	}
	if len(entries) == 0 {
		return sf.joinSilent(backs)
	}
	base := sf.joinSilent(entries)
	for _, bf := range backs {
		before := map[string]int{}
		for _, h := range base.held {
			before[h.node.key]++
		}
		after := map[string]int{}
		for _, h := range bf.held {
			after[h.node.key]++
		}
		for _, h := range bf.held {
			if after[h.node.key] > before[h.node.key] {
				sf.addFinding(h.pos, fmt.Sprintf(
					"%s: lock %s acquired in the loop body is not released by the end of the iteration",
					sf.where, h.node.display))
				after[h.node.key]--
			}
		}
		base.deferred = unionDeferred(base.deferred, bf.deferred)
	}
	return base
}

// applyDeferredWithin runs the deferred releases registered inside body
// (an inlined literal's own defers) and removes them from the fact.
func (sf *scopeFlow) applyDeferredWithin(f *flowFact, body *ast.BlockStmt) {
	var rest []deferEntry
	for _, d := range f.deferred {
		if d.pos >= body.Pos() && d.pos < body.End() {
			sf.applyDeferOps(f, d.ops)
		} else {
			rest = append(rest, d)
		}
	}
	f.deferred = rest
}

func (sf *scopeFlow) applyAllDeferred(f *flowFact) {
	for _, d := range f.deferred {
		sf.applyDeferOps(f, d.ops)
	}
	f.deferred = nil
}

func (sf *scopeFlow) applyDeferOps(f *flowFact, ops []lockOp) {
	for _, op := range ops {
		if op.acquire {
			continue
		}
		if i := f.holds(op.node.key); i >= 0 {
			sf.recordCS(f.held[i])
			f.held = append(f.held[:i], f.held[i+1:]...)
		}
	}
}

// processNode interprets one CFG node, returning the (possibly replaced)
// fact.
func (sf *scopeFlow) processNode(n ast.Node, f *flowFact) *flowFact {
	switch s := n.(type) {
	case *ast.DeferStmt:
		if ops := sf.resolveOps(s.Call); len(ops) > 0 {
			f.addDeferred(ops, s.Call.Pos())
			return f
		}
		return sf.processCalls(s, f)
	case *ast.GoStmt:
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			sf.queueLit(lit, sf.where+" (goroutine)", sf.where+" (goroutine)", 0, false, 0)
			return f
		}
		return sf.processCalls(s, f)
	}
	return sf.processCalls(n, f)
}

// processCalls finds the calls in a node (not descending into function
// literals) and processes each in source order.
func (sf *scopeFlow) processCalls(n ast.Node, f *flowFact) *flowFact {
	var calls []*ast.CallExpr
	ast.Inspect(n, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			calls = append(calls, v)
		}
		return true
	})
	for _, call := range calls {
		f = sf.processCall(call, f)
	}
	return f
}

func (sf *scopeFlow) resolveOps(call *ast.CallExpr) []lockOp {
	if ops := classifyLockOps(sf.w.pass, call); len(ops) > 0 {
		return ops
	}
	return sf.w.sums.resolveLockOps(call)
}

func (sf *scopeFlow) processCall(call *ast.CallExpr, f *flowFact) *flowFact {
	if ops := sf.resolveOps(call); len(ops) > 0 {
		for _, op := range ops {
			sf.apply(op, call, f)
		}
		return f
	}
	if cyc, ok := sf.computeCycles(call); ok {
		for i := range f.held {
			f.held[i].cs += cyc
		}
		return f
	}
	name, obj := calleeOf(sf.w.pass, call)
	if name == "DeclareClaim" && len(call.Args) >= 1 {
		sf.recordDeclare(call)
		return f
	}
	if name == "CreateTask" || name == "Spawn" {
		sf.queueTaskCall(call, name)
		return f
	}
	// Calls to locally-bound function literals are inlined with the
	// caller's fact (the telemetry helper idiom).
	if obj != nil {
		if lit := sf.w.sums.localLit(obj); lit != nil {
			return sf.inlineLit(lit, f)
		}
	}
	// A literal passed as an argument is assumed to run at the call (the
	// withFrame(c, func(){...}) idiom).
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok {
			f = sf.inlineLit(lit, f)
		}
	}
	return f
}

func (sf *scopeFlow) inlineLit(lit *ast.FuncLit, f *flowFact) *flowFact {
	if sf.active[lit] || sf.depth >= 20 {
		return f
	}
	sf.active[lit] = true
	sf.seen[lit] = true
	sf.depth++
	out := sf.analyzeInline(lit, f)
	sf.depth--
	delete(sf.active, lit)
	return out
}

// queueTaskCall schedules the function-literal arguments of a
// CreateTask/Spawn call as task roots of this scope.
func (sf *scopeFlow) queueTaskCall(call *ast.CallExpr, name string) {
	label := sf.where
	taskName := ""
	if len(call.Args) > 0 {
		if tv, ok := sf.w.pass.TypesInfo.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			taskName = constant.StringVal(tv.Value)
			label = "task " + taskName
		}
	}
	if taskName == "" {
		taskName = label
	}
	// CreateTask(name, pe, prio, delay, fn) vs Spawn(name, prio, fn).
	prioIdx := 2
	if name == "Spawn" {
		prioIdx = 1
	}
	var prio int64
	hasPrio := false
	if len(call.Args) > prioIdx {
		if v, _, ok := constIntOf(sf.w.pass, call.Args[prioIdx]); ok {
			prio, hasPrio = v, true
		}
	}
	// CreateTask(name, pe, prio, delay, fn): the constant start delay feeds
	// the blocking-bound chain term (a consumer can sit blocked until a
	// delayed producer starts).
	var delay int64
	if name == "CreateTask" && len(call.Args) > 3 {
		if v, _, ok := constIntOf(sf.w.pass, call.Args[3]); ok {
			delay = v
		}
	}
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok {
			sf.queueLit(lit, label, taskName, prio, hasPrio, delay)
		}
	}
}

func (sf *scopeFlow) queueLit(lit *ast.FuncLit, label, name string, prio int64, hasPrio bool, delay int64) {
	if sf.queued[lit] {
		return
	}
	sf.queued[lit] = true
	sf.seen[lit] = true
	sf.taskQueue = append(sf.taskQueue, taskReq{lit: lit, label: label, name: name, prio: prio, hasPrio: hasPrio, delay: delay})
}

// apply interprets one lock operation against the fact, recording a
// lock-order edge from every held lock to each lock it acquires.
func (sf *scopeFlow) apply(op lockOp, call *ast.CallExpr, f *flowFact) {
	pos := call.Pos()
	if op.batch != nil {
		// The manager picks a batch's grant order at run time, so both
		// orders between the members are assumed.
		for _, n := range op.batch {
			for _, h := range f.held {
				sf.addEdge(h.node, n, pos)
			}
		}
		for _, a := range op.batch {
			for _, b := range op.batch {
				sf.addEdge(a, b, pos)
			}
		}
		for _, n := range op.batch {
			sf.recordAcquire(n, op, pos)
			f.held = append(f.held, flowHeld{node: n, pos: pos})
		}
		return
	}
	if op.acquire {
		if f.holds(op.node.key) >= 0 {
			sf.addFinding(pos, fmt.Sprintf(
				"%s: lock %s is re-acquired while already held (self-deadlock / misuse)",
				sf.where, op.node.display))
			return
		}
		for _, h := range f.held {
			sf.addEdge(h.node, op.node, pos)
		}
		sf.recordAcquire(op.node, op, pos)
		f.held = append(f.held, flowHeld{node: op.node, pos: pos})
		return
	}
	if i := f.holds(op.node.key); i >= 0 {
		sf.recordCS(f.held[i])
		f.held = append(f.held[:i], f.held[i+1:]...)
		return
	}
	sf.addFinding(pos, fmt.Sprintf(
		"%s: lock %s is released without a matching acquire on this path",
		sf.where, op.node.display))
}

// addEdge records from->to once, keeping the first-visited acquire site as
// the witness; self-edges are dropped.
func (sf *scopeFlow) addEdge(from, to lockNode, pos token.Pos) {
	if from.key == to.key {
		return
	}
	key := from.key + "->" + to.key
	if sf.edgeSet[key] {
		return
	}
	sf.edgeSet[key] = true
	sf.scope.edges = append(sf.scope.edges, lockEdge{from: from, to: to, pos: pos})
}

// recordAcquire books one acquire into the current task's claim set.
func (sf *scopeFlow) recordAcquire(n lockNode, op lockOp, pos token.Pos) {
	if sf.task == nil {
		return
	}
	a, ok := sf.task.acquires[n.key]
	if !ok {
		a = &taskAcquire{key: n.key, display: n.display, pos: pos}
		if i := strings.IndexByte(n.key, ':'); i >= 0 {
			a.space = n.key[:i]
			if id, err := strconv.ParseInt(n.key[i+1:], 10, 64); err == nil {
				a.id = id
				a.numeric = true
			}
		}
		sf.task.acquires[n.key] = a
	}
	if op.hasProc && !a.hasProc {
		a.proc, a.hasProc = op.proc, true
	}
}

// recordCS books the critical-section length of a released lock.
func (sf *scopeFlow) recordCS(h flowHeld) {
	if sf.task == nil {
		return
	}
	if a, ok := sf.task.acquires[h.node.key]; ok && h.cs > a.maxCS {
		a.maxCS = h.cs
	}
}

// computeCycles recognizes constant-cost compute calls on a task context
// (Compute/ChargeCompute/RunOn), the cycles that extend critical sections.
func (sf *scopeFlow) computeCycles(call *ast.CallExpr) (int64, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	var argIdx int
	switch sel.Sel.Name {
	case "Compute", "ChargeCompute":
		argIdx = 0
	case "RunOn":
		argIdx = 1
	default:
		return 0, false
	}
	tv, ok := sf.w.pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return 0, false
	}
	ptr, ok := tv.Type.Underlying().(*types.Pointer)
	if !ok {
		return 0, false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || !strings.HasSuffix(named.Obj().Name(), "Ctx") {
		return 0, false
	}
	if len(call.Args) <= argIdx {
		return 0, false
	}
	v, _, ok := constIntOf(sf.w.pass, call.Args[argIdx])
	return v, ok
}

// recordDeclare books a constant-folded DeclareClaim(p, r...) call.
func (sf *scopeFlow) recordDeclare(call *ast.CallExpr) {
	if len(call.Args) < 1 {
		return
	}
	p, _, ok := constIntOf(sf.w.pass, call.Args[0])
	if !ok {
		return
	}
	var res []int64
	for _, a := range call.Args[1:] {
		v, _, ok := constIntOf(sf.w.pass, a)
		if !ok {
			return // variadic spread or computed ids: not statically known
		}
		res = append(res, v)
	}
	for _, d := range sf.scope.declares {
		if d.pos == call.Pos() {
			return
		}
	}
	sf.scope.declares = append(sf.scope.declares, declareClaim{proc: p, resources: res, pos: call.Pos()})
}
