package passes

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"deltartos/internal/analysis/framework"
)

// Blocking returns the blocking analyzer: per-scenario, per-task static
// worst-case blocking bounds derived from the interprocedural effect
// summaries, the lock-order graph and the programmed IPCP ceilings — the
// static side of the traced `block.*` counters (DESIGN.md §13).
//
// For every scenario scope (a top-level function creating tasks) the pass
// builds a task/resource dependency graph (which locks, resource-space ids
// and IPC endpoints each task can block on) and charges each task τ a bound
// on the cycles it can spend in StateBlocked over a whole run:
//
//	Total(τ) = Direct(τ) + Ceiling(τ) + Chain(τ) + Overhead(τ)
//
//	Direct   — longest critical section a lower-priority task runs under a
//	           lock τ itself acquires (the classic one-CS blocking term);
//	Ceiling  — longest lower-priority critical section under a lock whose
//	           programmed IPCP ceiling dominates τ's priority (push-through
//	           blocking: τ need not touch the lock);
//	Chain    — the transitive term: the summed remaining work and service
//	           budget of every other task of the scenario plus their start
//	           delays.  Whatever τ waits on, the wait ends through progress
//	           of other tasks, so their total budget bounds the wait; this
//	           also covers multi-hop convoys (τ waits on σ which waits on ρ);
//	Overhead — wake-up/rescheduling latency for τ's own blocking operations
//	           plus a fixed slack for non-task simulation procs (interrupt
//	           handlers, give-up daemons) that run on τ's critical path.
//
// Work is constant-folded interprocedurally: helper calls (declared
// functions, bound literals, methods) are inlined through the summary call
// graph with constant arguments substituted for parameters, and constant
// `for i := 0; i < N; i++` loops multiply their body.  The bound is marked
// infinite (Finite=false) when a task runs constant work inside a loop the
// analysis cannot bound AND that never blocks (a busy loop makes no
// progress guarantee), when a summarized call is recursive, or when the
// scenario's lock-order graph is cyclic with no supervision: neither
// Banker claim declarations nor a //deltalint:deadlock-expected annotation
// (an acknowledged cycle runs under an avoider/detector whose latency is
// folded into the overhead terms; an unannotated cycle is a plain deadlock
// and unbounded).
//
// The pass emits no diagnostics — its product is the *BlockingResult,
// reported machine-readably by `deltalint -blocking FILE` and cross-checked
// against traced per-task blocked cycles in the scenario tests.
func Blocking() *Analyzer {
	return &Analyzer{
		Name: "blocking",
		Doc: "derive static worst-case blocking-chain bounds per task\n\n" +
			"From the summarized lock graph, programmed ceilings and the\n" +
			"constant-folded per-task work budget, bound the cycles each task\n" +
			"of a scenario can spend blocked over a run (direct, ceiling\n" +
			"push-through, transitive chain and overhead terms).  No\n" +
			"diagnostics; the result feeds `deltalint -blocking` and the\n" +
			"static/dynamic cross-check against the runtime block.* counters.",
		Requires: []*Analyzer{lockFlowAnalyzer, summariesAnalyzer},
		Run:      runBlocking,
	}
}

// Cost-model constants of the blocking engine.  They over-approximate the
// sim cost model on purpose: every operation is charged the worst-case
// kernel service (entry + exit + context switch + ready-queue reshuffle +
// interrupt entry + bus traffic) and, where an operation triggers avoider/
// detector algorithm work charged to another context, that too.  The bound
// must stay above every traced run, so the constants round up hard.
const (
	// blockOpOverheadCycles is charged per statically counted operation:
	// kernel service base costs plus algorithm work the operation can
	// trigger in other contexts (software avoider ~1.8k cycles/invocation).
	blockOpOverheadCycles = 2048
	// blockRetryRounds bounds the iterations charged for a loop whose trip
	// count is not a folded constant.  Such loops re-run only in response
	// to wake events (retry/wait loops), so a small factor over the body
	// suffices; pure busy loops are flagged infinite instead.
	blockRetryRounds = 8
	// blockSlackCycles absorbs non-task simulation procs on the critical
	// path (ISRs, give-up daemons, sleep timers) per task and run.
	blockSlackCycles = 32768
)

// BlockingBound is the static worst-case blocking budget of one task.
type BlockingBound struct {
	Scenario string `json:"scenario"`
	Task     string `json:"task"`
	Prio     int64  `json:"prio"`
	HasPrio  bool   `json:"has_prio"`

	Direct   int64 `json:"direct"`   // longest lower-prio CS on a lock the task takes
	Ceiling  int64 `json:"ceiling"`  // push-through via programmed IPCP ceilings
	Chain    int64 `json:"chain"`    // other tasks' work+service budget and start delays
	Overhead int64 `json:"overhead"` // own wake-up latencies plus fixed slack
	Total    int64 `json:"total"`    // sum of the four terms; the cross-checked bound

	Finite  bool     `json:"finite"`
	Reasons []string `json:"reasons,omitempty"` // why the bound is infinite

	// Waits lists the lock keys / resource ids / IPC endpoints the task can
	// block on; DependsOn lists the tasks sharing any of them (the task's
	// component in the scenario's dependency graph).
	Waits     []string `json:"waits,omitempty"`
	DependsOn []string `json:"depends_on,omitempty"`
}

// BlockingResult is the blocking analyzer's product for one package.
type BlockingResult struct {
	Bounds []BlockingBound `json:"bounds"`
}

// taskWork accumulates the constant-folded execution budget of a task body.
type taskWork struct {
	work     int64    // constant compute/device/sleep cycles
	ops      int64    // counted operations (calls), loop-weighted
	blockOps int64    // operations that park the task
	waits    []string // dependency-graph edges (dedup at use)
	reasons  []string // unbounded-work witnesses
}

func (tw *taskWork) absorb(sub *taskWork, mult int64) {
	tw.work += sub.work * mult
	tw.ops += sub.ops * mult
	tw.blockOps += sub.blockOps * mult
	tw.waits = append(tw.waits, sub.waits...)
	tw.reasons = append(tw.reasons, sub.reasons...)
}

// workWalker constant-folds task-body work through the summary call graph.
type workWalker struct {
	pass *Pass
	sums *summaries
}

func runBlocking(pass *Pass) (any, error) {
	flow := pass.ResultOf[lockFlowAnalyzer].(*flowReport)
	sets, _ := scanCeilings(pass)
	ceil, programmed := foldCeilings(sets)
	lockIDs, byLock := indexLongAcquires(flow)

	ww := &workWalker{pass: pass, sums: pass.ResultOf[summariesAnalyzer].(*summaries)}
	res := &BlockingResult{}
	for _, scope := range flow.scopes {
		var tasks []*taskInfo
		for _, t := range scope.tasks {
			if !t.pseudo {
				tasks = append(tasks, t)
			}
		}
		if len(tasks) == 0 {
			continue
		}

		works := map[*taskInfo]*taskWork{}
		var scenarioReasons []string
		for _, t := range tasks {
			tw := &taskWork{}
			if t.lit != nil {
				ww.walk(t.lit.Body, 1, nil, map[types.Object]bool{}, 0, tw)
			}
			works[t] = tw
			for _, r := range tw.reasons {
				scenarioReasons = append(scenarioReasons, fmt.Sprintf("task %s: %s", t.name, r))
			}
		}
		if len(scope.declares) == 0 && !scope.expected && len(findCycles(scope)) > 0 {
			scenarioReasons = append(scenarioReasons, fmt.Sprintf(
				"scenario %s: unsupervised cyclic lock-order graph (no Banker claims, no deadlock-expected annotation)", scope.fn))
		}

		comps := dependencyComponents(tasks, works)
		for _, t := range tasks {
			b := BlockingBound{
				Scenario: scope.fn,
				Task:     t.name,
				Prio:     t.prio,
				HasPrio:  t.hasPrio,
				Finite:   len(scenarioReasons) == 0,
			}
			b.Reasons = append(b.Reasons, scenarioReasons...)

			// Direct: longest lower-priority CS under a lock τ acquires.
			for key := range t.acquires {
				for _, o := range tasks {
					if o == t || !lowerPrio(o, t) {
						continue
					}
					if oa, ok := o.acquires[key]; ok && oa.maxCS > b.Direct {
						b.Direct = oa.maxCS
					}
				}
			}

			// Ceiling: IPCP push-through from programmed ceilings.
			b.Ceiling = ipcpBlocking(scope, t, lockIDs, byLock, ceil, programmed)

			// Chain: every other task's whole budget plus start delays.
			for _, o := range tasks {
				if o == t {
					continue
				}
				ow := works[o]
				b.Chain += ow.work + blockOpOverheadCycles*ow.ops + o.delay
			}

			// Overhead: τ's own wake-up latencies plus fixed slack.
			b.Overhead = blockOpOverheadCycles*works[t].blockOps + blockSlackCycles

			b.Total = b.Direct + b.Ceiling + b.Chain + b.Overhead
			b.Waits = dedupSorted(works[t].waits)
			b.DependsOn = comps[t]
			res.Bounds = append(res.Bounds, b)
		}
	}
	sort.Slice(res.Bounds, func(i, j int) bool {
		if res.Bounds[i].Scenario != res.Bounds[j].Scenario {
			return res.Bounds[i].Scenario < res.Bounds[j].Scenario
		}
		return res.Bounds[i].Task < res.Bounds[j].Task
	})
	return res, nil
}

// lowerPrio reports whether o runs at lower priority than t (numerically
// larger); tasks with unknown priority are treated as potential blockers.
func lowerPrio(o, t *taskInfo) bool {
	if !o.hasPrio || !t.hasPrio {
		return true
	}
	return o.prio > t.prio
}

// lockAcq is one task's acquire of a long lock within a scope.
type lockAcq struct {
	scope *flowScope
	task  *taskInfo
	acq   *taskAcquire
}

// indexLongAcquires indexes the report's numeric long-lock acquires by id.
func indexLongAcquires(rep *flowReport) ([]int64, map[int64][]lockAcq) {
	byLock := map[int64][]lockAcq{}
	for _, scope := range rep.scopes {
		for _, t := range scope.tasks {
			for _, a := range sortedAcquires(t) {
				if a.space == "long" && a.numeric {
					byLock[a.id] = append(byLock[a.id], lockAcq{scope: scope, task: t, acq: a})
				}
			}
		}
	}
	var ids []int64
	for id := range byLock {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, byLock
}

// ipcpBlocking computes the classic one-critical-section IPCP blocking term
// for task t: the longest CS a lower-priority task of the same scope runs
// under a lock whose programmed ceiling can block t (0 when none can).
func ipcpBlocking(scope *flowScope, t *taskInfo, lockIDs []int64, byLock map[int64][]lockAcq, ceil map[int64]int64, programmed map[int64]bool) int64 {
	var bound int64
	for _, id := range lockIDs {
		if !programmed[id] || ceil[id] > t.prio {
			continue // this lock's ceiling cannot block the task
		}
		for _, a := range byLock[id] {
			if a.scope != scope || !a.task.hasPrio || a.task.prio <= t.prio {
				continue
			}
			if a.acq.maxCS > bound {
				bound = a.acq.maxCS
			}
		}
	}
	return bound
}

// dependencyComponents unions tasks sharing a wait edge (lock key, resource
// id or IPC endpoint) and returns, per task, the sorted names of the other
// tasks of its component.
func dependencyComponents(tasks []*taskInfo, works map[*taskInfo]*taskWork) map[*taskInfo][]string {
	parent := map[*taskInfo]*taskInfo{}
	var find func(t *taskInfo) *taskInfo
	find = func(t *taskInfo) *taskInfo {
		if parent[t] == t {
			return t
		}
		parent[t] = find(parent[t])
		return parent[t]
	}
	for _, t := range tasks {
		parent[t] = t
	}
	owner := map[string]*taskInfo{}
	link := func(a, b *taskInfo) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, t := range tasks {
		keys := map[string]bool{}
		for k := range t.acquires {
			keys[k] = true
		}
		for _, wkey := range works[t].waits {
			keys[wkey] = true
		}
		for k := range keys {
			if o, ok := owner[k]; ok {
				link(t, o)
			} else {
				owner[k] = t
			}
		}
	}
	members := map[*taskInfo][]*taskInfo{}
	for _, t := range tasks {
		r := find(t)
		members[r] = append(members[r], t)
	}
	out := map[*taskInfo][]string{}
	for _, t := range tasks {
		var names []string
		for _, m := range members[find(t)] {
			if m != t {
				names = append(names, m.name)
			}
		}
		sort.Strings(names)
		out[t] = names
	}
	return out
}

func dedupSorted(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// walk folds the work of one body into tw at the given multiplier.  env
// maps callee parameters to constant arguments from the inlining call
// sites; active guards against recursive inlining.
func (ww *workWalker) walk(body ast.Node, mult int64, env map[types.Object]int64, active map[types.Object]bool, depth int, tw *taskWork) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			// Bodies run where they are invoked; the call handler inlines
			// literal arguments and CreateTask/Spawn bodies are separate
			// tasks.
			return false
		case *ast.ForStmt:
			ww.walkLoop(v.Body, ww.loopTrips(v, env), v.For, mult, env, active, depth, tw)
			return false
		case *ast.RangeStmt:
			ww.walkLoop(v.Body, loopTripCount{}, v.For, mult, env, active, depth, tw)
			return false
		case *ast.CallExpr:
			ww.call(v, mult, env, active, depth, tw)
			return true
		}
		return true
	})
}

type loopTripCount struct {
	trips int64
	known bool
}

// walkLoop folds one loop body: constant trip counts multiply exactly;
// unknown ones are charged blockRetryRounds rounds (retry/wait loops only
// re-run in response to wake events), and flagged infinite when the body
// runs constant work, never blocks and has no exit — a busy spin has no
// progress guarantee to bound it against.
func (ww *workWalker) walkLoop(body *ast.BlockStmt, tc loopTripCount, pos token.Pos, mult int64, env map[types.Object]int64, active map[types.Object]bool, depth int, tw *taskWork) {
	sub := &taskWork{}
	ww.walk(body, 1, env, active, depth, sub)
	eff := tc.trips
	if !tc.known {
		eff = blockRetryRounds
		if sub.work > 0 && sub.blockOps == 0 && !loopCanExit(body) {
			sub.reasons = append(sub.reasons, fmt.Sprintf(
				"unbounded non-blocking loop with %d cycles of work per iteration at %v",
				sub.work, ww.pass.Fset.Position(pos)))
		}
	}
	tw.absorb(sub, mult*eff)
}

// loopCanExit reports whether a loop body contains a break or return (an
// escape the retry-round model can lean on).
func loopCanExit(body *ast.BlockStmt) bool {
	can := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			can = true
		case *ast.BranchStmt:
			if v.Tok == token.BREAK || v.Tok == token.GOTO {
				can = true
			}
		}
		return !can
	})
	return can
}

// loopTrips folds `for i := A; i < B; i++` (and <=) trip counts.
func (ww *workWalker) loopTrips(v *ast.ForStmt, env map[types.Object]int64) loopTripCount {
	init, ok := v.Init.(*ast.AssignStmt)
	if !ok || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return loopTripCount{}
	}
	iv, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return loopTripCount{}
	}
	start, ok := ww.constVal(init.Rhs[0], env)
	if !ok {
		return loopTripCount{}
	}
	cond, ok := v.Cond.(*ast.BinaryExpr)
	if !ok || (cond.Op != token.LSS && cond.Op != token.LEQ) {
		return loopTripCount{}
	}
	cv, ok := ast.Unparen(cond.X).(*ast.Ident)
	if !ok || ww.pass.TypesInfo.Uses[cv] != ww.pass.TypesInfo.Defs[iv] {
		return loopTripCount{}
	}
	limit, ok := ww.constVal(cond.Y, env)
	if !ok {
		return loopTripCount{}
	}
	post, ok := v.Post.(*ast.IncDecStmt)
	if !ok || post.Tok != token.INC {
		return loopTripCount{}
	}
	trips := limit - start
	if cond.Op == token.LEQ {
		trips++
	}
	if trips < 0 {
		trips = 0
	}
	return loopTripCount{trips: trips, known: true}
}

// constVal resolves e to a constant: folded by the type checker, or a
// parameter bound to a constant argument at the inlining call site.
func (ww *workWalker) constVal(e ast.Expr, env map[types.Object]int64) (int64, bool) {
	if v, _, ok := constIntOf(ww.pass, e); ok {
		return v, true
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := ww.pass.TypesInfo.Uses[id]; obj != nil {
			if v, ok := env[obj]; ok {
				return v, true
			}
		}
	}
	return 0, false
}

// blockingMethods are context/endpoint methods that park the calling task.
var blockingMethods = map[string]bool{
	"Park": true, "Recv": true, "Send": true, "Wait": true,
	"RecvRetry": true, "SendRetry": true, "WaitRetry": true,
	"RecvTimeout": true, "SendTimeout": true, "WaitTimeout": true,
	"Sleep": true, "SleepUntil": true, "Arrive": true,
	"WaitRegranted": true, "RunOn": true,
}

// call folds one call expression: constant compute/sleep cycles, operation
// counts, blocking edges, and interprocedural inlining through the summary
// call graph with constant-parameter substitution.
func (ww *workWalker) call(call *ast.CallExpr, mult int64, env map[types.Object]int64, active map[types.Object]bool, depth int, tw *taskWork) {
	pass := ww.pass
	tw.ops += mult

	if cyc, ok := ww.constCycles(call, env); ok {
		tw.work += cyc * mult
	}

	name, obj := calleeOf(pass, call)

	// Lock-surface operations: dependency edges plus park accounting.
	if lops := classifyLockOps(pass, call); len(lops) > 0 {
		for _, op := range lops {
			if op.batch != nil {
				for _, bn := range op.batch {
					tw.waits = append(tw.waits, bn.key)
				}
				tw.blockOps += mult
				continue
			}
			if op.acquire {
				tw.waits = append(tw.waits, op.node.key)
				tw.blockOps += mult
			}
		}
	}

	// Blocking kernel/endpoint methods: park accounting plus IPC endpoint
	// dependency edges.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && blockingMethods[sel.Sel.Name] {
		tw.blockOps += mult
		switch sel.Sel.Name {
		case "Recv", "Send", "Wait", "RecvRetry", "SendRetry", "WaitRetry",
			"RecvTimeout", "SendTimeout", "WaitTimeout":
			if ep := exprKeyName(sel.X); ep != "" {
				tw.waits = append(tw.waits, "ep:"+ep)
			}
		}
	}

	if name == "CreateTask" || name == "Spawn" {
		return // literal arguments are separate task roots
	}

	// Inline the callee body (declared function, method or bound literal)
	// through the call graph, binding constant arguments to parameters.
	if obj != nil && depth < 20 {
		if node := ww.sums.graph.Resolve(obj); node != nil && node.Body() != nil {
			if active[node.Obj] {
				tw.reasons = append(tw.reasons, fmt.Sprintf(
					"recursive call to %s at %v", name, pass.Fset.Position(call.Pos())))
			} else {
				childEnv := ww.bindConstParams(node, call, env)
				active[node.Obj] = true
				ww.walk(node.Body(), mult, childEnv, active, depth+1, tw)
				delete(active, node.Obj)
			}
		}
	}

	// Literal arguments run at the call site (the withFrame idiom).
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok && depth < 20 {
			ww.walk(lit.Body, mult, env, active, depth+1, tw)
		}
	}
}

// constCycles recognizes constant-cost calls that consume simulated time on
// the task's critical path: Compute/ChargeCompute(n), RunOn(dev, n) device
// jobs, and Sleep/SleepUntil/Delay(n) timer waits.
func (ww *workWalker) constCycles(call *ast.CallExpr, env map[types.Object]int64) (int64, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	var argIdx int
	switch sel.Sel.Name {
	case "Compute", "ChargeCompute", "Sleep", "SleepUntil", "Delay":
		argIdx = 0
	case "RunOn":
		argIdx = 1
	default:
		return 0, false
	}
	if len(call.Args) <= argIdx {
		return 0, false
	}
	return ww.constVal(call.Args[argIdx], env)
}

// bindConstParams maps the callee's parameters to constant argument values.
func (ww *workWalker) bindConstParams(node *framework.CGNode, call *ast.CallExpr, env map[types.Object]int64) map[types.Object]int64 {
	var params *ast.FieldList
	if node.Decl != nil {
		params = node.Decl.Type.Params
	} else if node.Lit != nil {
		params = node.Lit.Type.Params
	}
	if params == nil {
		return nil
	}
	var child map[types.Object]int64
	idx := 0
	for _, field := range params.List {
		for _, pname := range field.Names {
			if idx < len(call.Args) {
				if v, ok := ww.constVal(call.Args[idx], env); ok {
					if pobj := ww.pass.TypesInfo.Defs[pname]; pobj != nil {
						if child == nil {
							child = map[types.Object]int64{}
						}
						child[pobj] = v
					}
				}
			}
			idx++
		}
	}
	return child
}

// exprKeyName renders a receiver expression as a stable dependency-graph
// key ("ring.q0", "w.done").
func exprKeyName(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base := exprKeyName(x.X); base != "" {
			return base + "." + x.Sel.Name
		}
		return x.Sel.Name
	}
	return ""
}
