package passes

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"deltartos/internal/analysis/framework"
)

// The ipc pass: MPI-style send/recv matching over the message-passing
// endpoints (rtos.Queue, rtos.EventFlags) of each scenario's tasks.  Its
// model is the classic buffered-send analysis:
//
//   - a blocking Recv/Wait always needs a counterparty, so it is a wait-edge
//     source: task -> every other task that sends on (sets) the endpoint;
//   - a Send to a capacity-0 queue is a rendezvous and needs a counterparty
//     too: task -> every other task that receives on the queue;
//   - a Send to a buffered queue (capacity>0, the mailbox included) is
//     assumed eventually drained and is NOT an edge source — otherwise every
//     matched producer/consumer pipeline in the tree would be flagged;
//   - the bounded variants (RecvTimeout/SendTimeout/WaitTimeout, the *Retry
//     family, TryRecv) never block forever and are never edge sources, but
//     they DO satisfy the counterparty side.
//
// Findings, per scenario scope (top-level function creating the tasks):
//
//   - cycle: the wait edges between tasks form a cycle (a send/recv ring
//     that message loss can wedge);
//   - unmatched: a blocking op whose endpoint has no counterparty among the
//     scenario's other tasks (starvation by construction);
//   - cascade: a task whose blocking op waits only on already-flagged tasks
//     (a monitor behind a wedgeable ring is just as wedged).
//
// The flagged-task set (cycle members + unmatched + cascade closure) is the
// static over-approximation the runtime cross-check asserts against: on the
// ring chaos scenario, every task the kernel's IPCDeadlockCore latches must
// be statically flagged.  Intentionally fragile scenarios are annotated
// //deltalint:ipc-expected (the report keeps their findings, like
// deadlock-expected does for lockorder).

// IPCFinding is one ipc-pass finding.
type IPCFinding struct {
	Scope    string
	Kind     string // "cycle" | "unmatched" | "cascade"
	Tasks    []string
	Endpoint string
	Detail   string
	Pos      token.Pos
}

// IPCScopeReport is the pass product for one scenario scope.
type IPCScopeReport struct {
	Scope    string
	Expected bool // //deltalint:ipc-expected
	// Flagged lists the statically-suspect tasks in creation order — the
	// set the runtime IPC deadlock core must be contained in.
	Flagged  []string
	Findings []IPCFinding
}

// IPCResult is the ipc pass result, consumed by the cross-check tests.
type IPCResult struct {
	Scopes []IPCScopeReport
}

// IPC returns the ipc analyzer.
func IPC() *Analyzer {
	return &Analyzer{
		Name: "ipc",
		Doc: "match blocking IPC operations across each scenario's tasks\n\n" +
			"A blocking recv (or event wait, or capacity-0 rendezvous send)\n" +
			"needs a live counterparty.  The pass reports send/recv cycles\n" +
			"between tasks, blocking ops with no counterparty at all, and\n" +
			"tasks waiting only on already-flagged tasks.  Intentionally\n" +
			"fragile scenarios are annotated //deltalint:ipc-expected.",
		Requires: []*Analyzer{lockFlowAnalyzer, summariesAnalyzer},
		Run:      runIPC,
	}
}

// ipcEndpointTypes names the rtos endpoint types the pass recognizes.
var ipcEndpointTypes = map[string]bool{"Queue": true, "EventFlags": true}

// ipcOps is one task's operation summary for one endpoint.
type ipcOps struct {
	blockRecv bool // unbounded Recv
	blockSend bool // unbounded Send on a capacity-0 (rendezvous) queue
	blockWait bool // unbounded event Wait
	anySend   bool // any send variant (satisfies a receiver)
	anyRecv   bool // any recv variant (satisfies a rendezvous sender)
	anySet    bool // any Set (satisfies an event waiter)
	pos       token.Pos
}

type ipcTask struct {
	label string
	ops   map[string]*ipcOps
	order []string // endpoint first-use order
}

func (t *ipcTask) at(ep string, pos token.Pos) *ipcOps {
	o, ok := t.ops[ep]
	if !ok {
		o = &ipcOps{pos: pos}
		t.ops[ep] = o
		t.order = append(t.order, ep)
	}
	return o
}

type ipcScope struct {
	fn       string
	expected bool
	tasks    []*ipcTask
}

type ipcWalker struct {
	pass      *Pass
	sums      *summaries
	queueCaps map[types.Object]int64 // endpoint object -> NewQueue constant capacity
	epNames   map[types.Object]string
}

func runIPC(pass *Pass) (any, error) {
	w := &ipcWalker{
		pass:      pass,
		sums:      pass.ResultOf[summariesAnalyzer].(*summaries),
		queueCaps: map[types.Object]int64{},
		epNames:   map[types.Object]string{},
	}
	w.collectBindings()
	res := &IPCResult{}
	for _, fs := range pass.ResultOf[lockFlowAnalyzer].(*flowReport).scopes {
		// The scenario's tasks are lockflow's created tasks and spawned
		// procs; the pseudo-task (lit == nil) is the scope's own code.
		scope := &ipcScope{fn: fs.fn, expected: hasDirective(fs.decl.Doc, "deltalint:ipc-expected")}
		touched := false
		for _, t := range fs.tasks {
			if t.lit == nil {
				continue
			}
			task := &ipcTask{label: t.name, ops: map[string]*ipcOps{}}
			w.collectOps(task, t.lit.Body, nil, map[*ast.FuncLit]bool{t.lit: true}, 0)
			scope.tasks = append(scope.tasks, task)
			touched = touched || len(task.ops) > 0
		}
		if !touched {
			continue
		}
		rep := analyzeIPCScope(scope)
		if len(rep.Findings) == 0 {
			continue
		}
		res.Scopes = append(res.Scopes, rep)
		if scope.expected {
			continue
		}
		for _, f := range rep.Findings {
			pass.Reportf(f.Pos, "%s (annotate the scenario //deltalint:ipc-expected if intentional)", f.Detail)
		}
	}
	sort.Slice(res.Scopes, func(i, j int) bool { return res.Scopes[i].Scope < res.Scopes[j].Scope })
	return res, nil
}

// collectBindings indexes NewQueue capacities and endpoint creation names.
// Helper function literals come from the shared summary engine's call graph.
func (w *ipcWalker) collectBindings() {
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := w.pass.TypesInfo.Defs[id]
		if obj == nil {
			return
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			return
		}
		name, _ := calleeOf(w.pass, call)
		if len(call.Args) >= 1 {
			if tv, ok := w.pass.TypesInfo.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
				switch name {
				case "NewQueue", "NewEventFlags":
					w.epNames[obj] = constant.StringVal(tv.Value)
				}
			}
		}
		if name == "NewQueue" && len(call.Args) == 2 {
			if tv, ok := w.pass.TypesInfo.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
				if v, ok := constant.Int64Val(tv.Value); ok {
					w.queueCaps[obj] = v
				}
			}
		}
	}
	for _, file := range w.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range st.Rhs {
					if i < len(st.Lhs) {
						record(st.Lhs[i], rhs)
					}
				}
			case *ast.ValueSpec:
				for i, rhs := range st.Values {
					if i < len(st.Names) {
						record(st.Names[i], rhs)
					}
				}
			}
			return true
		})
	}
}

// collectOps records every IPC operation reachable from body, inlining
// locally-bound helper literals (the `stage := func(...){...}` idiom).
// env substitutes endpoint-typed helper parameters with the endpoint objects
// bound at the inlined call site, so a shared helper contributes each
// caller's actual endpoints rather than its own parameter identities.
func (w *ipcWalker) collectOps(task *ipcTask, body ast.Node, env map[types.Object]types.Object, active map[*ast.FuncLit]bool, depth int) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if w.classifyIPC(task, call, env) {
			return true
		}
		if _, obj := calleeOf(w.pass, call); obj != nil && depth < 20 {
			if lit := w.sums.localLit(obj); lit != nil && !active[lit] {
				active[lit] = true
				w.collectOps(task, lit.Body, w.bindParams(lit, call, env), active, depth+1)
				delete(active, lit)
			}
		}
		return true
	})
}

// bindParams maps a helper literal's endpoint-typed parameters to the
// endpoint objects passed at this call site (resolved through the caller's
// own environment when the caller forwarded its parameters).
func (w *ipcWalker) bindParams(lit *ast.FuncLit, call *ast.CallExpr, env map[types.Object]types.Object) map[types.Object]types.Object {
	child := map[types.Object]types.Object{}
	for k, v := range env {
		child[k] = v
	}
	idx := 0
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if idx < len(call.Args) {
				if obj, _ := w.endpointObject(call.Args[idx]); obj != nil {
					if p := w.pass.TypesInfo.Defs[name]; p != nil {
						child[p] = ipcResolve(env, obj)
					}
				}
			}
			idx++
		}
	}
	return child
}

// ipcResolve follows env substitutions to the concrete endpoint object.
func ipcResolve(env map[types.Object]types.Object, obj types.Object) types.Object {
	for i := 0; i < 20; i++ {
		sub, ok := env[obj]
		if !ok {
			return obj
		}
		obj = sub
	}
	return obj
}

// classifyIPC records call into task's summary if it is an IPC endpoint
// operation; reports whether it was one.
func (w *ipcWalker) classifyIPC(task *ipcTask, call *ast.CallExpr, env map[types.Object]types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, tname := w.endpointObject(sel.X)
	if obj == nil {
		return false
	}
	obj = ipcResolve(env, obj)
	ep := w.endpointKey(obj)
	method := sel.Sel.Name
	pos := call.Pos()
	switch method {
	case "Recv":
		o := task.at(ep, pos)
		o.blockRecv, o.anyRecv, o.pos = true, true, pos
	case "RecvTimeout", "RecvRetry", "TryRecv":
		task.at(ep, pos).anyRecv = true
	case "Send":
		o := task.at(ep, pos)
		o.anySend = true
		if tname == "Queue" {
			if cap, ok := w.queueCaps[obj]; ok && cap == 0 {
				o.blockSend = true
				o.pos = pos
			}
		}
	case "SendTimeout", "SendRetry":
		task.at(ep, pos).anySend = true
	case "Wait":
		if tname != "EventFlags" {
			return false
		}
		o := task.at(ep, pos)
		o.blockWait, o.pos = true, pos
	case "WaitTimeout", "WaitRetry":
		if tname != "EventFlags" {
			return false
		}
		task.at(ep, pos) // participation only; bounded waits need no peer
	case "Set":
		if tname != "EventFlags" {
			return false
		}
		task.at(ep, pos).anySet = true
	default:
		return false
	}
	return true
}

// endpointObject resolves a receiver expression to the object holding an
// rtos IPC endpoint and the endpoint's type name ("Queue", ...).
func (w *ipcWalker) endpointObject(recv ast.Expr) (types.Object, string) {
	var obj types.Object
	switch x := recv.(type) {
	case *ast.Ident:
		obj = w.pass.TypesInfo.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := w.pass.TypesInfo.Selections[x]; ok {
			obj = sel.Obj()
		} else {
			obj = w.pass.TypesInfo.Uses[x.Sel]
		}
	}
	if obj == nil || obj.Type() == nil {
		return nil, ""
	}
	ptr, ok := obj.Type().Underlying().(*types.Pointer)
	if !ok {
		return nil, ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || !ipcEndpointTypes[named.Obj().Name()] {
		return nil, ""
	}
	return obj, named.Obj().Name()
}

// endpointKey is the stable display identity of an endpoint object: its
// creation-time name when known, else the variable name.
func (w *ipcWalker) endpointKey(obj types.Object) string {
	if name, ok := w.epNames[obj]; ok {
		return name
	}
	return obj.Name()
}

// analyzeIPCScope builds the wait-edge graph of one scope and derives its
// findings and flagged-task set.
func analyzeIPCScope(scope *ipcScope) IPCScopeReport {
	rep := IPCScopeReport{Scope: scope.fn, Expected: scope.expected}
	n := len(scope.tasks)
	adj := make([][]int, n) // wait edges task -> counterparties
	flagged := make([]bool, n)

	type blockSite struct {
		task  int
		ep    string
		what  string
		peers []int
		pos   token.Pos
	}
	var sites []blockSite

	peersWith := func(self int, ep string, have func(*ipcOps) bool) (peers []int, selfSatisfies bool) {
		for j, other := range scope.tasks {
			o, ok := other.ops[ep]
			if !ok || !have(o) {
				continue
			}
			if j == self {
				selfSatisfies = true
				continue
			}
			peers = append(peers, j)
		}
		return peers, selfSatisfies
	}

	for i, t := range scope.tasks {
		for _, ep := range t.order {
			o := t.ops[ep]
			type need struct {
				on   bool
				what string
				have func(*ipcOps) bool
			}
			for _, nd := range []need{
				{o.blockRecv, "blocking recv", func(p *ipcOps) bool { return p.anySend }},
				{o.blockSend, "rendezvous send", func(p *ipcOps) bool { return p.anyRecv }},
				{o.blockWait, "blocking event wait", func(p *ipcOps) bool { return p.anySet }},
			} {
				if !nd.on {
					continue
				}
				peers, selfOK := peersWith(i, ep, nd.have)
				adj[i] = append(adj[i], peers...)
				sites = append(sites, blockSite{task: i, ep: ep, what: nd.what, peers: peers, pos: o.pos})
				if len(peers) == 0 && !selfOK {
					flagged[i] = true
					rep.Findings = append(rep.Findings, IPCFinding{
						Scope: scope.fn, Kind: "unmatched",
						Tasks: []string{t.label}, Endpoint: ep, Pos: o.pos,
						Detail: fmt.Sprintf("task %s: %s on %s has no counterparty among the tasks of %s",
							t.label, nd.what, ep, scope.fn),
					})
				}
			}
		}
	}

	// Elementary cycles over the wait edges, each once, starting at its
	// smallest task.
	for cycle := range framework.NewDigraph(adj).Cycles() {
		var labels []string
		for _, i := range cycle {
			flagged[i] = true
			labels = append(labels, scope.tasks[i].label)
		}
		witness := token.NoPos
		for _, s := range sites {
			if s.task == cycle[0] {
				witness = s.pos
				break
			}
		}
		rep.Findings = append(rep.Findings, IPCFinding{
			Scope: scope.fn, Kind: "cycle", Tasks: labels, Pos: witness,
			Detail: fmt.Sprintf("potential IPC deadlock: tasks of %s form a blocking send/recv cycle: %s -> %s",
				scope.fn, strings.Join(labels, " -> "), labels[0]),
		})
	}

	// Cascade closure: a task whose blocking op waits only on flagged tasks
	// is flagged too (least fixpoint).
	for changed := true; changed; {
		changed = false
		for _, s := range sites {
			if flagged[s.task] || len(s.peers) == 0 {
				continue
			}
			all := true
			for _, p := range s.peers {
				if !flagged[p] {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			flagged[s.task] = true
			changed = true
			var labels []string
			for _, p := range s.peers {
				labels = append(labels, scope.tasks[p].label)
			}
			rep.Findings = append(rep.Findings, IPCFinding{
				Scope: scope.fn, Kind: "cascade",
				Tasks: []string{scope.tasks[s.task].label}, Endpoint: s.ep, Pos: s.pos,
				Detail: fmt.Sprintf("task %s: %s on %s waits only on already-flagged tasks (%s)",
					scope.tasks[s.task].label, s.what, s.ep, strings.Join(labels, ", ")),
			})
		}
	}

	for i, t := range scope.tasks {
		if flagged[i] {
			rep.Flagged = append(rep.Flagged, t.label)
		}
	}
	return rep
}
