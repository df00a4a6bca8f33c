package main

import (
	"fmt"
	"runtime"
	"time"

	"deltartos/internal/daa"
	"deltartos/internal/dau"
	"deltartos/internal/ddu"
	"deltartos/internal/det"
	"deltartos/internal/fuzz"
	"deltartos/internal/pdda"
	"deltartos/internal/rag"
)

// churnSizes sets the system size, as a number of tiles, and how many
// calls each front end makes per iteration: detection verdicts for the two
// detection front ends, requests for the two avoidance front ends.
var churnSizes = map[string]struct{ tiles, verdicts, requests int }{
	"full": {64, 256, 512},
	"tiny": {4, 24, 64},
}

// The system is a row of tiles, each one scenario of the fuzz generator's
// default point (fuzz.DefaultGenConfig: 12 tasks over 16 resources) on
// its own tasks and resources; 64 tiles make a 768-process by
// 1024-resource RAG.  A single scenario scaled to 1024 tasks and resources
// was tried: its tasks block mostly on their first acquire, holding
// nothing, and no cycle formed in 1024 verdicts on any of 12 seeds, so
// neither the victim path nor avoidance beyond Pending would run.  A tile
// deadlocks as often as a seed of the default sweep point does.

// churnProgs generates the tiles for a seed and joins them into one task
// list: tile k's task t is task 12k+t and its resource r is resource 16k+r.
func churnProgs(seed uint64, tiles int) (progs []fuzz.TaskProg, procs, resources int, err error) {
	gen := fuzz.DefaultGenConfig()
	for k := 0; k < tiles; k++ {
		sc, err := fuzz.Generate(seed<<16|uint64(k), gen)
		if err != nil {
			return nil, 0, 0, err
		}
		for _, p := range sc.Progs {
			ops := make([]fuzz.Op, len(p.Ops))
			for i, op := range p.Ops {
				ops[i] = fuzz.Op{Acquire: op.Acquire, Res: op.Res + k*gen.Resources}
			}
			p.Ops = ops
			progs = append(progs, p)
		}
	}
	return progs, tiles * gen.Tasks, tiles * gen.Resources, nil
}

// detectChurn is the detect_churn workload: the task programs of 64
// generated fuzz scenarios, interleaved by a seeded scheduler on one
// 768x1024 RAG and driven through software detection (rag.Graph +
// pdda.DetectGraphInto), hardware detection (ddu.Unit cell writes +
// Detect), software avoidance (daa.Avoider) and hardware avoidance
// (dau.Unit).  An iteration replays the same programs through four fresh
// front ends, each stopped after a fixed number of calls, so every
// iteration does the same work however long the run is; a verdict or
// avoidance decision is an operation.
type detectChurn struct {
	cfg      config
	tiles    int
	verdicts int // detection calls per detection front end
	requests int // requests per avoidance front end
	n, m     int // processes, resources
	progs    []fuzz.TaskProg
	expect   churnOut // the oracle's verdicts (see expected)

	sw   *detectFE // software detection
	hw   *detectFE // hardware detection
	savd *avoidFE  // software avoidance
	havd *avoidFE  // hardware avoidance

	out map[int]churnOut

	lat        map[string][]float64 // µs per call, traced iterations
	mutNs      []float64            // rag mutation ns, traced iterations
	mutCount   int                  // rag mutations of one iteration
	verdictLat []float64            // pooled call latencies, µs, untraced iterations
	dead       int
	detects    int
	scans      int
	releases   int
}

type churnOut struct {
	swVerdicts, hwVerdicts []bool
	sDecisions, hDecisions []int64
	errs                   []error

	// Filled by audit, outside the timed iteration.
	oracle        []bool // rag.Graph.HasCycle verdicts of the same programs
	cells         []int  // oracle verdicts re-checked by the per-cell engine
	cellVerdicts  []bool // its verdicts there
	matricesEqual bool
	avoidersClean bool
}

func newDetectChurn(cfg config) workload {
	sz := churnSizes[cfg.size]
	return &detectChurn{
		cfg: cfg, tiles: sz.tiles, verdicts: sz.verdicts, requests: sz.requests,
		out: map[int]churnOut{}, lat: map[string][]float64{},
	}
}

func (c *detectChurn) prepare() error { return nil }

// setup generates the task programs from the seed, works out the verdicts
// every iteration must reproduce, and builds the front ends.
func (c *detectChurn) setup() error {
	var err error
	if c.progs, c.n, c.m, err = churnProgs(c.cfg.seed, c.tiles); err != nil {
		return err
	}
	c.expect = c.expected()
	return c.reset()
}

// expected replays the programs through a detection front end whose
// verdict is rag.Graph.HasCycle, and re-checks some of its verdicts with
// the per-cell engine (see oracleEngine).  Every iteration
// replays the same programs on the same schedule, so every iteration's
// verdicts must equal these.
func (c *detectChurn) expected() churnOut {
	oracle := &oracleEngine{g: rag.NewGraph(c.m, c.n), offset: int(c.cfg.seed % uint64(min(64, c.verdicts)))}
	fe := newDetectFE(c.n, c.m, c.schedSeed(), oracle)
	verdicts := fe.replay(c.progs, c.verdicts, &churnRec{lat: map[string][]float64{}}, "oracle", "oracle.mutate")
	return churnOut{oracle: verdicts, cells: oracle.cells, cellVerdicts: oracle.cellVerdicts}
}

// schedSeed seeds every front end's scheduler, so front ends that make the
// same decisions step the tasks in the same order.
func (c *detectChurn) schedSeed() uint64 { return c.cfg.seed ^ 0x9e3779b97f4a7c15 }

// reset builds the four front ends, empty.
func (c *detectChurn) reset() error {
	d, err := ddu.New(ddu.Config{Procs: c.n, Resources: c.m})
	if err != nil {
		return err
	}
	av, err := newAvoider(c.n, c.m)
	if err != nil {
		return err
	}
	du, err := dau.New(dau.Config{Procs: c.n, Resources: c.m})
	if err != nil {
		return err
	}
	for p := 0; p < c.n; p++ {
		du.SetPriority(p, daa.Priority(p))
	}
	c.sw = newDetectFE(c.n, c.m, c.schedSeed(), &ragEngine{g: rag.NewGraph(c.m, c.n)})
	c.hw = newDetectFE(c.n, c.m, c.schedSeed(), &dduEngine{u: d})
	c.savd = newAvoidFE(c.n, c.m, c.schedSeed(), &daaEngine{a: av})
	c.havd = newAvoidFE(c.n, c.m, c.schedSeed(), &dauEngine{u: du})
	return nil
}

// newAvoider builds a software avoider with distinct static priorities,
// lower index outranking higher, as reset gives the DAU.
func newAvoider(n, m int) (*daa.Avoider, error) {
	av, err := daa.New(daa.Config{Procs: n, Resources: m})
	if err != nil {
		return nil, err
	}
	for p := 0; p < n; p++ {
		av.SetPriority(p, daa.Priority(p))
	}
	return av, nil
}

func (c *detectChurn) iterate(i int, tr *Tracer) error {
	rec := &churnRec{tr: tr, lat: map[string][]float64{}}
	var out churnOut
	root := tr.Begin("churn", -1)

	rec.parent = tr.Begin("frontend.pdda", root)
	out.swVerdicts = c.sw.replay(c.progs, c.verdicts, rec, "pdda.detect", "rag.mutate")
	tr.End(rec.parent)

	rec.parent = tr.Begin("frontend.ddu", root)
	out.hwVerdicts = c.hw.replay(c.progs, c.verdicts, rec, "ddu.detect", "ddu.write")
	tr.End(rec.parent)

	rec.parent = tr.Begin("frontend.daa", root)
	var err error
	out.sDecisions, err = c.savd.replay(c.progs, c.requests, rec, "daa")
	out.errs = append(out.errs, err)
	tr.End(rec.parent)

	rec.parent = tr.Begin("frontend.dau", root)
	out.hDecisions, err = c.havd.replay(c.progs, c.requests, rec, "dau")
	out.errs = append(out.errs, err)
	tr.End(rec.parent)
	tr.End(root)

	c.out[i] = out
	c.collect(rec)
	return nil
}

// verdictCalls are the calls whose latencies make up the verdict figures.
var verdictCalls = []string{"pdda.detect", "ddu.detect", "daa.request", "daa.release", "dau.request", "dau.release"}

// collect folds one iteration's call timings into the workload figures.
func (c *detectChurn) collect(rec *churnRec) {
	if rec.tr == nil {
		for _, name := range verdictCalls {
			c.verdictLat = append(c.verdictLat, rec.lat[name]...)
		}
	} else {
		for _, name := range verdictCalls {
			c.lat[name] = append(c.lat[name], rec.lat[name]...)
		}
		c.mutNs = append(c.mutNs, rec.mutNs...)
		c.mutCount = len(rec.mutNs)
	}
	c.dead, c.detects = rec.dead, rec.detects
	st := c.savd.eng.(*daaEngine).a.Stats()
	c.scans, c.releases = st.GrantScans, st.Releases
}

// audit completes an iteration's outputs outside the timed region: it
// adds the oracle's verdicts, compares the DDU's matrix with the software
// graph and asks both avoiders whether their graph is deadlocked.  It then
// builds fresh front ends for the next iteration.
func (c *detectChurn) audit(out *churnOut) error {
	out.oracle, out.cells, out.cellVerdicts = c.expect.oracle, c.expect.cells, c.expect.cellVerdicts
	out.matricesEqual = c.sw.eng.(*ragEngine).g.Matrix().Equal(c.hw.eng.(*dduEngine).u.Matrix())
	out.avoidersClean = !c.savd.eng.(*daaEngine).a.Deadlocked() && !c.havd.eng.(*dauEngine).u.Avoider().Deadlocked()
	return c.reset()
}

// check audits iteration i and judges its outputs.
func (c *detectChurn) check(i int) outcome {
	out := c.out[i]
	delete(c.out, i)
	err := c.audit(&out)
	o := judgeChurn(i, out)
	o.check(err == nil, "iteration %d: rebuilding the front ends: %v", i, err)
	return o
}

// judgeChurn compares the two detection front ends' verdicts with each
// other and with the HasCycle oracle, the sampled verdicts with the
// per-cell engine, and the two avoidance front ends' decisions with each
// other.
func judgeChurn(i int, out churnOut) outcome {
	var o outcome
	for k, v := range out.swVerdicts {
		ok := k < len(out.hwVerdicts) && out.hwVerdicts[k] == v && k < len(out.oracle) && out.oracle[k] == v
		o.check(ok, "iteration %d: verdict %d: pdda=%v, ddu and HasCycle disagree", i, k, v)
	}
	o.check(len(out.hwVerdicts) == len(out.swVerdicts) && len(out.oracle) == len(out.swVerdicts),
		"iteration %d: %d pdda, %d ddu and %d HasCycle verdicts", i, len(out.swVerdicts), len(out.hwVerdicts), len(out.oracle))
	o.check(len(out.cells) > 0, "iteration %d: no verdict was re-checked by the per-cell engine", i)
	for j, k := range out.cells {
		o.check(k < len(out.swVerdicts) && out.cellVerdicts[j] == out.swVerdicts[k],
			"iteration %d: verdict %d: per-cell engine says %v", i, k, out.cellVerdicts[j])
	}
	for k, d := range out.sDecisions {
		ok := k < len(out.hDecisions) && out.hDecisions[k] == d
		o.check(ok, "iteration %d: decision %d: daa %x, dau disagrees", i, k, d)
	}
	o.check(len(out.hDecisions) == len(out.sDecisions),
		"iteration %d: %d dau decisions for %d daa decisions", i, len(out.hDecisions), len(out.sDecisions))
	o.check(out.matricesEqual, "iteration %d: ddu matrix differs from the software graph", i)
	o.check(out.avoidersClean, "iteration %d: an avoider's graph is deadlocked", i)
	for _, err := range out.errs {
		o.check(err == nil, "iteration %d: %v", i, err)
	}
	return o
}

func (c *detectChurn) finish() outcome { return outcome{} }

func (c *detectChurn) figures() []Metric {
	if len(c.verdictLat) == 0 {
		return nil
	}
	hi, q := highPercentile(c.verdictLat)
	return []Metric{
		{"verdict_p50_us", median(c.verdictLat), "us"},
		{fmt.Sprintf("verdict_p%02.0f_us", q*100), hi, "us"},
		{"verdict_samples", float64(len(c.verdictLat)), "count"},
	}
}

func (c *detectChurn) layers() map[string]float64 {
	allocs := c.callAllocs()
	perCall := func(names ...string) float64 {
		var n, calls uint64
		for _, name := range names {
			n += allocs[name][0]
			calls += allocs[name][1]
		}
		return float64(n) / float64(calls)
	}
	var pooled []float64
	for _, name := range verdictCalls {
		pooled = append(pooled, c.lat[name]...)
	}
	return map[string]float64{
		"rag.mutate.ns":               median(c.mutNs),
		"rag.mutations":               float64(c.mutCount),
		"pdda.detect.us":              median(c.lat["pdda.detect"]),
		"pdda.detect.allocs":          perCall("pdda.detect"),
		"ddu.detect.us":               median(c.lat["ddu.detect"]),
		"ddu.detect.allocs":           perCall("ddu.detect"),
		"dau.request.us":              median(c.lat["dau.request"]),
		"dau.release.us":              median(c.lat["dau.release"]),
		"dau.allocs_per_cmd":          perCall("dau.request", "dau.release"),
		"daa.request.us":              median(c.lat["daa.request"]),
		"daa.release.us":              median(c.lat["daa.release"]),
		"daa.grant_scans_per_release": float64(c.scans) / float64(c.releases),
		"verdict.deadlock_ratio":      float64(c.dead) / float64(c.detects),
		"verdict.p50_us":              median(pooled),
		"verdict.p90_us":              quantile(pooled, 0.9),
	}
}

// callAllocs replays the programs once more, outside the timed iterations,
// counting the heap allocations of every timed call: allocations and calls
// by call name.
func (c *detectChurn) callAllocs() map[string][2]uint64 {
	if err := c.reset(); err != nil {
		return nil
	}
	rec := &churnRec{lat: map[string][]float64{}, allocs: map[string][2]uint64{}}
	c.sw.replay(c.progs, c.verdicts, rec, "pdda.detect", "rag.mutate")
	c.hw.replay(c.progs, c.verdicts, rec, "ddu.detect", "ddu.write")
	c.savd.replay(c.progs, c.requests, rec, "daa")
	c.havd.replay(c.progs, c.requests, rec, "dau")
	return rec.allocs
}

// churnRec times one replay's calls: always each timed call's latency; in
// a traced replay (tr non-nil) also a span around every call and the time
// of every graph mutation; in an allocation pass (allocs non-nil) the heap
// allocations of every timed call.
type churnRec struct {
	tr      *Tracer
	parent  int
	lat     map[string][]float64
	allocs  map[string][2]uint64
	mutNs   []float64
	dead    int
	detects int
	ms      runtime.MemStats
}

// timed runs fn as one call of the named layer.
func (r *churnRec) timed(name string, fn func()) {
	var m0 uint64
	if r.allocs != nil {
		runtime.ReadMemStats(&r.ms)
		m0 = r.ms.Mallocs
	}
	sp := r.tr.Begin(name, r.parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.tr.End(sp)
	r.lat[name] = append(r.lat[name], float64(d.Nanoseconds())/1e3)
	if r.allocs != nil {
		runtime.ReadMemStats(&r.ms)
		a := r.allocs[name]
		r.allocs[name] = [2]uint64{a[0] + r.ms.Mallocs - m0, a[1] + 1}
	}
}

// mutate runs fn as one graph mutation: spanned and timed in a traced
// replay only, since a mutation takes nanoseconds.
func (r *churnRec) mutate(name string, fn func()) {
	if r.tr == nil {
		fn()
		return
	}
	sp := r.tr.Begin(name, r.parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.tr.End(sp)
	if name == "rag.mutate" {
		r.mutNs = append(r.mutNs, float64(d.Nanoseconds()))
	}
}

// sched is the seeded scheduler: each step runs one task, drawn uniformly
// from the runnable ones.
type sched struct {
	rng *det.RNG
	run []int32 // runnable tasks
	pos []int32 // task -> its index in run, -1 while parked
}

func newSched(n int, seed uint64) *sched {
	s := &sched{rng: det.New(seed), run: make([]int32, n), pos: make([]int32, n)}
	for t := range s.run {
		s.run[t], s.pos[t] = int32(t), int32(t)
	}
	return s
}

// next draws the task to step; false once no task is runnable.
func (s *sched) next() (int32, bool) {
	if len(s.run) == 0 {
		return 0, false
	}
	return s.run[s.rng.Intn(len(s.run))], true
}

// park takes task t off the runnable set (it blocked or ended).
func (s *sched) park(t int32) {
	i := s.pos[t]
	last := s.run[len(s.run)-1]
	s.run[i], s.pos[last] = last, i
	s.run = s.run[:len(s.run)-1]
	s.pos[t] = -1
}

// wake puts a parked task back on the runnable set.
func (s *sched) wake(t int32) {
	s.pos[t] = int32(len(s.run))
	s.run = append(s.run, t)
}

// model is the benchmark's own view of who holds and who waits, kept per
// front end so each one's decisions drive its own state.
type model struct {
	s       *sched
	pc      []int32   // task -> index of its next program op
	holder  []int32   // resource -> holding task, -1 free
	waitOn  []int32   // task -> resource it waits for, -1 running
	held    [][]int32 // task -> resources held
	waiters [][]int32 // resource -> waiting tasks, FIFO (detection only)
}

func newModel(n, m int, seed uint64) model {
	md := model{
		s: newSched(n, seed), pc: make([]int32, n),
		holder: make([]int32, m), waitOn: make([]int32, n),
		held: make([][]int32, n), waiters: make([][]int32, m),
	}
	for i := range md.holder {
		md.holder[i] = -1
	}
	for i := range md.waitOn {
		md.waitOn[i] = -1
	}
	return md
}

func (m *model) grant(q, t int32) {
	m.holder[q] = t
	m.waitOn[t] = -1
	m.held[t] = append(m.held[t], q)
}

func (m *model) release(q, t int32) {
	m.holder[q] = -1
	h := m.held[t]
	for i, r := range h {
		if r == q {
			h[i] = h[len(h)-1]
			m.held[t] = h[:len(h)-1]
			return
		}
	}
}

// handOver completes blocked task t's pending acquire of q.
func (m *model) handOver(q, t int32) {
	m.grant(q, t)
	m.pc[t]++
	m.s.wake(t)
}

// detectEngine is one detection front end's view of the graph.
type detectEngine interface {
	request(q, t int) // add request edge t -> q
	withdraw(q, t int)
	grant(q, t int)
	release(q, t int)
	detect() bool
}

type ragEngine struct {
	g  *rag.Graph
	sc pdda.Scratch
}

func (e *ragEngine) request(q, t int)  { e.g.AddRequest(q, t) }
func (e *ragEngine) withdraw(q, t int) { e.g.RemoveRequest(q, t) }
func (e *ragEngine) grant(q, t int)    { _ = e.g.SetGrant(q, t) } // the model only grants free resources
func (e *ragEngine) release(q, t int)  { _ = e.g.Release(q, t) }  // the model only releases held ones
func (e *ragEngine) detect() bool {
	dead, _ := pdda.DetectGraphInto(&e.sc, e.g)
	return dead
}

// The oracle's verdicts re-checked by the per-cell engine, which is far
// slower: every deadlock and every cellEvery-th verdict, cellSamples in
// all.  With at most 64 + 2*96 < 256 as the last regular sample, every
// seed gets the same number of samples, so set-up time does not depend on
// how many deadlocks a seed's programs reach.
const (
	cellEvery   = 96
	cellSamples = 3
)

// oracleEngine judges with rag.Graph.HasCycle and re-checks verdicts with
// the per-cell engine: deadlocks, and the ones whose index is offset
// modulo cellEvery, until it has cellSamples.
type oracleEngine struct {
	g            *rag.Graph
	offset       int
	calls        int
	cells        []int
	cellVerdicts []bool
}

func (e *oracleEngine) request(q, t int)  { e.g.AddRequest(q, t) }
func (e *oracleEngine) withdraw(q, t int) { e.g.RemoveRequest(q, t) }
func (e *oracleEngine) grant(q, t int)    { _ = e.g.SetGrant(q, t) }
func (e *oracleEngine) release(q, t int)  { _ = e.g.Release(q, t) }
func (e *oracleEngine) detect() bool {
	dead := e.g.HasCycle()
	if len(e.cells) < cellSamples && (dead || e.calls%cellEvery == e.offset) {
		e.cells = append(e.cells, e.calls)
		e.cellVerdicts = append(e.cellVerdicts, pdda.DetectGraphCells(e.g))
	}
	e.calls++
	return dead
}

type dduEngine struct{ u *ddu.Unit }

func (e *dduEngine) request(q, t int)  { e.u.SetRequest(q, t) }
func (e *dduEngine) withdraw(q, t int) { e.u.ClearCell(q, t) }
func (e *dduEngine) grant(q, t int)    { e.u.SetGrant(q, t) }
func (e *dduEngine) release(q, t int)  { e.u.ClearCell(q, t) }
func (e *dduEngine) detect() bool      { return e.u.Detect().Deadlock }

// detectFE drives the task programs through a detection front end.  A task's
// acquire of a free resource is granted; of a held one, it adds a request
// edge and runs detection.  A request that closes a cycle is withdrawn and
// its task, the victim, releases everything and ends; any other request
// blocks its task until the holder releases.  A release hands the resource
// to its longest waiter.  A task that reaches the end of its program
// releases what it still holds (its lost releases); a task that reaches its
// crash point halts, holding what it holds, as in fuzz.Exec.
type detectFE struct {
	m   model
	eng detectEngine
}

func newDetectFE(n, m int, seed uint64, eng detectEngine) *detectFE {
	return &detectFE{m: newModel(n, m, seed), eng: eng}
}

// replay steps the programs until limit verdicts are in or no task can
// run, and returns the verdicts.
func (f *detectFE) replay(progs []fuzz.TaskProg, limit int, rec *churnRec, detectName, mutName string) []bool {
	var verdicts []bool
	m := &f.m
	release := func(q, t int32) {
		rec.mutate(mutName, func() { f.eng.release(int(q), int(t)) })
		m.release(q, t)
		if ws := m.waiters[q]; len(ws) > 0 {
			w := ws[0]
			m.waiters[q] = ws[1:]
			rec.mutate(mutName, func() { f.eng.grant(int(q), int(w)) })
			m.handOver(q, w)
		}
	}
	end := func(t int32) {
		for len(m.held[t]) > 0 {
			release(m.held[t][len(m.held[t])-1], t)
		}
		m.s.park(t)
	}
	for len(verdicts) < limit {
		t, ok := m.s.next()
		if !ok {
			break
		}
		ops := progs[t].Ops
		switch {
		case int(m.pc[t]) == progs[t].CrashAt:
			m.s.park(t) // crashed: it halts holding what it holds
			continue
		case int(m.pc[t]) >= len(ops):
			end(t)
			continue
		}
		op := ops[m.pc[t]]
		q := int32(op.Res)
		if !op.Acquire {
			if m.holder[q] == t {
				release(q, t)
			}
			m.pc[t]++
			continue
		}
		switch m.holder[q] {
		case t:
			m.pc[t]++
			continue
		case -1:
			rec.mutate(mutName, func() { f.eng.grant(int(q), int(t)) })
			m.grant(q, t)
			m.pc[t]++
			continue
		}
		rec.mutate(mutName, func() { f.eng.request(int(q), int(t)) })
		var dead bool
		rec.timed(detectName, func() { dead = f.eng.detect() })
		rec.detects++
		verdicts = append(verdicts, dead)
		if dead {
			rec.dead++
			rec.mutate(mutName, func() { f.eng.withdraw(int(q), int(t)) })
			end(t)
			continue
		}
		m.waitOn[t] = q
		m.waiters[q] = append(m.waiters[q], t)
		m.s.park(t)
	}
	return verdicts
}

// avoidEngine is one avoidance front end.  Decisions are encoded as
// kind<<32 | (task+1), where kind is the daa.Decision of a request or 8
// for a release and the task is the one asked to act or granted to.
type avoidEngine interface {
	request(t, q int) (kind daa.Decision, who int, err error)
	release(t, q int) (grantedTo int, err error)
}

type daaEngine struct{ a *daa.Avoider }

func (e *daaEngine) request(t, q int) (daa.Decision, int, error) {
	r, err := e.a.Request(t, q)
	return r.Decision, r.AskedProcess, err
}

func (e *daaEngine) release(t, q int) (int, error) {
	r, err := e.a.Release(t, q)
	return r.GrantedTo, err
}

type dauEngine struct{ u *dau.Unit }

func (e *dauEngine) request(t, q int) (daa.Decision, int, error) {
	st, _, err := e.u.Request(t, q)
	switch {
	case err != nil:
		return 0, -1, err
	case st.Successful:
		return daa.Granted, -1, nil
	case st.GiveUp:
		return daa.GiveUpRequested, st.WhichProcess, nil
	case st.Pending && st.WhichProcess >= 0:
		return daa.PendingOwnerAsked, st.WhichProcess, nil
	case st.Pending:
		return daa.Pending, -1, nil
	}
	return 0, -1, fmt.Errorf("dau: status %+v answers no request", st)
}

func (e *dauEngine) release(t, q int) (int, error) {
	st, _, err := e.u.Release(t, q)
	return st.GrantedTo, err
}

// avoidFE drives the task programs through an avoidance front end, tasks and
// scheduler as in detectFE.  A granted request holds the resource; a
// pending one blocks its task until a release hands the resource over; a
// task asked to give up releases everything it holds and ends; an owner
// asked to release does so at once, even while itself blocked, and its
// program's own release of that resource is then skipped.
type avoidFE struct {
	m   model
	eng avoidEngine
}

func newAvoidFE(n, m int, seed uint64, eng avoidEngine) *avoidFE {
	return &avoidFE{m: newModel(n, m, seed), eng: eng}
}

const releaseKind = 8

// replay steps the programs until limit requests are made or no task can
// run, and returns the decisions.
func (f *avoidFE) replay(progs []fuzz.TaskProg, limit int, rec *churnRec, prefix string) ([]int64, error) {
	var decisions []int64
	m := &f.m
	var err error
	release := func(q, t int32) {
		var w int
		rec.timed(prefix+".release", func() { w, err = f.eng.release(int(t), int(q)) })
		decisions = append(decisions, releaseKind<<32|int64(w+1))
		m.release(q, t)
		switch {
		case w < 0:
		case m.waitOn[w] != q:
			err = fmt.Errorf("%s: released q%d granted to p%d, which does not wait for it", prefix, q, w)
		default:
			m.handOver(q, int32(w))
		}
	}
	end := func(t int32) {
		for len(m.held[t]) > 0 && err == nil {
			release(m.held[t][len(m.held[t])-1], t)
		}
		m.s.park(t)
	}
	for requests := 0; requests < limit && err == nil; {
		t, ok := m.s.next()
		if !ok {
			break
		}
		ops := progs[t].Ops
		switch {
		case int(m.pc[t]) == progs[t].CrashAt:
			m.s.park(t) // crashed: it halts holding what it holds
			continue
		case int(m.pc[t]) >= len(ops):
			end(t)
			continue
		}
		op := ops[m.pc[t]]
		q := int32(op.Res)
		if !op.Acquire {
			if m.holder[q] == t {
				release(q, t)
			}
			m.pc[t]++
			continue
		}
		if m.holder[q] == t {
			m.pc[t]++
			continue
		}
		var kind daa.Decision
		var who int
		rec.timed(prefix+".request", func() { kind, who, err = f.eng.request(int(t), int(q)) })
		requests++
		decisions = append(decisions, int64(kind)<<32|int64(who+1))
		switch kind {
		case daa.Granted:
			m.grant(q, t)
			m.pc[t]++
		case daa.Pending:
			m.waitOn[t] = q
			m.s.park(t)
		case daa.PendingOwnerAsked:
			m.waitOn[t] = q
			m.s.park(t)
			release(q, int32(who))
		case daa.GiveUpRequested:
			end(t)
		}
	}
	return decisions, err
}
