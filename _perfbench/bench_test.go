package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// tiny is the smoke-test configuration: the workloads at their small size.
func tiny(seed uint64) config { return config{root: "..", seed: seed, size: "tiny"} }

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// and requires a correct result carrying exactly the declared metrics.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	perLayerNames := map[string]bool{}
	for _, s := range perLayer() {
		perLayerNames[s.Name] = true
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tiny(7)
			cfg.traced = traced
			res, err := runWorkload(io.Discard, wl.name, cfg, 50*time.Millisecond)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayerNames)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(res.Metrics), want)
			}
			for name, m := range res.Metrics {
				if traced != perLayerNames[name] {
					t.Errorf("%s traced=%v: unexpected metric %s", wl.name, traced, name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, name, m.Value)
				}
			}
		}
	}
}

// TestUnknownWorkload requires a clear error, not a result.
func TestUnknownWorkload(t *testing.T) {
	if _, err := runWorkload(io.Discard, "nope", tiny(1), time.Millisecond); err == nil {
		t.Fatal("an unknown workload ran")
	}
}

// TestBenchmarkJSONMatchesCatalog pins BENCHMARK.json to the metrics and
// workloads the benchmark declares.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			spec
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	var e2e []spec
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.spec)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, want %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer()) {
		t.Errorf("per_layer differs from perLayer()")
	}
	if !reflect.DeepEqual(doc.Command, []string{"python3", "_perfbench/run.py"}) || !reflect.DeepEqual(doc.Paths, []string{"_perfbench"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
}

// setUp builds a workload and runs its prepare and setup.
func setUp(t *testing.T, mk func(config) workload, traced bool) workload {
	t.Helper()
	cfg := tiny(3)
	cfg.traced = traced
	w := mk(cfg)
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	return w
}

// rejects requires a check outcome to count a failure.
func rejects(t *testing.T, what string, o outcome) {
	t.Helper()
	if o.failed == 0 {
		t.Errorf("%s: the check accepted a planted wrong answer", what)
	}
}

// accepts requires a check outcome with checks and no failure.
func accepts(t *testing.T, what string, o outcome) {
	t.Helper()
	if o.failed != 0 || o.attempted == 0 {
		t.Errorf("%s: attempted=%d failed=%d (%s)", what, o.attempted, o.failed, o.first)
	}
}

func TestPaperChecksRejectPlantedAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper matrix")
	}
	p := setUp(t, newPaperMatrix, true).(*paperMatrix)
	for i := 0; i < 3; i++ {
		var tr *Tracer
		if i > 0 {
			tr = NewTracer()
		}
		if err := p.iterate(i, tr); err != nil {
			t.Fatal(err)
		}
	}
	accepts(t, "honest pass", p.check(0))
	accepts(t, "honest traced pass", p.check(1))

	// A pass whose table differs from the reference pass.
	out := p.outs[2]
	out.rendered[5] += "x"
	// A second traced pass whose simulated counts moved.
	out.counts["bus.transactions"]++
	rejects(t, "changed table", p.check(2))
	rejects(t, "changed simulated count", p.countsSeen)

	// A reference pass that no longer matches the pinned digest.
	p.countsSeen = outcome{}
	accepts(t, "honest finish", p.finish())
	p.ref[3] += "x"
	rejects(t, "changed pinned table", p.finish())

	// An experiment that failed.
	if err := p.iterate(3, nil); err != nil {
		t.Fatal(err)
	}
	p.outs[3].errs[0] = errors.New("planted")
	rejects(t, "failed experiment", p.check(3))
}

func TestFuzzChecksRejectPlantedAnswers(t *testing.T) {
	f := setUp(t, newFuzzSweep, false).(*fuzzSweep)
	if err := f.iterate(0, nil); err != nil {
		t.Fatal(err)
	}
	honest := f.out[0]
	accepts(t, "honest sweeps", f.check(0))
	accepts(t, "honest default-seed digests", f.finish())

	// A seed that broke an invariant.
	bad := honest
	bad.violations = 1
	f.out[0] = bad
	rejects(t, "invariant violation", f.check(0))

	// A sweep-level error.
	bad = honest
	bad.reportErr = "planted"
	f.out[0] = bad
	rejects(t, "sweep error", f.check(0))

	// Default-seed reports that differ from the pinned digests.
	saved := fuzzSizes["tiny"]
	planted := saved
	planted.lockDigest = strings.Repeat("0", 64)
	fuzzSizes["tiny"] = planted
	rejects(t, "pinned digest", f.finish())
	fuzzSizes["tiny"] = saved

	// A traced replica that disagrees with the sweep functions about the
	// same seeds.
	r := setUp(t, newFuzzSweep, true).(*fuzzSweep)
	if err := r.iterate(1, NewTracer()); err != nil {
		t.Fatal(err)
	}
	accepts(t, "honest replica", r.check(1))
	accepts(t, "honest replica against the sweep functions", r.finish())
	r.first.deadlocks++
	rejects(t, "replica tallies", r.finish())
}

func TestLintChecksRejectPlantedAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the snapshot module")
	}
	l := setUp(t, newLintModule, false).(*lintModule)
	defer l.finish()
	if !strings.HasPrefix(l.dir, os.TempDir()) {
		t.Errorf("snapshot unpacked to %s, outside the temporary directory %s", l.dir, os.TempDir())
	}
	for i := 0; i < 2; i++ {
		var tr *Tracer
		if i == 1 {
			tr = NewTracer()
		}
		if err := l.iterate(i, tr); err != nil {
			t.Fatal(err)
		}
	}
	accepts(t, "warm-up", l.check(0))
	honest := l.outs[1]
	accepts(t, "stable findings", l.check(1))
	if len(honest.runs) == 0 {
		t.Fatal("no pass ran")
	}

	changed := honest
	changed.runs = append(slices.Clone(honest.runs), lintRun{pkg: honest.runs[0].pkg, pass: "planted", err: errors.New("planted")})
	l.outs[2] = changed
	rejects(t, "changed findings", l.check(2))

	typed := honest
	typed.typeErrors = 1
	l.outs[3] = typed
	rejects(t, "type errors", l.check(3))

	failed := honest
	failed.err = errors.New("planted")
	l.outs[4] = failed
	rejects(t, "failed load", l.check(4))
}

func TestChurnChecksRejectPlantedAnswers(t *testing.T) {
	c := setUp(t, newDetectChurn, true).(*detectChurn)
	if err := c.iterate(0, nil); err != nil {
		t.Fatal(err)
	}
	honest := c.out[0]
	if err := c.audit(&honest); err != nil {
		t.Fatal(err)
	}
	accepts(t, "honest iteration", judgeChurn(0, honest))
	if len(honest.swVerdicts) == 0 || len(honest.sDecisions) == 0 {
		t.Fatalf("iteration produced %d verdicts, %d decisions", len(honest.swVerdicts), len(honest.sDecisions))
	}
	if err := c.iterate(1, NewTracer()); err != nil {
		t.Fatal(err)
	}
	accepts(t, "honest traced iteration", c.check(1))

	plant := func(what string, mutate func(o *churnOut)) {
		t.Helper()
		o := honest
		o.swVerdicts = slices.Clone(honest.swVerdicts)
		o.hwVerdicts = slices.Clone(honest.hwVerdicts)
		o.oracle = slices.Clone(honest.oracle)
		o.sDecisions = slices.Clone(honest.sDecisions)
		o.hDecisions = slices.Clone(honest.hDecisions)
		mutate(&o)
		rejects(t, what, judgeChurn(9, o))
	}
	plant("ddu verdict", func(o *churnOut) { o.hwVerdicts[0] = !o.hwVerdicts[0] })
	plant("missing ddu verdict", func(o *churnOut) { o.hwVerdicts = o.hwVerdicts[1:] })
	plant("HasCycle oracle", func(o *churnOut) { o.oracle[0] = !o.oracle[0] })
	plant("per-cell engine", func(o *churnOut) {
		o.cellVerdicts = slices.Clone(o.cellVerdicts)
		o.cellVerdicts[0] = !o.cellVerdicts[0]
	})
	plant("unsampled per-cell engine", func(o *churnOut) { o.cells = nil })
	plant("dau decision", func(o *churnOut) { o.hDecisions[0]++ })
	plant("ddu matrix", func(o *churnOut) { o.matricesEqual = false })
	plant("deadlocked avoider", func(o *churnOut) { o.avoidersClean = false })
	plant("front-end error", func(o *churnOut) { o.errs = []error{errors.New("planted")} })
}
