package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"deltartos/internal/experiments"
	"deltartos/internal/trace"
)

// paperIDs is every registered experiment the paper_matrix workload runs:
// the whole registry except the two fuzz sweeps, which fuzz_sweep times.
// The list is fixed so the metric set is; an experiment added to the
// registry joins the benchmark in a change of its own.
var paperIDs = []string{
	"chaos", "ext-livelock", "ext-parallel", "ext-scale",
	"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig20", "fig7",
	"ipc-chaos",
	"table1", "table10", "table11", "table12", "table2", "table3", "table45", "table67", "table89",
}

// seededIDs take their base seed from the workload seed; every other
// experiment's output is fixed, and its digest is pinned below.
//
// chaos is not among them: it runs as registered, at its default seeds.  Some
// other base seeds crash the program (a nil lock owner reaches
// Kernel.setPriority from soclc.SoftwareLocks.Acquire's priority
// inheritance after the owner is gone; single-seed campaigns crash on 619
// of seeds 1-19999, the first at 110), and a crashed process reports
// nothing.  README.md records the defect and how to reproduce it.
var seededIDs = map[string]bool{"ipc-chaos": true}

// paperDigest is the SHA-256 of the rendered tables of every experiment
// outside seededIDs, concatenated in paperIDs order.
const paperDigest = "ed6ed3e363f7124ab06d1d7bd0d02cbf11b1ea342a8415a5bdd0a9a32fe2f14b"

// paperMatrix is the paper_matrix workload: repeated passes over the
// experiment matrix at width 1, the run a person reproducing the paper
// makes.  A pass is one iteration; an experiment is one operation.
type paperMatrix struct {
	cfg      config
	exps     []experiments.Experiment
	ipcChaos experiments.IPCChaosConfig

	ref  []string        // rendered output of the reference pass, per experiment
	outs map[int]passOut // pending checks, by iteration

	expTimes   map[string][]float64 // seconds per pass, by experiment (trace mode)
	counts     map[string]float64   // simulated counts of the first traced pass
	countsSeen outcome              // later traced passes must repeat them exactly
	nsPerEvent []float64
}

type passOut struct {
	rendered []string
	errs     []error
	counts   map[string]float64 // traced passes only
}

func newPaperMatrix(cfg config) workload {
	return &paperMatrix{cfg: cfg, outs: map[int]passOut{}, expTimes: map[string][]float64{}}
}

func (p *paperMatrix) prepare() error { return nil }

// setup resolves the experiments, seeds the IPC chaos campaign and runs the
// reference pass every later pass must reproduce.
func (p *paperMatrix) setup() error {
	p.exps = p.exps[:0]
	for _, id := range paperIDs {
		e, ok := experiments.Find(id)
		if !ok {
			return fmt.Errorf("experiment %q is not registered", id)
		}
		p.exps = append(p.exps, e)
	}
	p.ipcChaos = experiments.DefaultIPCChaosConfig()
	p.ipcChaos.BaseSeed = 1 + p.cfg.seed*uint64(p.ipcChaos.Seeds)
	out := p.pass(nil)
	for i, err := range out.errs {
		if err != nil {
			return fmt.Errorf("reference pass: %s: %w", paperIDs[i], err)
		}
	}
	p.ref = out.rendered
	return nil
}

// runOne runs one experiment under rc and renders it.
func (p *paperMatrix) runOne(e experiments.Experiment, rc *experiments.RunCtx) (string, error) {
	var res experiments.Result
	var err error
	switch e.ID {
	case "ipc-chaos":
		res, _, err = experiments.RunIPCChaosCampaign(p.ipcChaos, rc)
	default:
		res, err = e.Run(rc)
	}
	if err != nil {
		return "", err
	}
	return experiments.Render(res), nil
}

// pass runs every experiment once.  A traced pass (tr non-nil) also runs
// each experiment with a trace session attached, the simulator's own
// tracing, and returns its simulated counts.
func (p *paperMatrix) pass(tr *Tracer) passOut {
	deep := tr != nil
	out := passOut{rendered: make([]string, len(p.exps)), errs: make([]error, len(p.exps))}
	var merged map[string]uint64
	events := 0
	if deep {
		merged = map[string]uint64{}
	}
	root := tr.Begin("pass", -1)
	for i, e := range p.exps {
		rc := &experiments.RunCtx{Parallel: 1, Label: e.ID}
		if deep {
			rc.Session = trace.NewSession()
		}
		sp := tr.Begin("exp."+e.ID, root)
		out.rendered[i], out.errs[i] = p.runOne(e, rc)
		tr.End(sp)
		if deep {
			for k, v := range rc.Counters() {
				merged[k] += v
			}
			events += rc.Session.Events()
		}
	}
	tr.End(root)
	if deep {
		out.counts = simCounts(merged, events)
	}
	return out
}

// simCounts folds a pass's trace counters into the reported simulated
// counts.  They depend only on the inputs, so they repeat exactly.
func simCounts(c map[string]uint64, events int) map[string]float64 {
	sum := func(prefix string) uint64 {
		var n uint64
		for k, v := range c {
			if strings.HasPrefix(k, prefix) {
				n += v
			}
		}
		return n
	}
	return map[string]float64{
		"sim.events":        float64(events),
		"sim.end_cycle":     float64(c["sim.end_cycle"]),
		"bus.transactions":  float64(c["bus.transactions"]),
		"bus.stall_cycles":  float64(c["bus.stall_cycles"]),
		"rtos.kernel_calls": float64(c["count.kernel.service"]),
		"rtos.lock_ops":     float64(sum("count.lock.")),
		"rtos.ipc_ops":      float64(sum("count.ipc.")),
		"socdmmu.allocs":    float64(c["count.alloc.alloc"]),
		"ddu.detects":       float64(c["count.detect.invoke"]),
		"dau.avoids":        float64(sum("count.avoid.")),
		"fault.recovered":   float64(sum("count.recover.")),
	}
}

func (p *paperMatrix) iterate(i int, tr *Tracer) error {
	start := time.Now()
	out := p.pass(tr)
	wall := time.Since(start)
	if tr != nil {
		if ev := out.counts["sim.events"]; ev > 0 {
			p.nsPerEvent = append(p.nsPerEvent, float64(wall.Nanoseconds())/ev)
		}
		for name, ns := range selfTimes(tr.Spans()) {
			if name != "pass" {
				p.expTimes[name] = append(p.expTimes[name], float64(ns)/1e9)
			}
		}
	}
	p.outs[i] = out
	return nil
}

// check compares a pass with the reference pass, experiment by experiment,
// and a traced pass's simulated counts with the first traced pass's.
func (p *paperMatrix) check(i int) outcome {
	var o outcome
	out := p.outs[i]
	delete(p.outs, i)
	for k, id := range paperIDs {
		o.check(out.errs[k] == nil && out.rendered[k] == p.ref[k],
			"pass %d: %s differs from the reference pass (err=%v)", i, id, out.errs[k])
	}
	if out.counts != nil {
		if p.counts == nil {
			p.counts = out.counts
		} else {
			same := true
			for k, v := range out.counts {
				same = same && p.counts[k] == v
			}
			p.countsSeen.check(same, "pass %d: simulated counts differ from the first traced pass", i)
		}
	}
	return o
}

// finish checks the reference pass against the pinned digest of the
// seed-independent tables, and reports the counter-repeat checks.
func (p *paperMatrix) finish() outcome {
	var o outcome
	got := p.fixedDigest()
	o.check(got == paperDigest, "paper tables digest %s, pinned %s", got, paperDigest)
	o.add(p.countsSeen)
	return o
}

// fixedDigest hashes the reference pass's seed-independent tables.
func (p *paperMatrix) fixedDigest() string {
	h := sha256.New()
	for k, id := range paperIDs {
		if !seededIDs[id] {
			h.Write([]byte(p.ref[k]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (p *paperMatrix) figures() []Metric { return nil }

func (p *paperMatrix) layers() map[string]float64 {
	ms := map[string]float64{"sim.host_ns_per_event": median(p.nsPerEvent)}
	for _, id := range paperIDs {
		ms["exp."+id+".s"] = median(p.expTimes["exp."+id])
	}
	for name, v := range p.counts {
		ms[name] = v
	}
	return ms
}
