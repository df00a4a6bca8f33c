package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"deltartos/internal/campaign"
	"deltartos/internal/experiments"
	"deltartos/internal/fuzz"
)

// Default seeds of the pinned-digest check: the bases of the registered
// ext-fuzz and ext-ipc-fuzz experiments.
const (
	lockDefaultBase = 0x5eed
	ipcDefaultBase  = 0x1bc5eed
	fuzzChunk       = 1024 // the sweep functions' default chunk size
)

// fuzzSizes sets seeds per parameter point for each size, and the pinned
// SHA-256 digests of the lock and IPC report JSON at the default seeds.
var fuzzSizes = map[string]struct {
	lockSeeds, ipcSeeds   int
	setupSeeds            int // per point, both sweeps
	lockDigest, ipcDigest string
}{
	"full": {
		lockSeeds: 256, ipcSeeds: 8192, setupSeeds: 32,
		lockDigest: "28c061c441e46b212fdd78c16ec4a122ee6c1574e2b0ef19b29d7de53090dcae",
		ipcDigest:  "9a8d875116474af6e2e91f7b262991cfa8336638f1db4656e53cb434437d7348",
	},
	"tiny": {
		lockSeeds: 16, ipcSeeds: 64, setupSeeds: 8,
		lockDigest: "0965269964b19f3c2c43ae2ffe32d89d9e194f619273d179f7e1095f709bc0b7",
		ipcDigest:  "77a8b8110257fde7374874f560c3132ecc84b3080f310dbc89f044f2f8d81ee8",
	},
}

// fuzzWorkers is the campaign width: two workers, never more than the CPUs.
func fuzzWorkers() int { return min(2, runtime.NumCPU()) }

// fuzzSweep is the fuzz_sweep workload: the stock lock-scenario contention
// sweep through experiments.RunFuzzSweep, then the stock IPC message-loss
// sweep through RunIPCFuzzSweep, every standing invariant on.  One pair of
// sweeps is an iteration; a seed is an operation.  A traced run times a
// replica of the sweep loop instead (see replica), traced and untraced in
// turn, and finish checks the replica against the sweep functions.
type fuzzSweep struct {
	cfg        config
	workers    int
	lockSeeds  int
	ipcSeeds   int
	setupSeeds int

	out   map[int]fuzzTally // pending checks, by iteration
	first fuzzTally         // iteration 1's tallies, for finish

	lockRates, ipcRates []float64 // seeds/s per untraced iteration

	phases map[string][]float64 // seconds per traced iteration, by span name
	busy   []float64
	counts map[string]float64 // of the first traced iteration
}

// fuzzTally is what one iteration leaves for its check: the counts both the
// real sweep functions and the replica produce, and the invariant failures
// per seed.
type fuzzTally struct {
	seeds      int
	deadlocks  int
	decisions  int
	linted     int
	ipcSeeds   int
	ipcWedged  int
	violations int    // seeds that broke an invariant
	reportErr  string // a sweep-level failure not tied to one seed
}

// sameCounts reports whether two tallies of the same seeds agree.
func (t fuzzTally) sameCounts(u fuzzTally) bool {
	return t.seeds == u.seeds && t.deadlocks == u.deadlocks && t.decisions == u.decisions &&
		t.linted == u.linted && t.ipcSeeds == u.ipcSeeds && t.ipcWedged == u.ipcWedged
}

func newFuzzSweep(cfg config) workload {
	sz := fuzzSizes[cfg.size]
	return &fuzzSweep{
		cfg: cfg, workers: fuzzWorkers(), lockSeeds: sz.lockSeeds, ipcSeeds: sz.ipcSeeds, setupSeeds: sz.setupSeeds,
		out: map[int]fuzzTally{}, phases: map[string][]float64{},
	}
}

// sweeps returns the two sweeps of seed round r: the same sizes every
// round, fresh seeds.  Rounds never share seeds.  The cost of a round
// depends on its seeds with a heavy tail (at one workload seed, one
// round allocated 551 MB where others allocated 318-348 MB), so every
// iteration sweeps a round of its own and the median over iterations
// passes over a heavy round instead of making it the whole run's figure.
func (f *fuzzSweep) sweeps(r int) (fuzz.Sweep, fuzz.IPCSweep) {
	lock := fuzz.DefaultSweep(f.lockSeeds, 1+f.cfg.seed<<32+uint64(r)*8*uint64(f.lockSeeds))
	ipc := fuzz.DefaultIPCSweep(f.ipcSeeds, 1+f.cfg.seed<<32+uint64(r)*5*uint64(f.ipcSeeds))
	return lock, ipc
}

func (f *fuzzSweep) prepare() error { return nil }

// setup runs the round-0 sweeps cut to setupSeeds seeds per point through
// the sweep functions on one worker, so the generators' first-use costs
// land here and the time does not depend on scheduling.  It skips the lint
// round-trip, which writes scratch packages to disk and would make
// set-up time mostly file-system time.
func (f *fuzzSweep) setup() error {
	lock, ipc := f.sweeps(0)
	lock.Seeds, ipc.Seeds = f.setupSeeds, f.setupSeeds
	lock.LintSample = 0
	rc := &experiments.RunCtx{Parallel: 1}
	if _, err := experiments.RunFuzzSweep(lock, rc); err != nil {
		return err
	}
	_, err := experiments.RunIPCFuzzSweep(ipc, rc)
	return err
}

func (f *fuzzSweep) iterate(i int, tr *Tracer) error {
	var t fuzzTally
	var err error
	if f.cfg.traced {
		t, err = f.replica(i, tr)
	} else {
		var lockWall, ipcWall float64
		t, lockWall, ipcWall, err = f.sweep(i)
		f.lockRates = append(f.lockRates, float64(t.seeds)/lockWall)
		f.ipcRates = append(f.ipcRates, float64(t.ipcSeeds)/ipcWall)
	}
	if i == 1 {
		f.first = t
	}
	f.out[i] = t
	return err
}

// sweep runs round r's sweeps through the sweep functions and tallies their
// reports, with each sweep's wall time in seconds.
func (f *fuzzSweep) sweep(r int) (t fuzzTally, lockWall, ipcWall float64, err error) {
	lock, ipc := f.sweeps(r)
	rc := &experiments.RunCtx{Parallel: f.workers}
	start := time.Now()
	rep, err := experiments.RunFuzzSweep(lock, rc)
	lockWall = time.Since(start).Seconds()
	if rep == nil {
		return t, 0, 0, err
	}
	for _, p := range rep.Points {
		t.seeds += p.Seeds
		t.deadlocks += p.Deadlocked
		t.decisions += p.BankerDecisions
		t.linted += p.LintChecked
		t.violations += p.Mismatches
	}
	if err != nil && t.violations == 0 {
		t.reportErr = err.Error()
	}

	start = time.Now()
	irep, err := experiments.RunIPCFuzzSweep(ipc, rc)
	ipcWall = time.Since(start).Seconds()
	if irep == nil {
		return t, 0, 0, err
	}
	ipcViolations := 0
	for _, p := range irep.Points {
		t.ipcSeeds += p.Seeds
		t.ipcWedged += p.Wedged + p.FuseExceeded
		ipcViolations += p.Violations
	}
	t.violations += ipcViolations
	if err != nil && ipcViolations == 0 && t.reportErr == "" {
		t.reportErr = err.Error()
	}
	return t, lockWall, ipcWall, nil
}

// replica runs round r's sweeps seed by seed through the fuzz package's
// public phases on the campaign pool, chunked as the sweep functions chunk;
// traced (tr non-nil), with a span around every phase call.  Its tallies
// must match the sweep functions' (see finish).
func (f *fuzzSweep) replica(r int, tr *Tracer) (fuzzTally, error) {
	lock, ipc := f.sweeps(r)
	var t fuzzTally
	root := tr.Begin("sweeps", -1)
	var mu sync.Mutex // guards t across workers

	type job struct {
		point int
		lo    int
		n     int
	}
	chunks := func(points, seeds int) []job {
		var jobs []job
		for p := 0; p < points; p++ {
			for lo := 0; lo < seeds; lo += fuzzChunk {
				jobs = append(jobs, job{p, lo, min(fuzzChunk, seeds-lo)})
			}
		}
		return jobs
	}

	lockSpan := tr.Begin("fuzz.lock_sweep", root)
	lockStart := time.Now()
	var busyNs int64
	jobs := chunks(len(lock.Points), lock.Seeds)
	err := campaign.Run(len(jobs), f.workers, func(j int) error {
		jb := jobs[j]
		cs := tr.Begin("campaign.chunk", lockSpan)
		chunkStart := time.Now()
		gen := lock.Points[jb.point].Gen
		base := lock.BaseSeed + uint64(jb.point)*uint64(lock.Seeds)
		var es fuzz.ExecScratch
		var c fuzzTally
		for k := jb.lo; k < jb.lo+jb.n; k++ {
			sp := tr.Begin("fuzz.generate", cs)
			sc, err := fuzz.Generate(base+uint64(k), gen)
			tr.End(sp)
			if err != nil {
				return err
			}
			sp = tr.Begin("fuzz.derive", cs)
			st := fuzz.Derive(sc)
			tr.End(sp)
			deepOracle := lock.OracleEvery > 0 && k%lock.OracleEvery == 0
			sp = tr.Begin("fuzz.exec", cs)
			res := fuzz.ExecWith(&es, sc, st, deepOracle)
			tr.End(sp)
			sp = tr.Begin("fuzz.banker_diff", cs)
			bd := fuzz.BankerDiff(sc, st)
			tr.End(sp)
			bad := res.MismatchAt != "" || bd.Mismatch != ""
			if k < lock.LintSample {
				sp = tr.Begin("fuzz.lint_check", cs)
				mismatch, err := fuzz.LintCheck(sc, st)
				tr.End(sp)
				if err != nil {
					return err
				}
				c.linted++
				bad = bad || mismatch != ""
			}
			c.seeds++
			c.decisions += bd.Decisions
			if res.Outcome == fuzz.Deadlocked {
				c.deadlocks++
			}
			if bad {
				c.violations++
			}
		}
		tr.End(cs)
		mu.Lock()
		t.seeds += c.seeds
		t.deadlocks += c.deadlocks
		t.decisions += c.decisions
		t.linted += c.linted
		t.violations += c.violations
		busyNs += int64(time.Since(chunkStart))
		mu.Unlock()
		return nil
	})
	lockWall := time.Since(lockStart)
	tr.End(lockSpan)
	if err != nil {
		return t, err
	}

	ipcSpan := tr.Begin("fuzz.ipc_sweep", root)
	ipcStart := time.Now()
	jobs = chunks(len(ipc.Points), ipc.Seeds)
	err = campaign.Run(len(jobs), f.workers, func(j int) error {
		jb := jobs[j]
		cs := tr.Begin("campaign.chunk", ipcSpan)
		chunkStart := time.Now()
		gen := ipc.Points[jb.point].Gen
		base := ipc.BaseSeed + uint64(jb.point)*uint64(ipc.Seeds)
		var c fuzzTally
		for k := jb.lo; k < jb.lo+jb.n; k++ {
			sp := tr.Begin("fuzz.ipc_generate", cs)
			sc, err := fuzz.GenerateIPC(base+uint64(k), gen)
			tr.End(sp)
			if err != nil {
				return err
			}
			sp = tr.Begin("fuzz.ipc_derive", cs)
			st := fuzz.DeriveIPC(sc)
			tr.End(sp)
			sp = tr.Begin("fuzz.ipc_exec", cs)
			res := fuzz.ExecIPC(sc, st)
			tr.End(sp)
			c.ipcSeeds++
			if res.Outcome == fuzz.Wedged || res.Outcome == fuzz.FuseExceeded {
				c.ipcWedged++
			}
			if res.MismatchAt != "" {
				c.violations++
			}
		}
		tr.End(cs)
		mu.Lock()
		t.ipcSeeds += c.ipcSeeds
		t.ipcWedged += c.ipcWedged
		t.violations += c.violations
		busyNs += int64(time.Since(chunkStart))
		mu.Unlock()
		return nil
	})
	ipcWall := time.Since(ipcStart)
	tr.End(ipcSpan)
	tr.End(root)
	if err != nil {
		return t, err
	}

	if tr == nil {
		return t, nil
	}
	for name, ns := range selfTimes(tr.Spans()) {
		f.phases[name] = append(f.phases[name], float64(ns)/1e9)
	}
	f.busy = append(f.busy, float64(busyNs)/(float64(lockWall+ipcWall)*float64(f.workers)))
	if f.counts == nil {
		f.counts = map[string]float64{
			"fuzz.seeds":            float64(t.seeds + t.ipcSeeds),
			"fuzz.deadlocks":        float64(t.deadlocks),
			"fuzz.banker_decisions": float64(t.decisions),
			"fuzz.lint_checked":     float64(t.linted),
		}
	}
	return t, nil
}

// check counts every seed as an operation and every invariant break as a
// failure.
func (f *fuzzSweep) check(i int) outcome {
	var o outcome
	t := f.out[i]
	delete(f.out, i)
	o.attempted = t.seeds + t.ipcSeeds
	o.failed = t.violations
	if t.violations > 0 {
		o.first = fmt.Sprintf("iteration %d: %d seed(s) broke an invariant", i, t.violations)
	}
	o.check(t.reportErr == "", "iteration %d: %s", i, t.reportErr)
	return o
}

// finish sweeps the default seeds and compares both reports with their
// pinned digests.  After a traced run it also sweeps iteration 1's seeds
// through the sweep functions, whose tallies the replica must reproduce.
func (f *fuzzSweep) finish() outcome {
	var o outcome
	sz := fuzzSizes[f.cfg.size]
	rc := &experiments.RunCtx{Parallel: f.workers}
	rep, err := experiments.RunFuzzSweep(fuzz.DefaultSweep(f.lockSeeds, lockDefaultBase), rc)
	o.check(err == nil && digestJSON(rep) == sz.lockDigest,
		"lock report at the default seed: digest %s, pinned %s (err=%v)", digestJSON(rep), sz.lockDigest, err)
	irep, err := experiments.RunIPCFuzzSweep(fuzz.DefaultIPCSweep(f.ipcSeeds, ipcDefaultBase), rc)
	o.check(err == nil && digestJSON(irep) == sz.ipcDigest,
		"IPC report at the default seed: digest %s, pinned %s (err=%v)", digestJSON(irep), sz.ipcDigest, err)
	if f.cfg.traced {
		real, _, _, err := f.sweep(1)
		o.check(err == nil && real.violations == 0 && real.reportErr == "" && real.sameCounts(f.first),
			"replica tallies %+v differ from the sweep functions' %+v (err=%v)", f.first, real, err)
	}
	return o
}

// digestJSON hashes a report's JSON ("" for a nil report).
func digestJSON(r interface{ JSON() ([]byte, error) }) string {
	if r == nil {
		return ""
	}
	b, err := r.JSON()
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func (f *fuzzSweep) figures() []Metric {
	if len(f.lockRates) == 0 {
		return nil // a traced run times the replica, not the sweep functions
	}
	return []Metric{
		{"seeds_per_s", median(f.lockRates), "1/s"},
		{"ipc_seeds_per_s", median(f.ipcRates), "1/s"},
	}
}

// fuzzPhases are the per-seed phases the traced replica times.
var fuzzPhases = []string{"generate", "derive", "exec", "banker_diff", "lint_check", "ipc_generate", "ipc_derive", "ipc_exec"}

func (f *fuzzSweep) layers() map[string]float64 {
	ms := map[string]float64{"campaign.busy_ratio": median(f.busy)}
	for _, ph := range fuzzPhases {
		ms["fuzz."+ph+".s"] = median(f.phases["fuzz."+ph])
	}
	ms["fuzz.exec.allocs"], ms["fuzz.banker_diff.allocs"] = f.sampleAllocs(256)
	for name, v := range f.counts {
		ms[name] = v
	}
	return ms
}

// sampleAllocs measures heap allocations per Exec and per BankerDiff call
// over the first n seeds of round 0's first point, one call at a time.
func (f *fuzzSweep) sampleAllocs(n int) (execAllocs, diffAllocs float64) {
	lock, _ := f.sweeps(0)
	gen := lock.Points[0].Gen
	var es fuzz.ExecScratch
	var ms runtime.MemStats
	var ex, bd uint64
	n = min(n, lock.Seeds)
	for k := 0; k < n; k++ {
		sc, err := fuzz.Generate(lock.BaseSeed+uint64(k), gen)
		if err != nil {
			return 0, 0
		}
		st := fuzz.Derive(sc)
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		fuzz.ExecWith(&es, sc, st, false)
		runtime.ReadMemStats(&ms)
		m1 := ms.Mallocs
		fuzz.BankerDiff(sc, st)
		runtime.ReadMemStats(&ms)
		ex += m1 - m0
		bd += ms.Mallocs - m1
	}
	return float64(ex) / float64(n), float64(bd) / float64(n)
}
