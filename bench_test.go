package deltartos

// One benchmark per table and figure of the paper's evaluation (Section 5),
// plus the ablation benches called out in DESIGN.md.  Each benchmark reports
// the headline simulated-cycle metrics via b.ReportMetric so `go test
// -bench=.` regenerates the paper's rows.

import (
	"os"
	"strconv"
	"testing"
	"time"

	"deltartos/internal/analysis/framework"
	"deltartos/internal/analysis/passes"
	"deltartos/internal/app"
	"deltartos/internal/daa"
	"deltartos/internal/dau"
	"deltartos/internal/ddu"
	"deltartos/internal/delta"
	"deltartos/internal/det"
	"deltartos/internal/fuzz"
	"deltartos/internal/pdda"
	"deltartos/internal/rag"
	"deltartos/internal/sim"
	"deltartos/internal/socdmmu"
)

// ---- Table 1: DDU synthesis ----

func BenchmarkTable1DDUSynthesis(b *testing.B) {
	for _, size := range []struct{ p, r int }{{2, 3}, {5, 5}, {7, 7}, {10, 10}, {50, 50}} {
		size := size
		b.Run(sizeName(size.p, size.r), func(b *testing.B) {
			var sr ddu.SynthResult
			var err error
			for i := 0; i < b.N; i++ {
				sr, err = ddu.Synthesize(ddu.Config{Procs: size.p, Resources: size.r})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sr.AreaGates), "gates")
			b.ReportMetric(float64(sr.VerilogLines), "verilog-lines")
			b.ReportMetric(float64(sr.WorstSteps), "worst-steps")
		})
	}
}

// ---- Table 2 / Figure 14: DAU synthesis ----

func BenchmarkTable2DAUSynthesis(b *testing.B) {
	var sr dau.SynthResult
	var err error
	for i := 0; i < b.N; i++ {
		sr, err = dau.Synthesize(dau.Config{Procs: 5, Resources: 5})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sr.TotalArea), "gates")
	b.ReportMetric(float64(sr.AvoidanceSteps), "worst-steps")
}

// ---- Table 3 / Figure 7: framework generation ----

func BenchmarkTable3PresetGeneration(b *testing.B) {
	for _, name := range delta.PresetNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := delta.Preset(name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := delta.Generate(&c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Tables 4-5 / Figure 15: deadlock detection scenario ----

func BenchmarkTable5Detection(b *testing.B) {
	b.Run("DDU", func(b *testing.B) {
		var res app.DetectionResult
		for i := 0; i < b.N; i++ {
			d, err := app.NewHardwareDetector(5, 5)
			if err != nil {
				b.Fatal(err)
			}
			res = app.RunDetectionScenario(d)
		}
		report(b, res.DeadlockFound, float64(res.AppCycles), res.AvgDetectCycles)
	})
	b.Run("PDDA-software", func(b *testing.B) {
		var res app.DetectionResult
		for i := 0; i < b.N; i++ {
			res = app.RunDetectionScenario(app.NewSoftwareDetector(5, 5))
		}
		report(b, res.DeadlockFound, float64(res.AppCycles), res.AvgDetectCycles)
	})
}

// ---- Tables 6-7 / Figure 16: grant deadlock avoidance ----

func BenchmarkTable7GdlAvoidance(b *testing.B) {
	b.Run("DAU", func(b *testing.B) {
		var res app.AvoidanceResult
		for i := 0; i < b.N; i++ {
			res = app.RunGrantDeadlockScenario(hwBackend(b))
		}
		report(b, res.GDlAvoided, float64(res.AppCycles), res.AvgAlgCycles)
	})
	b.Run("DAA-software", func(b *testing.B) {
		var res app.AvoidanceResult
		for i := 0; i < b.N; i++ {
			res = app.RunGrantDeadlockScenario(swBackend(b))
		}
		report(b, res.GDlAvoided, float64(res.AppCycles), res.AvgAlgCycles)
	})
}

// ---- Tables 8-9 / Figure 17: request deadlock avoidance ----

func BenchmarkTable9RdlAvoidance(b *testing.B) {
	b.Run("DAU", func(b *testing.B) {
		var res app.AvoidanceResult
		for i := 0; i < b.N; i++ {
			res = app.RunRequestDeadlockScenario(hwBackend(b))
		}
		report(b, res.RDlAvoided, float64(res.AppCycles), res.AvgAlgCycles)
	})
	b.Run("DAA-software", func(b *testing.B) {
		var res app.AvoidanceResult
		for i := 0; i < b.N; i++ {
			res = app.RunRequestDeadlockScenario(swBackend(b))
		}
		report(b, res.RDlAvoided, float64(res.AppCycles), res.AvgAlgCycles)
	})
}

// ---- Table 10 / Figures 18-20: robot application ----

func BenchmarkTable10Robot(b *testing.B) {
	b.Run("RTOS5-software", func(b *testing.B) {
		var res app.RobotResult
		for i := 0; i < b.N; i++ {
			res = app.RunRobotScenario(app.NewRTOS5Locks, false)
		}
		b.ReportMetric(float64(res.OverallCycles), "sim-cycles")
		b.ReportMetric(res.LockLatency, "lock-latency")
		b.ReportMetric(res.LockDelay, "lock-delay")
	})
	b.Run("RTOS6-SoCLC", func(b *testing.B) {
		var res app.RobotResult
		for i := 0; i < b.N; i++ {
			res = app.RunRobotScenario(app.NewRTOS6Locks, false)
		}
		b.ReportMetric(float64(res.OverallCycles), "sim-cycles")
		b.ReportMetric(res.LockLatency, "lock-latency")
		b.ReportMetric(res.LockDelay, "lock-delay")
	})
}

// ---- Tables 11-12: SPLASH-2 kernels ----

func BenchmarkTable11Splash(b *testing.B) {
	splashBench(b, "glibc", app.NewGlibcAllocator)
}

func BenchmarkTable12Splash(b *testing.B) {
	splashBench(b, "SoCDMMU", app.NewSoCDMMUAllocator)
}

func splashBench(b *testing.B, tag string, mk func() socdmmu.Allocator) {
	kernels := []struct {
		name string
		run  func(func() socdmmu.Allocator, ...app.Option) app.SplashResult
	}{
		{"LU", app.RunLU}, {"FFT", app.RunFFT}, {"RADIX", app.RunRadix},
	}
	for _, k := range kernels {
		k := k
		b.Run(k.name+"-"+tag, func(b *testing.B) {
			var res app.SplashResult
			for i := 0; i < b.N; i++ {
				res = k.run(mk)
			}
			if !res.Verified {
				b.Fatalf("%s output verification failed", k.name)
			}
			b.ReportMetric(float64(res.TotalCycles), "sim-cycles")
			b.ReportMetric(float64(res.MgmtCycles), "mgmt-cycles")
			b.ReportMetric(res.MgmtPercent, "mgmt-%")
		})
	}
}

// ---- Extension: parallel RADIX scaling (ext-parallel) ----

func BenchmarkExtParallelRadix(b *testing.B) {
	for _, pes := range []int{1, 2, 4} {
		pes := pes
		b.Run("PEs-"+itoa(pes), func(b *testing.B) {
			var res app.ParallelResult
			for i := 0; i < b.N; i++ {
				res = app.RunRadixParallel(app.NewSoCDMMUAllocator, pes)
			}
			if !res.Verified {
				b.Fatal("parallel radix output wrong")
			}
			b.ReportMetric(float64(res.TotalCycles), "sim-cycles")
			b.ReportMetric(res.Speedup, "speedup")
		})
	}
}

// ---- Figures 11-13: algorithm micro-benchmarks ----

func BenchmarkFig12TerminalReduction(b *testing.B) {
	for _, size := range []int{5, 10, 50} {
		size := size
		g := rag.Chain(size, size)
		b.Run(sizeName(size, size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mx := g.Matrix()
				pdda.Reduce(mx)
			}
		})
	}
}

func BenchmarkFig13DDUDetect(b *testing.B) {
	u, err := ddu.New(ddu.Config{Procs: 50, Resources: 50})
	if err != nil {
		b.Fatal(err)
	}
	g := rag.Chain(50, 50)
	b.ReportAllocs()
	res, err := u.DetectGraph(g) // warm the unit's scratch
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ = u.DetectGraph(g)
	}
	b.ReportMetric(float64(res.Steps), "hw-steps")
}

// ---- Bitset engine vs per-cell engine across geometries ----
//
// The word-parallel kernel against the per-cell reference engine at 64x64,
// 1kx1k and 16kx16k: /cell reduces a copy of the state matrix, /bitset
// runs the zero-allocation graph scan every detector takes
// (pdda.DetectGraphInto: the occupied-row fill, the reduction and the
// emptiness test).
// Request density scales down with n so per-row request degree stays
// realistic at 16k; the cell engine scans every cell per pass regardless of
// density, and holds one byte per cell, so the 16kx16k /cell point
// allocates about 268 MB per op (skipped under -short).  At grant density 0.7 about 70% of the rows hold an edge.  The
// tiles point is the detect_churn shape instead: 64 independent 16x12 tiles
// on the diagonal of a 1024x768 matrix, about a fifth of the rows live and
// k = 2, where the live-row kernel skips most of the matrix.
var bitsetPoints = []struct {
	label string
	graph func() *rag.Graph
}{
	{"64x64", func() *rag.Graph { return rag.Random(det.New(1), 64, 64, 0.7, 0.15) }},
	{"1kx1k", func() *rag.Graph { return rag.Random(det.New(1), 1024, 1024, 0.7, 0.02) }},
	{"16kx16k", func() *rag.Graph { return rag.Random(det.New(1), 16384, 16384, 0.7, 0.002) }},
	{"tiles64x16x12", func() *rag.Graph { return rag.BlockDiagonal(det.New(1), 64, 16, 12, 0.1, 0.01) }},
}

func BenchmarkBitsetReduce(b *testing.B) {
	for _, pt := range bitsetPoints {
		pt := pt
		b.Run(pt.label, func(b *testing.B) {
			if pt.label == "16kx16k" && testing.Short() {
				b.Skip("16k cell sweep takes seconds per op")
			}
			g := pt.graph()
			pristine := g.Matrix()
			work := pristine.Clone()
			b.Run("cell", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					work.CopyFrom(pristine)
					pdda.ReduceCells(work)
				}
			})
			b.Run("bitset", func(b *testing.B) {
				var sc pdda.Scratch
				b.ReportAllocs()
				pdda.DetectGraphInto(&sc, g)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pdda.DetectGraphInto(&sc, g)
				}
			})
		})
	}
}

// BenchmarkAvoidRequest measures the avoidance layer on the detect_churn
// shape: a daa.Avoider and a dau.Unit of the tiles64x16x12 size, holding
// the grants and the requests of that graph as far as avoidance lets them,
// run one hand-off cycle per op.  Idle p1 requests a resource idle p0
// holds (pending), p0 releases it to p1, p1 releases it and p0 takes it
// back: four commands and three detection probes on the whole tracked
// graph.  The allocs/op column must read 0.
func BenchmarkAvoidRequest(b *testing.B) {
	for _, pt := range bitsetPoints {
		if pt.label != "tiles64x16x12" {
			continue
		}
		g := pt.graph()
		m, n := g.Size()
		b.Run(pt.label+"/daa", func(b *testing.B) {
			a, err := daa.New(daa.Config{Procs: n, Resources: m})
			if err != nil {
				b.Fatal(err)
			}
			benchAvoidCycle(b, g, a.Graph(), func(p int) { a.SetPriority(p, daa.Priority(p)) },
				func(p, q int) error { _, err := a.Request(p, q); return err },
				func(p, q int) (int, error) { r, err := a.Release(p, q); return r.GrantedTo, err })
		})
		b.Run(pt.label+"/dau", func(b *testing.B) {
			u, err := dau.New(dau.Config{Procs: n, Resources: m})
			if err != nil {
				b.Fatal(err)
			}
			benchAvoidCycle(b, g, u.Avoider().Graph(), func(p int) { u.SetPriority(p, daa.Priority(p)) },
				func(p, q int) error { _, _, err := u.Request(p, q); return err },
				func(p, q int) (int, error) { st, _, err := u.Release(p, q); return st.GrantedTo, err })
		})
	}
}

// benchAvoidCycle loads g's grants, then its requests, into an avoidance
// front end whose tracked graph is tracked, and times the hand-off cycle
// of BenchmarkAvoidRequest on the first free, unrequested resource and two
// processes that hold and request nothing.
func benchAvoidCycle(b *testing.B, g, tracked *rag.Graph, prio func(p int),
	request func(p, q int) error, release func(p, q int) (int, error)) {
	m, n := g.Size()
	for p := 0; p < n; p++ {
		prio(p)
	}
	for s := 0; s < m; s++ {
		if h := g.Holder(s); h != -1 {
			if err := request(h, s); err != nil {
				b.Fatal(err)
			}
		}
	}
	for s := 0; s < m; s++ {
		for _, p := range g.Requesters(s) {
			if tracked.Holder(s) != p {
				if err := request(p, s); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	q := 0
	for tracked.Holder(q) != -1 || len(tracked.Requesters(q)) > 0 {
		q++
	}
	var idle []int
	for p := 0; p < n && len(idle) < 2; p++ {
		if len(tracked.HeldBy(p)) == 0 && len(tracked.RequestedBy(p)) == 0 {
			idle = append(idle, p)
		}
	}
	p0, p1 := idle[0], idle[1]
	cycle := func() {
		if err := request(p1, q); err != nil {
			b.Fatal(err)
		}
		if to, err := release(p0, q); err != nil || to != p1 {
			b.Fatalf("release by p%d handed q%d to p%d, %v; want p%d", p0+1, q+1, to+1, err, p1+1)
		}
		if _, err := release(p1, q); err != nil {
			b.Fatal(err)
		}
		if err := request(p0, q); err != nil {
			b.Fatal(err)
		}
	}
	if err := request(p0, q); err != nil {
		b.Fatal(err)
	}
	cycle() // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// ---- Ablation: DAU livelock threshold sensitivity ----

func BenchmarkAblationDAULivelockThreshold(b *testing.B) {
	for _, thr := range []int{1, 3, 6} {
		thr := thr
		b.Run(thresholdName(thr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u, err := dau.New(dau.Config{Procs: 4, Resources: 4, LivelockThreshold: thr})
				if err != nil {
					b.Fatal(err)
				}
				driveContention(b, u)
			}
		})
	}
}

// driveContention replays a short high-contention command tape.
func driveContention(b *testing.B, u *dau.Unit) {
	for p := 0; p < 4; p++ {
		u.SetPriority(p, daa.Priority(4-p)) // inverted priorities provoke give-ups
	}
	rng := det.New(99)
	for step := 0; step < 120; step++ {
		p, q := rng.Intn(4), rng.Intn(4)
		if u.Holder(q) == p {
			if _, _, err := u.Release(p, q); err != nil {
				b.Fatal(err)
			}
			continue
		}
		st, _, err := u.Request(p, q)
		if err != nil {
			b.Fatal(err)
		}
		if st.GiveUp {
			for _, h := range u.Avoider().Graph().HeldBy(p) {
				if _, _, err := u.Release(p, h); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// ---- helpers ----

func sizeName(p, r int) string {
	return itoa(p) + "x" + itoa(r)
}

func thresholdName(t int) string { return "threshold-" + itoa(t) }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf []byte
	for v > 0 {
		buf = append([]byte{byte('0' + v%10)}, buf...)
		v /= 10
	}
	return string(buf)
}

func report(b *testing.B, ok bool, appCycles, algCycles float64) {
	b.Helper()
	if !ok {
		b.Fatal("scenario outcome check failed")
	}
	b.ReportMetric(appCycles, "sim-cycles")
	b.ReportMetric(algCycles, "alg-cycles")
}

func hwBackend(b *testing.B) app.AvoidanceBackend {
	be, err := app.NewHardwareAvoidance(5, 5)
	if err != nil {
		b.Fatal(err)
	}
	return be
}

func swBackend(b *testing.B) app.AvoidanceBackend {
	be, err := app.NewSoftwareAvoidance(5, 5)
	if err != nil {
		b.Fatal(err)
	}
	return be
}

// ---- Campaign engine / sim hot path ----

// BenchmarkSimDispatch measures the cost of one scheduled timer event:
// push + pop on the event heap plus the coroutine resume and yield.  The
// acceptance gate is 0 allocs/op — the de-boxed heap must not allocate in
// steady state.
func BenchmarkSimDispatch(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	s.Spawn("bench", 0, func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(1)
		}
	})
	b.ResetTimer()
	s.Run()
}

// BenchmarkSimSpawn measures the life of one one-shot timer proc — Spawn,
// one Delay, done — the shape the rtos kernel spawns per Compute chunk,
// sleep, IPC timeout and watchdog.  A spawner proc starts one per op, so
// ns/op also holds one spawner dispatch (see BenchmarkSimDispatch); every
// allocation is the spawn layer's.
func BenchmarkSimSpawn(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	timer := func(p *sim.Proc) { p.Delay(1) }
	s.Spawn("spawner", 0, func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			s.Spawn("timer", -1, timer)
			p.Delay(2)
		}
	})
	b.ResetTimer()
	s.Run()
}

// ---- Fuzz sweep: per-seed phases ----

// BenchmarkFuzzSeed times each per-seed phase of the lock and IPC fuzz
// sweeps on its own.  One op is one seed: the phase cycles through 16
// seeds at every DefaultSweep (m = 256…8) or DefaultIPCSweep (drop
// 0…0.3) point, so ns/op and allocs/op are per-seed means over the whole
// contention or message-loss axis.  A phase's inputs come from the phases
// before it, built outside the timer; exec runs the deep per-scan oracle
// on the seeds the sweep samples (every OracleEvery-th), and lint_check
// round-trips every seed through the lockorder and claims passes (a sweep
// lint-checks only the first LintSample seeds of each point).  As in a
// sweep chunk, the generate, derive, exec and banker_diff phases run on one
// ExecScratch per point and the ipc_* phases share one IPCScratch across
// all seeds; every phase but lint_check is warmed by a pass over all of its
// seeds before the timer starts.
func BenchmarkFuzzSeed(b *testing.B) {
	const seedsPerPoint = 16
	type lockSeed struct {
		seed uint64
		gen  fuzz.GenConfig
		deep bool
		sc   *fuzz.Scenario
		st   *fuzz.Static
		es   *fuzz.ExecScratch // the point's
	}
	type ipcSeed struct {
		seed uint64
		gen  fuzz.IPCGenConfig
		sc   *fuzz.IPCScenario
		st   *fuzz.IPCStatic
	}
	var locks []lockSeed
	sw := fuzz.DefaultSweep(seedsPerPoint, 1)
	scratch := make([]fuzz.ExecScratch, len(sw.Points))
	for p, pt := range sw.Points {
		for k := 0; k < seedsPerPoint; k++ {
			ls := lockSeed{seed: sw.BaseSeed + uint64(p*seedsPerPoint+k), gen: pt.Gen, deep: k%sw.OracleEvery == 0, es: &scratch[p]}
			sc, err := fuzz.Generate(ls.seed, ls.gen)
			if err != nil {
				b.Fatal(err)
			}
			ls.sc, ls.st = sc, fuzz.Derive(sc)
			locks = append(locks, ls)
		}
	}
	var ipcs []ipcSeed
	isw := fuzz.DefaultIPCSweep(seedsPerPoint, 1)
	for p, pt := range isw.Points {
		for k := 0; k < seedsPerPoint; k++ {
			is := ipcSeed{seed: isw.BaseSeed + uint64(p*seedsPerPoint+k), gen: pt.Gen}
			sc, err := fuzz.GenerateIPC(is.seed, is.gen)
			if err != nil {
				b.Fatal(err)
			}
			is.sc, is.st = sc, fuzz.DeriveIPC(sc)
			ipcs = append(ipcs, is)
		}
	}

	var is fuzz.IPCScratch
	phases := []struct {
		name string
		warm int // untimed runs first, one per seed of the phase, as a chunk's scratch is warm (0: cold)
		run  func(b *testing.B, i int)
	}{
		{"generate", len(locks), func(b *testing.B, i int) {
			s := &locks[i%len(locks)]
			if _, err := fuzz.GenerateWith(s.es, s.seed, s.gen); err != nil {
				b.Fatal(err)
			}
		}},
		{"derive", len(locks), func(b *testing.B, i int) {
			s := &locks[i%len(locks)]
			fuzz.DeriveWith(s.es, s.sc)
		}},
		{"exec", len(locks), func(b *testing.B, i int) {
			s := &locks[i%len(locks)]
			if res := fuzz.ExecWith(s.es, s.sc, s.st, s.deep); res.MismatchAt != "" {
				b.Fatal(res.MismatchAt)
			}
		}},
		{"banker_diff", len(locks), func(b *testing.B, i int) {
			s := &locks[i%len(locks)]
			if bd := fuzz.BankerDiffWith(s.es, s.sc, s.st); bd.Mismatch != "" {
				b.Fatal(bd.Mismatch)
			}
		}},
		{"lint_check", 0, func(b *testing.B, i int) {
			s := &locks[i%len(locks)]
			if mismatch, err := fuzz.LintCheck(s.sc, s.st); err != nil || mismatch != "" {
				b.Fatal(err, mismatch)
			}
		}},
		{"ipc_generate", len(ipcs), func(b *testing.B, i int) {
			s := &ipcs[i%len(ipcs)]
			if _, err := fuzz.GenerateIPCWith(&is, s.seed, s.gen); err != nil {
				b.Fatal(err)
			}
		}},
		{"ipc_derive", len(ipcs), func(b *testing.B, i int) { fuzz.DeriveIPCWith(&is, ipcs[i%len(ipcs)].sc) }},
		{"ipc_exec", len(ipcs), func(b *testing.B, i int) {
			s := &ipcs[i%len(ipcs)]
			if res := fuzz.ExecIPCWith(&is, s.sc, s.st); res.MismatchAt != "" {
				b.Fatal(res.MismatchAt)
			}
		}},
	}
	for _, ph := range phases {
		b.Run(ph.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := range ph.warm {
				ph.run(b, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ph.run(b, i)
			}
		})
	}
}

// ---- Deltalint: full-module static analysis ----

// BenchmarkDeltalint runs every analysis pass over the whole module, the
// same work `make lint` does.  The load is measured too (it dominates a cold
// run), so one iteration is one end-to-end lint; the CI budget for the whole
// thing is well under 30s.
func BenchmarkDeltalint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pkgs, err := framework.LoadModule(".", "./...")
		if err != nil {
			b.Fatal(err)
		}
		diags, err := framework.Run(pkgs, passes.All())
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("lint tree not clean: %d finding(s), first: %s", len(diags), diags[0].Message)
		}
	}
}

// TestDeltalintTimeBudget guards `make lint`'s wall clock: one full-module
// lint (load plus all ten passes, the BenchmarkDeltalint body) must come
// out clean and, when DELTALINT_BUDGET_MS is set, finish inside that many
// milliseconds.  `make lint` sets it to 3400 ms — roughly twice the
// pre-summary-engine seed time — unless the caller chose a budget, so the
// interprocedural layer cannot quietly regress the merge gate, while a
// plain `go test ./...` checks only that the lint is clean and does not
// depend on how fast the machine is.  Race-detector builds multiply the
// budget by 6: the instrumentation slows type-checking and the passes
// several-fold, and the budget guards the uninstrumented merge gate.
func TestDeltalintTimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("a full-module lint is not run under -short")
	}
	var budget time.Duration
	if s := os.Getenv("DELTALINT_BUDGET_MS"); s != "" {
		ms, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("DELTALINT_BUDGET_MS=%q: %v", s, err)
		}
		budget = time.Duration(ms) * time.Millisecond
		if raceEnabled {
			budget *= 6
		}
	}
	start := time.Now()
	pkgs, err := framework.LoadModule(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := framework.Run(pkgs, passes.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("lint tree not clean: %d finding(s), first: %s", len(diags), diags[0].Message)
	}
	if elapsed := time.Since(start); budget > 0 && elapsed > budget {
		t.Errorf("full-module deltalint took %v, over the %v budget (override with DELTALINT_BUDGET_MS)", elapsed, budget)
	}
}
