package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"deltartos/internal/det"
	"deltartos/internal/pdda"
	"deltartos/internal/rag"
)

// TestGenerateDeterministic: equal (seed, config) pairs yield byte-identical
// scenarios — the contract everything else (replay, parallel sweeps, witness
// reproduction) stands on.
func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	for seed := uint64(1); seed <= 50; seed++ {
		a, err := Generate(seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("seed %d: two generations differ:\n%s\nvs\n%s", seed, a, b)
		}
		if EmitGo(a, Derive(a)) != EmitGo(b, Derive(b)) {
			t.Fatalf("seed %d: emitted Go differs between generations", seed)
		}
	}
}

// TestGeneratorSoundness: every generated program obeys stack discipline —
// acquires only non-held resources within the depth bound, releases only the
// innermost held lock, ids in range — and the fault overlay is consistent
// (Lost matches the locks still held at program end, CrashAt indexes a real
// op).
func TestGeneratorSoundness(t *testing.T) {
	cfgs := []GenConfig{DefaultGenConfig()}
	tight := DefaultGenConfig()
	tight.Resources = 4
	tight.MaxDepth = 3
	tight.Hotspot = 2
	tight.PLostRelease = 0.2
	tight.PCrash = 0.2
	cfgs = append(cfgs, tight)

	for _, cfg := range cfgs {
		for seed := uint64(0); seed < 200; seed++ {
			sc, err := Generate(seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(sc.Progs) != cfg.Tasks {
				t.Fatalf("seed %d: %d programs, want %d", seed, len(sc.Progs), cfg.Tasks)
			}
			for ti, prog := range sc.Progs {
				held := map[int]bool{}
				var stack []int
				acquires := 0
				for pc, op := range prog.Ops {
					if op.Res < 0 || op.Res >= cfg.Resources {
						t.Fatalf("seed %d task %d op %d: resource %d out of range", seed, ti, pc, op.Res)
					}
					if op.Acquire {
						if held[op.Res] {
							t.Fatalf("seed %d task %d: re-acquires held q%d", seed, ti, op.Res)
						}
						if len(stack) >= cfg.MaxDepth {
							t.Fatalf("seed %d task %d: nesting depth %d exceeds MaxDepth %d",
								seed, ti, len(stack)+1, cfg.MaxDepth)
						}
						held[op.Res] = true
						stack = append(stack, op.Res)
						acquires++
					} else {
						// Releases target held locks; with lost releases the
						// released lock need not be the innermost, but it must
						// be on the stack.
						if !held[op.Res] {
							t.Fatalf("seed %d task %d: releases unheld q%d", seed, ti, op.Res)
						}
						held[op.Res] = false
						found := false
						for i := len(stack) - 1; i >= 0; i-- {
							if stack[i] == op.Res {
								stack = append(stack[:i], stack[i+1:]...)
								found = true
								break
							}
						}
						if !found {
							t.Fatalf("seed %d task %d: release q%d not on stack", seed, ti, op.Res)
						}
					}
				}
				if acquires > cfg.Ops {
					t.Fatalf("seed %d task %d: %d acquires, budget %d", seed, ti, acquires, cfg.Ops)
				}
				if len(stack) != prog.Lost {
					t.Fatalf("seed %d task %d: %d locks held at end but Lost=%d",
						seed, ti, len(stack), prog.Lost)
				}
				if prog.CrashAt < -1 || prog.CrashAt >= len(prog.Ops) {
					t.Fatalf("seed %d task %d: CrashAt=%d with %d ops", seed, ti, prog.CrashAt, len(prog.Ops))
				}
			}
		}
	}
}

// TestExecInvariants runs a contended parameter point with the deep oracle
// on every seed: no PDDA-vs-HasCycle disagreement, no matrix validation
// failure, no runtime deadlock outside the static cycle prediction, no
// claim-set escape — and detection latency bounded by the scan period.
func TestExecInvariants(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Resources = 6
	deadlocks := 0
	for seed := uint64(0); seed < 500; seed++ {
		sc, err := Generate(seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := Derive(sc)
		res := Exec(sc, st, true)
		if res.MismatchAt != "" {
			t.Fatalf("invariant violation: %s\n%s", res.MismatchAt, sc)
		}
		if res.Outcome == Deadlocked {
			deadlocks++
			lat := res.DetectRound - res.FormRound
			if lat < 0 || lat >= cfg.DetectEvery {
				t.Fatalf("seed %d: detection latency %d outside [0,%d)", seed, lat, cfg.DetectEvery)
			}
			if res.CycleLen < 2 {
				// Generated tasks never request a lock they hold, so every
				// runtime cycle involves at least two processes.
				t.Fatalf("seed %d: witness cycle of %d processes", seed, res.CycleLen)
			}
		}
		if res.Outcome == FuseExceeded {
			t.Fatalf("seed %d: fuse exceeded — executor failed to quiesce:\n%s", seed, sc)
		}
	}
	if deadlocks == 0 {
		t.Fatal("contended point produced no deadlocks; the invariant checks never ran hot")
	}
}

// TestBlockedRoundsWithinStaticBound fuzzes the abstract analogue of the
// blocking pass's theorem: on a completed run whose static lock-order graph
// is acyclic, no task may spend more rounds blocked than the other tasks'
// total step budget plus one detection period.  The bound itself is asserted
// inside Exec (it surfaces as a MismatchAt); this test drives it across two
// contention points for at least a thousand seeds each and checks the
// invariant actually ran hot on statically acyclic completed runs.
func TestBlockedRoundsWithinStaticBound(t *testing.T) {
	// Two low-contention points: the default config's contended points are
	// almost always statically cyclic, which would leave the bound untested.
	for _, p := range []struct{ tasks, resources int }{{4, 16}, {6, 24}} {
		cfg := DefaultGenConfig()
		cfg.Tasks = p.tasks
		cfg.Resources = p.resources
		acyclicCompleted, blockedRuns := 0, 0
		for seed := uint64(0); seed < 1000; seed++ {
			sc, err := Generate(seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := Derive(sc)
			res := Exec(sc, st, false)
			if res.MismatchAt != "" {
				t.Fatalf("tasks=%d resources=%d: invariant violation: %s\n%s",
					p.tasks, p.resources, res.MismatchAt, sc)
			}
			if res.Outcome == Completed && !st.HasCycle() {
				acyclicCompleted++
				if res.Blocked > 0 {
					blockedRuns++
				}
			}
		}
		if acyclicCompleted == 0 {
			t.Fatalf("tasks=%d resources=%d: no statically acyclic run completed; the blocking bound never applied",
				p.tasks, p.resources)
		}
		if blockedRuns == 0 {
			t.Fatalf("tasks=%d resources=%d: no acyclic completed run ever blocked; the bound check is vacuous",
				p.tasks, p.resources)
		}
	}
}

// TestPDDAMatchesOracle cross-checks the terminal reduction against the DFS
// oracle on dense random graphs up to 256x256 — far beyond the shapes the
// executor produces.
func TestPDDAMatchesOracle(t *testing.T) {
	sizes := []struct{ m, n int }{{16, 12}, {64, 64}, {128, 96}, {256, 256}}
	rng := det.New(0xfacade)
	for _, sz := range sizes {
		for i := 0; i < 25; i++ {
			g := rag.Random(rng, sz.m, sz.n, 0.4, 0.08)
			if err := g.Matrix().Validate(); err != nil {
				t.Fatalf("%dx%d #%d: %v", sz.m, sz.n, i, err)
			}
			got, _ := pdda.DetectGraph(g)
			if want := g.HasCycle(); got != want {
				t.Fatalf("%dx%d #%d: pdda=%v, oracle=%v", sz.m, sz.n, i, got, want)
			}
		}
	}
}

// TestLintRoundTrip emits scenarios as Go source and checks deltalint's
// real lockorder and claims passes agree with the direct derivation.
func TestLintRoundTrip(t *testing.T) {
	lintRoundTrip(t)
}

// LintCheck loads its emitted source through the loader's overlay, so it
// works with TMPDIR pointing at a directory that does not exist.
func TestLintCheckNeedsNoTempDir(t *testing.T) {
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	lintRoundTrip(t)
}

// lintRoundTrip lint-checks five seeds each of a contended and a sparse
// configuration, which between them give both verdicts.
func lintRoundTrip(t *testing.T) {
	t.Helper()
	contended := DefaultGenConfig()
	contended.Resources = 6
	sparse := DefaultGenConfig()
	sparse.Tasks = 3
	sparse.Ops = 2
	sawCycle, sawAcyclic := false, false
	for _, cfg := range []GenConfig{contended, sparse} {
		for seed := uint64(0); seed < 5; seed++ {
			sc, err := Generate(seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := Derive(sc)
			if st.HasCycle() {
				sawCycle = true
			} else {
				sawAcyclic = true
			}
			mismatch, err := LintCheck(sc, st)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if mismatch != "" {
				t.Fatalf("lint round-trip disagrees: %s\n%s", mismatch, sc)
			}
		}
	}
	if !sawCycle || !sawAcyclic {
		t.Fatalf("sample covered only one verdict (cycle=%v acyclic=%v); widen the seed range",
			sawCycle, sawAcyclic)
	}
}

// TestSweepParallelByteIdentical: the full report — counters, histograms,
// witnesses — is byte-identical at any worker count, and the curve behaves:
// deadlock probability rises with contention and is bounded above by the
// static cycle probability at every point.
func TestSweepParallelByteIdentical(t *testing.T) {
	low := DefaultGenConfig()
	low.Resources = 24
	high := DefaultGenConfig()
	high.Resources = 6
	sw := Sweep{
		Points:      []Point{{Label: "m=24", Gen: low}, {Label: "m=6", Gen: high}},
		Seeds:       192,
		BaseSeed:    7,
		OracleEvery: 8,
		LintSample:  1,
		ChunkSize:   32,
	}
	var base []byte
	for _, workers := range []int{1, 3, 8} {
		rep, err := RunSweep(sw, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = out
		} else if !bytes.Equal(base, out) {
			t.Fatalf("workers=%d: report differs from sequential run", workers)
		}
	}

	var rep Report
	if err := json.Unmarshal(base, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("%d points, want 2", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.Seeds != sw.Seeds {
			t.Fatalf("point %s aggregated %d seeds, want %d", p.Label, p.Seeds, sw.Seeds)
		}
		if p.DeadlockProbability > p.StaticCycleProbability {
			t.Fatalf("point %s: runtime deadlock probability %.4f exceeds static bound %.4f",
				p.Label, p.DeadlockProbability, p.StaticCycleProbability)
		}
		if p.Mismatches != 0 {
			t.Fatalf("point %s: %d mismatches: %s", p.Label, p.Mismatches, p.FirstMismatch)
		}
		if p.LintChecked != sw.LintSample {
			t.Fatalf("point %s: lint-checked %d seeds, want %d", p.Label, p.LintChecked, sw.LintSample)
		}
	}
	if rep.Points[1].DeadlockProbability <= rep.Points[0].DeadlockProbability {
		t.Fatalf("contention curve flat or inverted: P(m=6)=%.4f <= P(m=24)=%.4f",
			rep.Points[1].DeadlockProbability, rep.Points[0].DeadlockProbability)
	}
}

// TestLatBucket pins the power-of-two histogram mapping.
func TestLatBucket(t *testing.T) {
	cases := []struct{ lat, bucket int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 16, 17}, {1 << 20, latBuckets - 1},
	}
	for _, c := range cases {
		if got := latBucket(c.lat); got != c.bucket {
			t.Errorf("latBucket(%d) = %d, want %d", c.lat, got, c.bucket)
		}
	}
}

// TestDefaultSweepShape pins the stock contention axis.
func TestDefaultSweepShape(t *testing.T) {
	sw := DefaultSweep(1000, 42)
	if len(sw.Points) != 8 {
		t.Fatalf("%d points, want 8", len(sw.Points))
	}
	prev := 0.0
	for _, p := range sw.Points {
		c := p.Gen.Contention()
		if c <= prev {
			t.Fatalf("contention axis not strictly rising at %s: %.3f after %.3f", p.Label, c, prev)
		}
		prev = c
		if err := p.Gen.validate(); err != nil {
			t.Fatalf("point %s: %v", p.Label, err)
		}
	}
}

// One ExecScratch carried through changing geometries — the DefaultSweep
// points m=256, 8 and 256 again, then a small point heavy with crashes and
// lost releases, then m=8 — must give every seed the scenario, static
// view, execution result and Banker replay the fresh wrappers give it.
func TestLockScratchReuseMatchesFresh(t *testing.T) {
	at := func(m int) GenConfig {
		cfg := DefaultGenConfig()
		cfg.Resources = m
		return cfg
	}
	heavy := DefaultGenConfig()
	heavy.Tasks, heavy.Resources, heavy.MaxDepth = 5, 6, 3
	heavy.PLostRelease, heavy.PCrash = 0.3, 0.4
	render := func(sc *Scenario, st *Static, res ExecResult, bd BankerDiffResult) string {
		out := sc.String()
		for t := range sc.Progs {
			out += fmt.Sprintf("claims p%d %v\n", t, st.Claims(t))
		}
		return out + fmt.Sprintf("edges %d cycle %v\nexec %+v\nbanker %+v\n", st.Edges(), st.HasCycle(), res, bd)
	}

	var es ExecScratch
	var first string // the first seed's fresh outputs, rendered
	var firstSc *Scenario
	var firstSt *Static
	var firstRes ExecResult
	var firstBd BankerDiffResult
	crashed, lost, deadlocked, decisions := 0, 0, 0, 0
	for round, cfg := range []GenConfig{at(256), at(8), at(256), heavy, at(8)} {
		for seed := uint64(0); seed < 64; seed++ {
			deep := seed%16 == 0
			fsc, err := Generate(seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fst := Derive(fsc)
			fres := Exec(fsc, fst, deep)
			fbd := BankerDiff(fsc, fst)
			want := render(fsc, fst, fres, fbd)
			if first == "" {
				first, firstSc, firstSt, firstRes, firstBd = want, fsc, fst, fres, fbd
			}

			sc, err := GenerateWith(&es, seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := DeriveWith(&es, sc)
			res := ExecWith(&es, sc, st, deep)
			bd := BankerDiffWith(&es, sc, st)
			if got := render(sc, st, res, bd); got != want {
				t.Fatalf("round %d seed %d: a reused scratch differs from a fresh one:\nreused\n%s\nfresh\n%s", round, seed, got, want)
			}
			if res.MismatchAt != "" || bd.Mismatch != "" {
				t.Fatalf("round %d seed %d: %s%s", round, seed, res.MismatchAt, bd.Mismatch)
			}
			for _, p := range sc.Progs {
				lost += p.Lost
				if p.CrashAt >= 0 {
					crashed++
				}
			}
			if res.Outcome == Deadlocked {
				deadlocked++
			}
			decisions += bd.Decisions
		}
	}
	if got := render(firstSc, firstSt, firstRes, firstBd); got != first {
		t.Errorf("later phases changed what the fresh wrappers returned:\nnow\n%s\nthen\n%s", got, first)
	}
	if crashed == 0 || lost == 0 || deadlocked == 0 || decisions == 0 {
		t.Errorf("%d crashes, %d lost releases, %d deadlocks, %d Banker decisions: the points do not exercise the phases",
			crashed, lost, deadlocked, decisions)
	}
}

// Once each point's scratch has grown to its seeds, as a sweep chunk's
// does, generating, deriving and replaying a seed through both Banker
// engines allocate nothing.
func TestLockScratchPhasesDoNotAllocate(t *testing.T) {
	sw := DefaultSweep(16, 1)
	scratch := make([]ExecScratch, len(sw.Points))
	var ran string
	pass := func() {
		for p, pt := range sw.Points {
			es := &scratch[p]
			for k := 0; k < sw.Seeds; k++ {
				sc, err := GenerateWith(es, sw.BaseSeed+uint64(p*sw.Seeds+k), pt.Gen)
				if err != nil {
					ran = err.Error()
					return
				}
				if bd := BankerDiffWith(es, sc, DeriveWith(es, sc)); bd.Mismatch != "" {
					ran = bd.Mismatch
					return
				}
			}
		}
	}
	pass()
	allocs := testing.AllocsPerRun(5, pass)
	if ran != "" {
		t.Fatal(ran)
	}
	if allocs > 0 {
		t.Errorf("%v allocations per pass over %d warm seeds, want 0", allocs, len(sw.Points)*sw.Seeds)
	}
}
