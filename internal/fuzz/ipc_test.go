package fuzz

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

func TestGenerateIPCDeterministic(t *testing.T) {
	cfg := DefaultIPCGenConfig()
	a, err := GenerateIPC(42, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenerateIPC(42, cfg)
	if len(a.Ops) != len(b.Ops) {
		t.Fatal("task counts differ")
	}
	for i := range a.Caps {
		if a.Caps[i] != b.Caps[i] {
			t.Fatalf("caps differ at channel %d", i)
		}
	}
	for t2 := range a.Ops {
		for i := range a.Ops[t2] {
			if a.Ops[t2][i] != b.Ops[t2][i] {
				t.Fatalf("op %d of task %d differs", i, t2)
			}
		}
	}
	c, _ := GenerateIPC(43, cfg)
	same := true
	for t2 := range a.Ops {
		if len(a.Ops[t2]) != len(c.Ops[t2]) {
			same = false
			continue
		}
		for i := range a.Ops[t2] {
			if a.Ops[t2][i] != c.Ops[t2][i] {
				same = false
			}
		}
	}
	if same {
		t.Error("seeds 42 and 43 generated identical programs")
	}
}

// Hand-built topologies pin the static derivation's semantics.
func TestDeriveIPCShapes(t *testing.T) {
	base := IPCGenConfig{Tasks: 2, Channels: 2, Ops: 2, MaxCap: 1, Fuse: 100}

	// Cross rendezvous: both send first on capacity-0 channels — a cycle.
	sc := &IPCScenario{Cfg: base, Caps: []int{0, 0}, Ops: [][]IPCOp{
		{{Send: true, Ch: 0}, {Ch: 1}},
		{{Send: true, Ch: 1}, {Ch: 0}},
	}}
	st := DeriveIPC(sc)
	if !st.Cyclic[0] || !st.Cyclic[1] || !st.Flagged[0] || !st.Flagged[1] {
		t.Errorf("cross rendezvous not fully flagged: %+v", st)
	}

	// Matched buffered pipeline: task 0 sends, task 1 receives, cap 1
	// suffices — nothing flagged.
	sc = &IPCScenario{Cfg: base, Caps: []int{1, 1}, Ops: [][]IPCOp{
		{{Send: true, Ch: 0}},
		{{Ch: 0}},
	}}
	if st = DeriveIPC(sc); st.FlagCount() != 0 {
		t.Errorf("matched pipeline flagged: %+v", st)
	}

	// Dropped send: the receive's only supply is lost in transit — the
	// receiver is count-flagged even though the topology looks matched.
	sc = &IPCScenario{Cfg: base, Caps: []int{1, 1}, Ops: [][]IPCOp{
		{{Send: true, Ch: 0, Dropped: true}},
		{{Ch: 0}},
	}}
	st = DeriveIPC(sc)
	if !st.CountFlagged[1] || !st.Flagged[1] {
		t.Errorf("drop-starved receiver not flagged: %+v", st)
	}
	if st.Flagged[0] {
		t.Errorf("sender of a dropped message wrongly flagged: %+v", st)
	}

	// Self-feeder that receives before its own send: a self-edge cycle.
	sc = &IPCScenario{Cfg: IPCGenConfig{Tasks: 1, Channels: 1, Ops: 2, MaxCap: 1, Fuse: 100},
		Caps: []int{1}, Ops: [][]IPCOp{
			{{Ch: 0}, {Send: true, Ch: 0}},
		}}
	st = DeriveIPC(sc)
	if !st.Cyclic[0] || !st.Flagged[0] {
		t.Errorf("self-feeder not flagged: %+v", st)
	}
}

func TestExecIPCWedgeAndCore(t *testing.T) {
	base := IPCGenConfig{Tasks: 2, Channels: 2, Ops: 2, MaxCap: 1, Fuse: 100}
	sc := &IPCScenario{Cfg: base, Caps: []int{0, 0}, Ops: [][]IPCOp{
		{{Send: true, Ch: 0}, {Ch: 1}},
		{{Send: true, Ch: 1}, {Ch: 0}},
	}}
	st := DeriveIPC(sc)
	res := ExecIPC(sc, st)
	if res.Outcome != Wedged {
		t.Fatalf("cross rendezvous outcome %v, want wedged", res.Outcome)
	}
	if len(res.Core) != 2 {
		t.Fatalf("core %v, want both tasks", res.Core)
	}
	if res.MismatchAt != "" {
		t.Fatalf("containment violated: %s", res.MismatchAt)
	}

	// Rendezvous pairing drains a matched pair.
	sc = &IPCScenario{Cfg: base, Caps: []int{0, 0}, Ops: [][]IPCOp{
		{{Send: true, Ch: 0}},
		{{Ch: 0}},
	}}
	st = DeriveIPC(sc)
	if res = ExecIPC(sc, st); res.Outcome != Completed {
		t.Fatalf("matched rendezvous outcome %v, want completed", res.Outcome)
	}
}

// The acceptance-criterion sweep: >= 1e4 seeds of random IPC topologies, the
// static flag set containing the runtime core on every one of them, with
// both outcomes represented and the static bound non-vacuous.
func TestIPCSweepContainmentAtScale(t *testing.T) {
	sw := DefaultIPCSweep(2100, 0x1bc5eed)
	rep, err := RunIPCSweep(sw, 4)
	if err != nil {
		t.Fatalf("containment broke: %v", err)
	}
	totalSeeds, wedged, completed := 0, 0, 0
	for _, p := range rep.Points {
		totalSeeds += p.Seeds
		wedged += p.Wedged
		completed += p.Completed
		if p.FuseExceeded > 0 {
			t.Errorf("point %s: %d runs hit the fuse; the executor should quiesce", p.Label, p.FuseExceeded)
		}
		if p.WedgeProbability > p.StaticFlagProbability {
			t.Errorf("point %s: wedge probability %.4f exceeds the static bound %.4f",
				p.Label, p.WedgeProbability, p.StaticFlagProbability)
		}
		if p.MeanFlaggedTasks > 0.9*float64(p.Gen.Tasks) {
			t.Errorf("point %s: mean flagged tasks %.2f of %d — the static set barely discriminates",
				p.Label, p.MeanFlaggedTasks, p.Gen.Tasks)
		}
	}
	if totalSeeds < 10_000 {
		t.Fatalf("swept %d seeds, want >= 1e4", totalSeeds)
	}
	if wedged == 0 {
		t.Error("no run wedged; the containment check proved nothing")
	}
	if completed == 0 {
		t.Error("no run completed; the generator only builds broken topologies")
	}
}

// Worker count must never change a byte of the report.
func TestIPCSweepParallelDeterminism(t *testing.T) {
	sw := DefaultIPCSweep(600, 7)
	sw.ChunkSize = 128
	r1, err := RunIPCSweep(sw, 1)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunIPCSweep(sw, 8)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := r1.JSON()
	j8, _ := r8.JSON()
	if !bytes.Equal(j1, j8) {
		t.Errorf("worker count changed the report:\n%s\n---\n%s", j1, j8)
	}
}

func TestIPCSweepValidation(t *testing.T) {
	if _, err := RunIPCSweep(IPCSweep{}, 1); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := RunIPCSweep(IPCSweep{Points: []IPCPoint{{Label: "x"}}, Seeds: 1}, 1); err == nil {
		t.Error("invalid gen config accepted")
	}
	if _, err := GenerateIPC(1, IPCGenConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

// Hand-built scenarios pin the delay/duplicate transit semantics: a delayed
// message holds its slot from the send but is invisible to receivers until
// it arrives, and a duplicate lands only when the buffer has a free slot.
func TestExecIPCDelayAndDup(t *testing.T) {
	base := IPCGenConfig{Tasks: 2, Channels: 1, Ops: 2, MaxCap: 2, Fuse: 100}

	// Delayed delivery: the receiver must idle until the message arrives,
	// then the run completes — in-flight messages are not quiescence.
	sc := &IPCScenario{Cfg: base, Caps: []int{1}, Ops: [][]IPCOp{
		{{Send: true, Ch: 0, Delay: 5}},
		{{Ch: 0}},
	}}
	st := DeriveIPC(sc)
	if st.FlagCount() != 0 {
		t.Errorf("delay-only pipeline statically flagged: %+v", st)
	}
	res := ExecIPC(sc, st)
	if res.Outcome != Completed || res.Delayed != 1 {
		t.Errorf("delayed pipeline: outcome %v delayed %d, want completed with 1 in-flight message", res.Outcome, res.Delayed)
	}
	if res.Rounds < 5 {
		t.Errorf("delayed pipeline finished in %d rounds; the 5-round transit cannot have been honored", res.Rounds)
	}

	// Duplicate with a free slot: the second copy lands and feeds the
	// second receive, so the nominally under-supplied program completes.
	sc = &IPCScenario{Cfg: base, Caps: []int{2}, Ops: [][]IPCOp{
		{{Send: true, Ch: 0, Dup: true}},
		{{Ch: 0}, {Ch: 0}},
	}}
	st = DeriveIPC(sc)
	// Static minimum supply excludes the dup, so the receiver stays
	// (soundly) flagged even though this schedule happens to complete.
	if !st.CountFlagged[1] {
		t.Errorf("dup-fed receiver not count-flagged against the minimum supply: %+v", st)
	}
	res = ExecIPC(sc, st)
	if res.Outcome != Completed || res.Duplicated != 1 {
		t.Errorf("dup-fed pipeline: outcome %v duplicated %d, want completed with 1 landed dup", res.Outcome, res.Duplicated)
	}
	if res.MismatchAt != "" {
		t.Errorf("containment violated: %s", res.MismatchAt)
	}

	// Duplicate on a full buffer is lost: capacity 1 leaves no slot for the
	// copy, the second receive starves, and the static derivation covers
	// the wedge because it never counted the dup as guaranteed supply.
	sc = &IPCScenario{Cfg: base, Caps: []int{1}, Ops: [][]IPCOp{
		{{Send: true, Ch: 0, Dup: true}},
		{{Ch: 0}, {Ch: 0}},
	}}
	st = DeriveIPC(sc)
	res = ExecIPC(sc, st)
	if res.Outcome != Wedged || res.Duplicated != 0 {
		t.Errorf("dup-on-full: outcome %v duplicated %d, want wedged with the dup lost", res.Outcome, res.Duplicated)
	}
	if len(res.Core) != 1 || res.Core[0] != 1 {
		t.Errorf("dup-on-full core %v, want the starved receiver", res.Core)
	}
	if res.MismatchAt != "" {
		t.Errorf("containment violated: %s", res.MismatchAt)
	}
}

// A config with the fault probabilities at zero must not consume any extra
// random draws: channel capacities and programs stay byte-identical to the
// pre-fault generator, and no op carries a delay or dup mark.
func TestGenerateIPCFaultDrawGating(t *testing.T) {
	plain := DefaultIPCGenConfig()
	sc, err := GenerateIPC(99, plain)
	if err != nil {
		t.Fatal(err)
	}
	for t2 := range sc.Ops {
		for _, op := range sc.Ops[t2] {
			if op.Delay != 0 || op.Dup {
				t.Fatalf("zero-probability config produced fault op %+v", op)
			}
		}
	}
	// The capacity draws precede the message loop, so they are identical
	// whatever the fault knobs say.
	faulty := plain
	faulty.PDelay, faulty.MaxDelay, faulty.PDup = 0.5, 3, 0.5
	sf, err := GenerateIPC(99, faulty)
	if err != nil {
		t.Fatal(err)
	}
	for c := range sc.Caps {
		if sc.Caps[c] != sf.Caps[c] {
			t.Fatalf("fault knobs changed the capacity stream at channel %d", c)
		}
	}
}

// The fault overlay keeps the two standing sweep invariants: the static
// flag set contains every runtime core, and the report is byte-identical
// at any worker width — asserted non-vacuously (faults actually fired).
func TestIPCFaultSweepContainmentAndParallelDeterminism(t *testing.T) {
	sw := FaultIPCSweep(900, 0xde1a7)
	sw.ChunkSize = 128
	r1, err := RunIPCSweep(sw, 1)
	if err != nil {
		t.Fatalf("containment broke under transit faults: %v", err)
	}
	r4, err := RunIPCSweep(sw, 4)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := r1.JSON()
	j4, _ := r4.JSON()
	if !bytes.Equal(j1, j4) {
		t.Errorf("worker count changed the fault-overlay report:\n%s\n---\n%s", j1, j4)
	}
	delayed, duplicated, wedged := 0, 0, 0
	for _, p := range r1.Points {
		delayed += p.DelayedSends
		duplicated += p.DuplicatedSends
		wedged += p.Wedged
		if p.FuseExceeded > 0 {
			t.Errorf("point %s: %d runs hit the fuse; delayed messages must still quiesce", p.Label, p.FuseExceeded)
		}
		if p.WedgeProbability > p.StaticFlagProbability {
			t.Errorf("point %s: wedge probability %.4f exceeds the static bound %.4f",
				p.Label, p.WedgeProbability, p.StaticFlagProbability)
		}
	}
	if delayed == 0 || duplicated == 0 {
		t.Errorf("fault overlay fired %d delays and %d dups; the sweep proved nothing", delayed, duplicated)
	}
	if wedged == 0 {
		t.Error("no run wedged under the fault overlay; the containment check proved nothing")
	}
}

// One IPCScratch carried through alternating geometries — many tasks and
// channels to few and back, transit faults on and off — must give every
// seed the scenario, static set and result of the fresh-scratch wrappers,
// and reusing it must not disturb what the wrappers returned earlier.
func TestIPCScratchReuseMatchesFresh(t *testing.T) {
	large := IPCGenConfig{Tasks: 12, Channels: 40, Ops: 6, PZeroCap: 0.25, MaxCap: 3, PDrop: 0.1,
		PDelay: 0.3, MaxDelay: 4, PDup: 0.25, Fuse: 10_000}
	small := IPCGenConfig{Tasks: 2, Channels: 1, Ops: 1, PZeroCap: 0.5, MaxCap: 1, Fuse: 10_000}
	largePlain := large
	largePlain.PDelay, largePlain.MaxDelay, largePlain.PDup = 0, 0, 0
	smallFaulty := small
	smallFaulty.PDelay, smallFaulty.MaxDelay, smallFaulty.PDup = 0.5, 2, 0.5
	render := func(v any) string { return fmt.Sprintf("%+v", v) }

	var is IPCScratch
	var first []string // the first seed's fresh outputs, rendered
	var firstSc *IPCScenario
	var firstSt *IPCStatic
	var firstRes IPCExecResult
	wedged, delayed, duplicated := 0, 0, 0
	for round, cfg := range []IPCGenConfig{large, small, largePlain, smallFaulty, large, DefaultIPCGenConfig(), large} {
		for seed := uint64(0); seed < 64; seed++ {
			fsc, err := GenerateIPC(seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fst := DeriveIPC(fsc)
			fres := ExecIPC(fsc, fst)
			if first == nil {
				firstSc, firstSt, firstRes = fsc, fst, fres
				first = []string{render(*fsc), render(*fst), render(fres)}
			}

			sc, err := GenerateIPCWith(&is, seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := DeriveIPCWith(&is, sc)
			res := ExecIPCWith(&is, sc, st)
			for _, c := range []struct{ what, fresh, reused string }{
				{"scenario", render(*fsc), render(*sc)},
				{"static set", render(*fst), render(*st)},
				{"result", render(fres), render(res)},
			} {
				if c.fresh != c.reused {
					t.Fatalf("round %d seed %d: %s with a reused scratch differs from a fresh one:\nreused %s\nfresh  %s",
						round, seed, c.what, c.reused, c.fresh)
				}
			}
			if res.Outcome == Wedged {
				wedged++
			}
			delayed += res.Delayed
			duplicated += res.Duplicated
		}
	}
	if got := []string{render(*firstSc), render(*firstSt), render(firstRes)}; !slices.Equal(got, first) {
		t.Errorf("later phases changed what the fresh wrappers returned:\nnow  %v\nthen %v", got, first)
	}
	if wedged == 0 || delayed == 0 || duplicated == 0 {
		t.Errorf("%d wedged runs, %d delays, %d dups: the geometries do not exercise the executor", wedged, delayed, duplicated)
	}
}

// Once a scratch has grown to the sweep's geometries, generating, deriving
// and executing a seed allocate nothing.
func TestIPCScratchPhasesDoNotAllocate(t *testing.T) {
	type seed struct {
		n   uint64
		gen IPCGenConfig
	}
	var seeds []seed
	for _, sw := range []IPCSweep{DefaultIPCSweep(16, 1), FaultIPCSweep(16, 1)} {
		for p, pt := range sw.Points {
			for k := 0; k < sw.Seeds; k++ {
				seeds = append(seeds, seed{sw.BaseSeed + uint64(p*sw.Seeds+k), pt.Gen})
			}
		}
	}
	var is IPCScratch
	var ran error
	allocs := testing.AllocsPerRun(5, func() {
		for _, s := range seeds {
			sc, err := GenerateIPCWith(&is, s.n, s.gen)
			if err != nil {
				ran = err
				return
			}
			ExecIPCWith(&is, sc, DeriveIPCWith(&is, sc))
		}
	})
	if ran != nil {
		t.Fatal(ran)
	}
	if allocs > 0 {
		t.Errorf("%v allocations per pass over %d warm seeds, want 0", allocs, len(seeds))
	}
}
