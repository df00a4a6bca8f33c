package dau

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"deltartos/internal/daa"
	"deltartos/internal/ddu"
	"deltartos/internal/rag"
	"deltartos/internal/verilog"
)

func mustUnit(t *testing.T, procs, res int) *Unit {
	t.Helper()
	u, err := New(Config{Procs: procs, Resources: res})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if err := (Config{Procs: -1, Resources: 3}).Validate(); err == nil {
		t.Error("negative procs accepted")
	}
}

func TestOpString(t *testing.T) {
	if OpRequest.String() != "request" || OpRelease.String() != "release" {
		t.Error("Op.String mismatch")
	}
}

func TestSimpleGrantAndRelease(t *testing.T) {
	u := mustUnit(t, 5, 5)
	st, steps, err := u.Request(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || !st.Successful || st.Pending || st.RDl || st.GDl {
		t.Errorf("grant status: %+v", st)
	}
	if steps < fsmBaseSteps {
		t.Errorf("steps = %d, want >= %d", steps, fsmBaseSteps)
	}
	if u.Holder(0) != 0 {
		t.Error("holder not tracked")
	}
	st, _, err = u.Release(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Successful || st.GrantedTo != -1 {
		t.Errorf("release status: %+v", st)
	}
}

func TestUnknownOpcode(t *testing.T) {
	u := mustUnit(t, 2, 2)
	if _, _, err := u.Exec(Command{Op: Op(9)}); err == nil {
		t.Error("unknown opcode accepted")
	}
}

func TestExecErrorPropagates(t *testing.T) {
	u := mustUnit(t, 2, 2)
	if _, _, err := u.Release(0, 0); err == nil {
		t.Error("release of unheld resource accepted")
	}
}

// Reproduce the G-dl scenario of Table 6 through the command interface.
func TestGdlScenarioThroughCommands(t *testing.T) {
	u := mustUnit(t, 5, 5)
	for p := 0; p < 5; p++ {
		u.SetPriority(p, daa.Priority(p+1))
	}
	mustOK := func(st Status, steps int, err error) Status {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if steps <= 0 {
			t.Fatal("non-positive step count")
		}
		return st
	}
	mustOK(u.Request(0, 0)) // t1
	mustOK(u.Request(0, 1))
	mustOK(u.Request(2, 3)) // t2
	st := mustOK(u.Request(2, 1))
	if !st.Pending {
		t.Fatalf("p3->q2 should pend: %+v", st)
	}
	mustOK(u.Request(1, 1)) // t3
	mustOK(u.Request(1, 3))
	mustOK(u.Release(0, 0)) // t4
	st = mustOK(u.Release(0, 1))
	if !st.GDl || st.GrantedTo != 2 {
		t.Fatalf("G-dl avoidance failed: %+v", st)
	}
	if u.Avoider().Deadlocked() {
		t.Error("DAU committed deadlock")
	}
	// t6..t8: p3 finishes, p2 runs.
	st = mustOK(u.Release(2, 1))
	if st.GrantedTo != 1 {
		t.Errorf("q2 should flow to p2: %+v", st)
	}
	st = mustOK(u.Release(2, 3))
	if st.GrantedTo != 1 {
		t.Errorf("q4 should flow to p2: %+v", st)
	}
	mustOK(u.Release(1, 1))
	mustOK(u.Release(1, 3))
	if u.Commands != 12 {
		t.Errorf("Commands = %d, want 12 (Table 7 invocation count)", u.Commands)
	}
}

// Reproduce the R-dl scenario of Table 8 through the command interface.
func TestRdlScenarioThroughCommands(t *testing.T) {
	u := mustUnit(t, 5, 5)
	for p := 0; p < 5; p++ {
		u.SetPriority(p, daa.Priority(p+1))
	}
	step := func(st Status, _ int, err error) Status {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	step(u.Request(0, 0))                         // t1: p1 gets q1
	step(u.Request(1, 1))                         // t2: p2 gets q2
	step(u.Request(2, 2))                         // t3: p3 gets q3
	if st := step(u.Request(1, 2)); !st.Pending { // t4
		t.Fatalf("p2->q3 should pend: %+v", st)
	}
	if st := step(u.Request(2, 0)); !st.Pending { // t5
		t.Fatalf("p3->q1 should pend: %+v", st)
	}
	// t6: p1 requests q2 -> R-dl; p1 outranks p2, so p2 is asked to release.
	st := step(u.Request(0, 1))
	if !st.RDl || !st.Pending || st.WhichProcess != 1 {
		t.Fatalf("R-dl handling: %+v", st)
	}
	// t7: p2 complies, releasing q2 which flows to p1.
	st = step(u.Release(1, 1))
	if st.GrantedTo != 0 {
		t.Fatalf("q2 should flow to p1: %+v", st)
	}
	if u.Avoider().Deadlocked() {
		t.Error("deadlock after compliance")
	}
	// p2 re-requests q2 (still owned by p1): pending.
	if st := step(u.Request(1, 1)); !st.Pending {
		t.Fatalf("p2 re-request should pend: %+v", st)
	}
	// t8: p1 finishes with q1, q2.
	if st := step(u.Release(0, 0)); st.GrantedTo != 2 {
		t.Fatalf("q1 should flow to p3: %+v", st)
	}
	if st := step(u.Release(0, 1)); st.GrantedTo != 1 {
		t.Fatalf("q2 should flow to p2: %+v", st)
	}
	// t9: p3 finishes with q1, q3.
	if st := step(u.Release(2, 0)); st.GrantedTo != -1 {
		t.Fatalf("q1 has no waiters now: %+v", st)
	}
	if st := step(u.Release(2, 2)); st.GrantedTo != 1 {
		t.Fatalf("q3 should flow to p2: %+v", st)
	}
	// t10: p2 finishes.
	step(u.Release(1, 1))
	step(u.Release(1, 2))
	if u.Commands != 14 {
		t.Errorf("Commands = %d, want 14 (Table 9 invocation count)", u.Commands)
	}
	if u.Avoider().Deadlocked() {
		t.Error("deadlock at scenario end")
	}
}

func TestStepAccountingIncludesDDU(t *testing.T) {
	u := mustUnit(t, 5, 5)
	u.SetPriority(0, 1)
	u.SetPriority(1, 2)
	_, s1, _ := u.Request(0, 0) // free grant: detection of tentative grant
	// A request that pends runs an R-dl detection: steps must exceed base.
	_, s2, err := u.Request(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2 <= fsmBaseSteps {
		t.Errorf("pending request steps = %d, want > fsm base (DDU charged)", s2)
	}
	if s1 <= 0 {
		t.Errorf("grant steps = %d", s1)
	}
}

// A warm DAU decides steady-state traffic without allocating: the avoider
// reuses its trial graph, the graph maps straight into the embedded DDU's
// cells and the DDU reduces in its own scratch (the hardware counterpart of
// daa's TestAvoidancePathsDoNotAllocate, on the same probe: a free grant,
// vetted by the DDU, and its release).
func TestRequestReleaseDoNotAllocate(t *testing.T) {
	u := mustUnit(t, 8, 16)
	probe := func() {
		if _, _, err := u.Request(0, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := u.Release(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	probe() // warm
	detections := u.dd.Detections
	if allocs := testing.AllocsPerRun(10, probe); allocs > 0 {
		t.Errorf("DAU request/release allocated %.0f times per cycle, want 0", allocs)
	}
	if u.dd.Detections == detections {
		t.Error("probe never ran the embedded DDU")
	}

	// Handover: p1 waits for r0 while p0 holds it, so p0's release hands r0
	// to p1 through the DDU-vetted grant scan; p1's release and p0's
	// re-request restore the starting state.
	if _, _, err := u.Request(0, 0); err != nil {
		t.Fatal(err)
	}
	handover := func() {
		if st, _, err := u.Request(1, 0); err != nil || !st.Pending {
			t.Fatalf("p1 request = %+v, %v; want pending", st, err)
		}
		if st, _, err := u.Release(0, 0); err != nil || st.GrantedTo != 1 {
			t.Fatalf("p0 release = %+v, %v; want a handover to p1", st, err)
		}
		if _, _, err := u.Release(1, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := u.Request(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	handover() // warm
	if allocs := testing.AllocsPerRun(10, handover); allocs > 0 {
		t.Errorf("DAU release handover allocated %.0f times per cycle, want 0", allocs)
	}
}

func TestWorstCaseStepsTable2(t *testing.T) {
	// Table 2: 5 processes x 5 resources -> 6*5 + 8 = 38.
	if got := WorstCaseSteps(Config{Procs: 5, Resources: 5}); got != 38 {
		t.Errorf("WorstCaseSteps(5x5) = %d, want 38", got)
	}
}

func TestDAUMatchesSoftwareDAA(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 40; trial++ {
		u := mustUnit(t, 4, 4)
		sw, err := daa.New(daa.Config{Procs: 4, Resources: 4})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 4; p++ {
			u.SetPriority(p, daa.Priority(p))
			sw.SetPriority(p, daa.Priority(p))
		}
		for step := 0; step < 120; step++ {
			p, q := rng.Intn(4), rng.Intn(4)
			if u.Holder(q) == p {
				hwSt, _, err1 := u.Release(p, q)
				swRes, err2 := sw.Release(p, q)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("release error divergence: %v vs %v", err1, err2)
				}
				if err1 == nil && (hwSt.GrantedTo != swRes.GrantedTo || hwSt.GDl != swRes.GDl) {
					t.Fatalf("release divergence: hw=%+v sw=%+v", hwSt, swRes)
				}
				continue
			}
			hwSt, _, err1 := u.Request(p, q)
			swRes, err2 := sw.Request(p, q)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("request error divergence: %v vs %v", err1, err2)
			}
			if err1 != nil {
				continue
			}
			if hwSt.RDl != swRes.RDl || hwSt.GiveUp != (swRes.Decision == daa.GiveUpRequested) {
				t.Fatalf("request divergence: hw=%+v sw=%+v", hwSt, swRes)
			}
		}
	}
}

func TestGenerateWellFormed(t *testing.T) {
	f, err := Generate(Config{Procs: 5, Resources: 5})
	if err != nil {
		t.Fatal(err)
	}
	if problems := f.Check(nil); len(problems) != 0 {
		t.Errorf("generated Verilog problems: %v", problems)
	}
	text := f.Emit()
	for _, want := range []string{"module dau_5x5", "dau_cmd_reg", "dau_status_reg", "u_ddu", "module ddu_5x5"} {
		if !strings.Contains(text, want) {
			t.Errorf("generated Verilog missing %q", want)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSynthesizeTable2Shape(t *testing.T) {
	sr, err := Synthesize(Config{Procs: 5, Resources: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sr.TotalArea != sr.DDUArea+sr.OtherArea {
		t.Error("area decomposition inconsistent")
	}
	if sr.TotalLines != sr.DDULines+sr.OtherLines {
		t.Error("line decomposition inconsistent")
	}
	if sr.AvoidanceSteps != 38 {
		t.Errorf("AvoidanceSteps = %d, want 38", sr.AvoidanceSteps)
	}
	if sr.DDUSteps != 6 {
		t.Errorf("DDUSteps = %d, want 6", sr.DDUSteps)
	}
	// Paper: DDU 364, others 1472, total 1836.  Ours must be in the same
	// regime: others larger than the DDU, total in the low thousands.
	if sr.OtherArea <= sr.DDUArea {
		t.Errorf("others area (%d) should exceed DDU area (%d)", sr.OtherArea, sr.DDUArea)
	}
	if sr.TotalArea < 500 || sr.TotalArea > 6000 {
		t.Errorf("total area = %d, outside plausible range", sr.TotalArea)
	}
}

func TestSynthesizeMPSoCShare(t *testing.T) {
	sr, err := Synthesize(Config{Procs: 5, Resources: 5})
	if err != nil {
		t.Fatal(err)
	}
	// MPSoC of Table 2: 4 PowerPC 755 PEs (1.7M gates each) + 16 MB memory
	// (33.5M gates) = 40.344M gates.  The DAU share must be ~.005%.
	const mpsocGates = 4*1_700_000 + 33_500_000 + 44_000
	share := float64(sr.TotalArea) / float64(mpsocGates) * 100
	if share > 0.02 {
		t.Errorf("DAU share = %.4f%%, want ~0.005%%", share)
	}
}

func TestEmbeddedDDUConfigMatches(t *testing.T) {
	u := mustUnit(t, 3, 7)
	if u.dd.Config() != (ddu.Config{Procs: 3, Resources: 7}) {
		t.Errorf("embedded DDU config = %+v", u.dd.Config())
	}
}

// The embedded DDU's cells are the avoider's graph, so New allocates its
// avoider and a few small structs, not a second cell store.  At the
// detect_churn size (768 processes, 1024 resources) a cell matrix is about
// 251 KB; New must cost less than half of one more than daa.New.
func TestNewAllocatesNoDDUCells(t *testing.T) {
	const procs, resources = 768, 1024
	unit := heapBytes(func() {
		if _, err := New(Config{Procs: procs, Resources: resources}); err != nil {
			t.Fatal(err)
		}
	})
	avoider := heapBytes(func() {
		if _, err := daa.New(daa.Config{Procs: procs, Resources: resources}); err != nil {
			t.Fatal(err)
		}
	})
	cells := heapBytes(func() { rag.NewMatrix(resources, procs) })
	if unit-avoider >= cells/2 {
		t.Errorf("dau.New allocated %d B, daa.New %d B: %d B more, a cell matrix is %d B",
			unit, avoider, unit-avoider, cells)
	}
}

// heapBytes returns the fewest heap bytes f allocated over three runs.
func heapBytes(f func()) uint64 {
	best := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

func TestVerilogLinesSanity(t *testing.T) {
	f, err := Generate(Config{Procs: 5, Resources: 5})
	if err != nil {
		t.Fatal(err)
	}
	lines := verilog.CountLines(f.Emit())
	// Paper total: 547 lines for the 5x5 DAU.  Same few-hundred regime.
	if lines < 150 || lines > 1200 {
		t.Errorf("DAU Verilog lines = %d, outside plausible range", lines)
	}
}
