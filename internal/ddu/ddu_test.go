package ddu

import (
	"strings"
	"testing"

	"deltartos/internal/det"
	"deltartos/internal/pdda"
	"deltartos/internal/rag"
	"deltartos/internal/verilog"
)

func mustNew(t *testing.T, procs, res int) *Unit {
	t.Helper()
	u, err := New(Config{Procs: procs, Resources: res})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Procs: 0, Resources: 5}).Validate(); err == nil {
		t.Error("zero processes accepted")
	}
	if err := (Config{Procs: 5, Resources: -1}).Validate(); err == nil {
		t.Error("negative resources accepted")
	}
	if err := (Config{Procs: 5, Resources: 5}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted zero config")
	}
}

func TestDetectEmptyMatrix(t *testing.T) {
	u := mustNew(t, 5, 5)
	res := u.Detect()
	if res.Deadlock {
		t.Error("empty matrix deadlocked")
	}
	if res.Iterations != 0 {
		t.Errorf("Iterations = %d, want 0", res.Iterations)
	}
	if res.Steps != 2 {
		t.Errorf("Steps = %d, want floor of 2", res.Steps)
	}
}

func TestDetectCycleViaCommands(t *testing.T) {
	// Program the classic 2-cycle through the command interface.
	u := mustNew(t, 5, 5)
	u.SetGrant(0, 0)
	u.SetGrant(1, 1)
	u.SetRequest(1, 0)
	u.SetRequest(0, 1)
	if res := u.Detect(); !res.Deadlock {
		t.Error("2-cycle not detected")
	}
	// Break the cycle.
	u.ClearCell(0, 1)
	if res := u.Detect(); res.Deadlock {
		t.Error("broken cycle still detected")
	}
}

func TestDetectPreservesMatrix(t *testing.T) {
	u := mustNew(t, 4, 4)
	u.SetGrant(0, 0)
	u.SetRequest(1, 0)
	before := u.Matrix().Clone()
	u.Detect()
	if !u.Matrix().Equal(before) {
		t.Error("Detect consumed the matrix")
	}
}

func TestLoadSizeCheck(t *testing.T) {
	u := mustNew(t, 4, 4)
	if err := u.Load(rag.NewGraph(5, 4)); err == nil {
		t.Error("Load accepted wrong-size graph")
	}
	if err := u.Load(rag.NewGraph(4, 4)); err != nil {
		t.Errorf("Load rejected correct size: %v", err)
	}
}

func TestLoadIsACopy(t *testing.T) {
	u := mustNew(t, 3, 3)
	g := rag.NewGraph(3, 3)
	if err := u.Load(g); err != nil {
		t.Fatal(err)
	}
	if err := g.SetGrant(0, 0); err != nil {
		t.Fatal(err)
	}
	if u.Matrix().Get(0, 0) != rag.None {
		t.Error("Load aliased caller graph")
	}
}

// A system smaller than the unit embeds top-left (Table 5 runs a 4-process
// scenario on a 5x5 DDU): the verdict, iteration count and step count must
// equal those of a unit of the system's own size.
func TestLoadSmallerGraphMatchesExactUnit(t *testing.T) {
	rng := det.New(77)
	for i := 0; i < 200; i++ {
		g := rag.Random(rng, 4, 4, 0.7, 0.35)
		big, exact := mustNew(t, 5, 5), mustNew(t, 4, 4)
		if err := big.Load(g); err != nil {
			t.Fatal(err)
		}
		if err := exact.Load(g); err != nil {
			t.Fatal(err)
		}
		if got, want := big.Detect(), exact.Detect(); got != want {
			t.Fatalf("case %d: 5x5 unit %+v, 4x4 unit %+v\n%s", i, got, want, g.Matrix())
		}
	}
}

// Loading a smaller graph after a fuller one must not leave the fuller
// state behind in the spare rows or columns.
func TestLoadClearsSpareCells(t *testing.T) {
	u := mustNew(t, 5, 5)
	if err := u.Load(rag.CycleGraph(5, 5, 5)); err != nil {
		t.Fatal(err)
	}
	if !u.Detect().Deadlock {
		t.Fatal("5-cycle not detected")
	}
	small := rag.Chain(4, 4)
	if err := u.Load(small); err != nil {
		t.Fatal(err)
	}
	want := rag.NewMatrix(5, 5)
	for s := 0; s < 4; s++ {
		for p := 0; p < 4; p++ {
			want.Set(s, p, small.Matrix().Get(s, p))
		}
	}
	if !u.Matrix().Equal(want) {
		t.Errorf("cells after reload:\n%swant:\n%s", u.Matrix(), want)
	}
	if res := u.Detect(); res.Deadlock {
		t.Errorf("stale cells kept the cycle: %+v", res)
	}
}

// A warm unit detects without allocating: the snapshot lives in the unit's
// pdda.Scratch (the DDU counterpart of pdda's TestDetectDoesNotAllocate).
func TestUnitDetectDoesNotAllocate(t *testing.T) {
	u := mustNew(t, 96, 48)
	if err := u.Load(rag.Random(det.New(3), 48, 96, 0.7, 0.2)); err != nil {
		t.Fatal(err)
	}
	u.Detect() // warm the scratch
	if allocs := testing.AllocsPerRun(10, func() { u.Detect() }); allocs > 0 {
		t.Errorf("Unit.Detect allocated %.0f times per scan, want 0", allocs)
	}
}

// DetectGraph must return what Load followed by Detect returns and charge
// the same instrumentation, without writing the unit's cells, on one unit
// that alternates the two paths; a graph of another size is an error.
func TestDetectGraphMatchesLoadDetect(t *testing.T) {
	rng := det.New(53)
	viaGraph, viaLoad := mustNew(t, 70, 66), mustNew(t, 70, 66)
	if _, err := viaGraph.DetectGraph(rag.NewGraph(66, 69)); err == nil {
		t.Error("DetectGraph accepted a smaller graph")
	}
	cells := rag.CycleGraph(66, 70, 4)
	if err := viaGraph.Load(cells); err != nil {
		t.Fatal(err)
	}
	cellSteps, cellDetects := 0, 0
	for i := 0; i < 100; i++ {
		g := rag.Random(rng, 66, 70, 0.6, 0.03)
		if i%2 == 0 {
			g = rag.BlockDiagonal(rng, 6, 11, 10, 0.6, 0.15)
			g = padGraph(g, 66, 70)
		}
		got, err := viaGraph.DetectGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := viaLoad.Load(g); err != nil {
			t.Fatal(err)
		}
		if want := viaLoad.Detect(); got != want || got.Deadlock != g.HasCycle() {
			t.Fatalf("case %d: DetectGraph %+v, Load+Detect %+v, HasCycle %v", i, got, want, g.HasCycle())
		}
		if i%10 == 0 {
			// The unit's own cells share the scratch with DetectGraph.
			res := viaGraph.Detect()
			if !res.Deadlock {
				t.Fatalf("case %d: the unit's own cells lost their cycle", i)
			}
			cellSteps += res.Steps
			cellDetects++
		}
	}
	if !viaGraph.Matrix().Equal(cells.Matrix()) {
		t.Error("DetectGraph wrote the unit's cells")
	}
	if viaGraph.Detections-cellDetects != viaLoad.Detections || viaGraph.TotalSteps-cellSteps != viaLoad.TotalSteps {
		t.Errorf("DetectGraph unit counted %d detections, %d steps; Load+Detect unit %d, %d",
			viaGraph.Detections-cellDetects, viaGraph.TotalSteps-cellSteps, viaLoad.Detections, viaLoad.TotalSteps)
	}
	g := rag.Random(rng, 66, 70, 0.6, 0.03)
	viaGraph.DetectGraph(g) // warm
	if allocs := testing.AllocsPerRun(10, func() { viaGraph.DetectGraph(g) }); allocs > 0 {
		t.Errorf("Unit.DetectGraph allocated %.0f times per scan, want 0", allocs)
	}
}

// padGraph copies g into the top-left corner of an empty m×n graph.
func padGraph(g *rag.Graph, m, n int) *rag.Graph {
	out := rag.NewGraph(m, n)
	gm, _ := g.Size()
	for s := 0; s < gm; s++ {
		if h := g.Holder(s); h != -1 {
			if err := out.SetGrant(s, h); err != nil {
				panic(err) // unreachable: fresh resource
			}
		}
		for _, p := range g.Requesters(s) {
			out.AddRequest(s, p)
		}
	}
	return out
}

// The DDU must agree with software PDDA and with the cycle oracle.
func TestDDUMatchesPDDAAndOracle(t *testing.T) {
	rng := det.New(31)
	for i := 0; i < 400; i++ {
		m := 1 + rng.Intn(8)
		n := 1 + rng.Intn(8)
		g := rag.Random(rng, m, n, 0.7, 0.3)
		u, err := New(Config{Procs: n, Resources: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := u.Load(g); err != nil {
			t.Fatal(err)
		}
		hw := u.Detect()
		sw, _ := pdda.DetectGraph(g)
		if hw.Deadlock != sw || hw.Deadlock != g.HasCycle() {
			t.Fatalf("case %d: DDU=%v PDDA=%v oracle=%v\n%s",
				i, hw.Deadlock, sw, g.HasCycle(), g.Matrix())
		}
	}
}

// Hardware iteration count must equal the software reduction step count.
func TestIterationAgreement(t *testing.T) {
	rng := det.New(8)
	for i := 0; i < 200; i++ {
		g := rag.Random(rng, 1+rng.Intn(8), 1+rng.Intn(8), 0.8, 0.35)
		m, n := g.Size()
		u, _ := New(Config{Procs: n, Resources: m})
		if err := u.Load(g); err != nil {
			t.Fatal(err)
		}
		hw := u.Detect()
		mx := g.Matrix()
		k, _ := pdda.Reduce(mx)
		if hw.Iterations != k {
			t.Fatalf("case %d: hw iterations %d != sw %d", i, hw.Iterations, k)
		}
	}
}

func TestHardwareSteps(t *testing.T) {
	cases := []struct{ k, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 2}, {4, 4}, {5, 6}, {7, 10}, {10, 16}, {50, 96},
	}
	for _, c := range cases {
		if got := HardwareSteps(c.k); got != c.want {
			t.Errorf("HardwareSteps(%d) = %d, want %d", c.k, got, c.want)
		}
	}
}

// Table 1's worst-case iteration column, reproduced from the adversarial
// chain RAG through the hardware step counter.
func TestTable1WorstCaseSteps(t *testing.T) {
	cases := []struct {
		procs, res int
		want       int
	}{
		{2, 3, 2},
		{5, 5, 6},
		{7, 7, 10},
		{10, 10, 16},
		{50, 50, 96},
	}
	for _, c := range cases {
		if got := WorstCaseSteps(Config{Procs: c.procs, Resources: c.res}); got != c.want {
			t.Errorf("WorstCaseSteps(%dx%d) = %d, want %d", c.procs, c.res, got, c.want)
		}
	}
}

func TestCumulativeInstrumentation(t *testing.T) {
	u := mustNew(t, 5, 5)
	u.Detect()
	u.Detect()
	if u.Detections != 2 {
		t.Errorf("Detections = %d, want 2", u.Detections)
	}
	if u.TotalSteps < 4 {
		t.Errorf("TotalSteps = %d, want >= 4", u.TotalSteps)
	}
}

func TestGenerateEmitsWellFormedVerilog(t *testing.T) {
	f, err := Generate(Config{Procs: 5, Resources: 5})
	if err != nil {
		t.Fatal(err)
	}
	if problems := f.Check(nil); len(problems) != 0 {
		t.Errorf("generated Verilog problems: %v", problems)
	}
	text := f.Emit()
	for _, want := range []string{"module ddu_cell", "module ddu_5x5", "deadlock", "c_4_4", "row_tau", "col_phi"} {
		if !strings.Contains(text, want) {
			t.Errorf("generated Verilog missing %q", want)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Error("Generate accepted invalid config")
	}
}

// Lines-of-Verilog must grow roughly as m*n + constant, matching the Table 1
// shape (one instance line per matrix cell).
func TestVerilogLineGrowth(t *testing.T) {
	lines := map[int]int{}
	for _, sz := range []int{2, 5, 10} {
		f, err := Generate(Config{Procs: sz, Resources: sz})
		if err != nil {
			t.Fatal(err)
		}
		lines[sz] = verilog.CountLines(f.Emit())
	}
	// Fixed overhead estimated from the 2x2 config.
	overhead := lines[2] - 2*2 - 2*2*2
	for _, sz := range []int{5, 10} {
		approx := sz*sz + 2*sz*2 + overhead
		got := lines[sz]
		if got < approx-10 || got > approx+10 {
			t.Errorf("lines(%dx%d) = %d, expected ~%d (m*n growth)", sz, sz, got, approx)
		}
	}
}

func TestSynthesizeTable1Shape(t *testing.T) {
	prevArea, prevLines := 0, 0
	for _, c := range []Config{
		{Procs: 2, Resources: 3},
		{Procs: 5, Resources: 5},
		{Procs: 7, Resources: 7},
		{Procs: 10, Resources: 10},
		{Procs: 50, Resources: 50},
	} {
		sr, err := Synthesize(c)
		if err != nil {
			t.Fatal(err)
		}
		if sr.AreaGates <= prevArea {
			t.Errorf("area not monotone: %dx%d -> %d after %d", c.Procs, c.Resources, sr.AreaGates, prevArea)
		}
		if sr.VerilogLines <= prevLines {
			t.Errorf("lines not monotone: %dx%d -> %d after %d", c.Procs, c.Resources, sr.VerilogLines, prevLines)
		}
		prevArea, prevLines = sr.AreaGates, sr.VerilogLines
	}
}

func TestSynthesizeSmallUnitIsSmall(t *testing.T) {
	sr, err := Synthesize(Config{Procs: 2, Resources: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 186 gates for 2x3. Control-block-dominated; ours must be in the
	// same few-hundred-gate regime.
	if sr.AreaGates < 50 || sr.AreaGates > 600 {
		t.Errorf("2x3 DDU area = %d gates, outside plausible range", sr.AreaGates)
	}
}

func TestSynthesize50x50Quadratic(t *testing.T) {
	small, err := Synthesize(Config{Procs: 5, Resources: 5})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Synthesize(Config{Procs: 50, Resources: 50})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(big.AreaGates) / float64(small.AreaGates)
	// 100x the cells; allowing the fixed control overhead of the small unit,
	// the ratio must be far above linear (10x) and at most ~100x.
	if ratio < 15 || ratio > 120 {
		t.Errorf("area ratio 50x50 / 5x5 = %.1f, want quadratic-ish growth", ratio)
	}
}

func TestNetlistHasSequentialState(t *testing.T) {
	nl := Netlist(Config{Procs: 5, Resources: 5})
	if nl.FlipFlops() == 0 {
		t.Error("DDU netlist has no sequential cells")
	}
}

// randSource is shared by the VCD dump test.
func randSource() *det.RNG { return det.New(55) }
