// Command perfbench is the repository benchmark: four workloads that time
// the reproduction end to end (tracing off) and layer by layer (a separate
// traced run), and check every output they time.
//
//	go run . --workload paper_matrix --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  Lines before it starting with
// "# " are for people: the host record and the workload's own figures.
// See README.md for what each metric measures and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// Metric is one figure of a report line.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// outcome counts checked operations and the ones that failed a check.
type outcome struct {
	attempted, failed int
	first             string // first failure, for the report
}

// check records one checked operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if o.first == "" {
			o.first = fmt.Sprintf(format, args...)
		}
	}
}

func (o *outcome) add(b outcome) {
	o.attempted += b.attempted
	o.failed += b.failed
	if o.first == "" {
		o.first = b.first
	}
}

// workload is one benchmark workload.  The runner calls prepare once
// (untimed), then setup setupReps times (timed, to report a median), then
// iterate until the run length is spent, with check after every iteration
// and finish once; check and finish run outside every timed region.
type workload interface {
	// prepare does the benchmark's own untimed groundwork, such as
	// unpacking an input onto disk.
	prepare() error
	// setup builds the inputs from the seed, from scratch each time.
	setup() error
	// iterate runs iteration i.  tr is non-nil for a traced iteration.
	iterate(i int, tr *Tracer) error
	// check verifies iteration i's outputs and may drop them.
	check(i int) outcome
	// finish runs the end-of-run checks.
	finish() outcome
	// figures returns the workload's own end-to-end figures (printed as
	// report lines, not in the result object).
	figures() []Metric
	// layers returns the per-layer metrics gathered in trace mode, by name
	// (see perLayer for units).  It may make untimed measurement passes of
	// its own, such as counting allocations call by call.
	layers() map[string]float64
}

// config is what every workload constructor receives.
type config struct {
	root string // repository root (the benchmark reads its inputs below it)
	seed uint64
	size string // "full" for measurement, "tiny" for smoke tests
	// traced marks a --trace 1 run, whose iterations alternate between
	// untraced and traced.
	traced bool
}

// workloads maps each workload name to its constructor, in report order.
var workloads = []struct {
	name string
	new  func(config) workload
}{
	{"paper_matrix", newPaperMatrix},
	{"fuzz_sweep", newFuzzSweep},
	{"lint_module", newLintModule},
	{"detect_churn", newDetectChurn},
}

// setupReps is how many times setup runs; setup_s is the median.
const setupReps = 7

// result is the benchmark's final line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper_matrix, fuzz_sweep, lint_module or detect_churn")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "how long the measured phase runs")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		root    = flag.String("root", ".", "repository root")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{root: *root, seed: *seed, size: "full", traced: *trace == 1}
	res, err := runWorkload(os.Stdout, *name, cfg, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runWorkload runs one workload and returns the result object; report lines
// go to w.  An error means the benchmark could not run at all.
func runWorkload(w io.Writer, name string, cfg config, length time.Duration) (*result, error) {
	var mk func(config) workload
	for _, wl := range workloads {
		if wl.name == name {
			mk = wl.new
		}
	}
	if mk == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	meta, err := hostRecord(cfg, name)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# meta %s\n", meta)

	wl := mk(cfg)
	if err := wl.prepare(); err != nil {
		return nil, fmt.Errorf("%s prepare: %w", name, err)
	}
	var setups []float64
	for r := 0; r < setupReps; r++ {
		runtime.GC() // start every repetition from the same heap state
		start := time.Now()
		if err := wl.setup(); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// One untimed warm-up iteration fills caches and finishes lazy set-up.
	var out outcome
	if err := wl.iterate(0, nil); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", name, err)
	}
	out.add(wl.check(0))

	// In a traced run, odd iterations are traced and even ones are not, so
	// the two differ only by tracing and run under the same machine load.
	var walls, tracedWalls, allocs, cover []float64
	var ms runtime.MemStats
	begin := time.Now()
	for i := 1; i < 3 || time.Since(begin) < length; i++ {
		var tr *Tracer
		if cfg.traced && i%2 == 1 {
			tr = NewTracer()
		}
		runtime.GC() // every iteration starts from the same heap state
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		start := time.Now()
		err := wl.iterate(i, tr)
		wall := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms)
		if err != nil {
			return nil, fmt.Errorf("%s iteration %d: %w", name, i, err)
		}
		if tr != nil {
			tracedWalls = append(tracedWalls, wall)
			cover = append(cover, leafCoverage(tr.Spans()))
		} else {
			walls = append(walls, wall)
			allocs = append(allocs, float64(ms.TotalAlloc-alloc0)/1e6)
		}
		out.add(wl.check(i))
	}
	out.add(wl.finish())

	res := &result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	res.Correct = out.failed == 0 && out.attempted > 0
	if out.first != "" {
		fmt.Fprintf(w, "# first failure: %s\n", out.first)
	}
	failRatio := float64(out.failed) / float64(max(out.attempted, 1))
	fmt.Fprintf(w, "# figure fail_ratio %g ratio (%d of %d checked operations failed)\n", failRatio, out.failed, out.attempted)
	for _, m := range wl.figures() {
		fmt.Fprintf(w, "# figure %s %g %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "# iterations %d untraced, %d traced; untraced wall_s q1 %.6g median %.6g q3 %.6g; setup_s min %.6g max %.6g\n",
		len(walls), len(tracedWalls), quantile(walls, 0.25), median(walls), quantile(walls, 0.75), slices.Min(setups), slices.Max(setups))

	specs, vals := endToEnd, map[string]float64{
		"setup_s":  median(setups),
		"wall_s":   median(walls),
		"alloc_mb": median(allocs),
	}
	if cfg.traced {
		specs, vals = perLayer(), wl.layers()
		vals["trace.overhead_ratio"] = median(tracedWalls) / median(walls)
		vals["trace.span_coverage"] = median(cover)
	}
	known := map[string]bool{}
	for _, sp := range specs {
		known[sp.Name] = true
		v := vals[sp.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a layer with no samples in this workload
		}
		res.Metrics[sp.Name] = metricValue{Value: v, Unit: sp.Unit}
	}
	for m := range vals {
		if !known[m] {
			return nil, fmt.Errorf("%s reports metric %q, which catalog.go does not declare", name, m)
		}
	}
	return res, nil
}

// hostRecord renders the host facts every result carries: Go version,
// GOMAXPROCS, CPU count, source identity, seed and worker widths.
func hostRecord(cfg config, name string) (string, error) {
	commit, err := sourceIdentity(cfg.root)
	if err != nil {
		return "", err
	}
	widths := map[string]int{"paper_matrix": 1, "fuzz_sweep": fuzzWorkers(), "lint_module": 1, "detect_churn": 1}
	rec := map[string]any{
		"workload":   name,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     commit,
		"seed":       cfg.seed,
		"workers":    widths[name],
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
	b, err := json.Marshal(rec)
	return string(b), err
}
