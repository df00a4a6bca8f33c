// Package fuzz is the generative scenario engine behind `deltasim -fuzz`:
// a seeded, fully deterministic random workload generator whose output is
// swept through the parallel campaign engine at 10⁵+ seeds per sweep.
//
// A generated scenario is a set of tasks, each with a lock-acquisition
// program — a properly nested sequence of acquire/release ops over shared
// single-unit resources — plus a fault overlay (lost releases, task
// crashes).  Scenarios are executed by an abstract round-robin scheduler
// over the paper's RAG (internal/rag), with PDDA detection scans standing
// in for the hardware DDU, so the sweep reproduces the deadlock-probability
// phase transitions Barbosa's *Combinatorics of Resource Sharing* predicts
// as contention rises.
//
// Every run is checked against standing invariants rather than one-off unit
// tests (the static ⊇ runtime contract as a fuzz invariant):
//
//   - the RAG matrix satisfies rag.Matrix.Validate at every scan,
//   - pdda.Detect agrees with the rag.Graph.HasCycle oracle on sampled
//     seeds,
//   - a runtime deadlock implies a cycle in the scenario's statically
//     derived lock-order graph (lockorder ⊇ DDU),
//   - runtime held-sets are a subset of the statically derived claims
//     (claims ⊇ audit),
//   - a sampled subset of scenarios is emitted as Go source and round-
//     tripped through deltalint's real lockorder/claims passes, which must
//     agree with the direct derivation.
//
// Determinism contract: a (seed, GenConfig) pair fully determines the
// scenario, its execution, and therefore the sweep report; aggregation is
// streaming (per-parameter-point counters and histograms, no per-seed
// retention) and chunked so a parallel sweep is byte-identical to a
// sequential one.
package fuzz

import (
	"fmt"
	"slices"
	"strings"

	"deltartos/internal/det"
)

// GenConfig parameterizes the scenario generator at one sweep point.
type GenConfig struct {
	// Tasks and Resources size the system (processes n × resources m).
	Tasks     int `json:"tasks"`
	Resources int `json:"resources"`
	// Ops is the number of acquires each task performs.
	Ops int `json:"ops"`
	// MaxDepth bounds the lock nesting depth (held locks per task).
	MaxDepth int `json:"max_depth"`
	// PAcquire is the probability of nesting another acquire instead of
	// releasing the innermost held lock — the request-rate shaper (hold
	// times follow from nesting, so this is the hold/request distribution
	// knob).
	PAcquire float64 `json:"p_acquire"`
	// Hotspot skews resource selection toward low ids: a pick is the
	// minimum of 1+Hotspot uniform draws, concentrating contention on a
	// few hot resources.  0 = uniform.
	Hotspot int `json:"hotspot"`
	// PLostRelease drops a release op from the program (the task holds the
	// resource until it terminates) — the generative analogue of the fault
	// injector's lost G_release.
	PLostRelease float64 `json:"p_lost_release"`
	// PCrash halts a task at a random point of its program, holding
	// whatever it holds — the analogue of a task crash fault.
	PCrash float64 `json:"p_crash"`
	// DetectEvery is the PDDA detection-scan period in scheduler rounds
	// (the DDU's polling cadence in this abstract time base).
	DetectEvery int `json:"detect_every"`
	// Fuse bounds the scheduler rounds of one run.
	Fuse int `json:"fuse"`
}

// DefaultGenConfig is the base parameter point of the default sweep.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Tasks:        12,
		Resources:    16,
		Ops:          6,
		MaxDepth:     4,
		PAcquire:     0.55,
		Hotspot:      0,
		PLostRelease: 0.02,
		PCrash:       0.02,
		DetectEvery:  4,
		Fuse:         100_000,
	}
}

// Contention is the sweep's x-axis: the task-to-resource ratio (Barbosa's
// load factor; deadlock probability undergoes its phase transition as this
// rises).
func (c GenConfig) Contention() float64 {
	if c.Resources == 0 {
		return 0
	}
	return float64(c.Tasks) / float64(c.Resources)
}

func (c GenConfig) validate() error {
	switch {
	case c.Tasks < 1:
		return fmt.Errorf("fuzz: need at least one task")
	case c.Resources < 1:
		return fmt.Errorf("fuzz: need at least one resource")
	case c.Ops < 1:
		return fmt.Errorf("fuzz: need at least one op per task")
	case c.MaxDepth < 1:
		return fmt.Errorf("fuzz: need nesting depth >= 1")
	case c.DetectEvery < 1:
		return fmt.Errorf("fuzz: need a detection-scan period >= 1")
	case c.Fuse < 1:
		return fmt.Errorf("fuzz: need a positive round fuse")
	}
	return nil
}

// Op is one instruction of a task program.
type Op struct {
	Acquire bool // false = release
	Res     int  // resource id
}

// TaskProg is one task's generated program.
type TaskProg struct {
	Name string
	Ops  []Op
	// CrashAt halts the task before executing Ops[CrashAt]; -1 = no crash.
	CrashAt int
	// Lost counts releases dropped from this program.
	Lost int
}

// Scenario is one generated workload.
type Scenario struct {
	Seed  uint64
	Cfg   GenConfig
	Progs []TaskProg
}

// Generate builds the scenario for one (seed, config) pair in a scratch of
// its own.
func Generate(seed uint64, cfg GenConfig) (*Scenario, error) {
	return GenerateWith(new(ExecScratch), seed, cfg)
}

// GenerateWith builds the scenario for one (seed, config) pair in es.
// Equal inputs yield byte-identical scenarios, forever: all randomness
// flows through one explicitly seeded splitmix64 stream drawn in a fixed
// order.
func GenerateWith(es *ExecScratch, seed uint64, cfg GenConfig) (*Scenario, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := det.New(seed)
	sc := &es.sc
	sc.Seed, sc.Cfg = seed, cfg
	// Rows past cfg.Tasks keep their op arrays for a later, larger seed.
	if cap(sc.Progs) < cfg.Tasks {
		sc.Progs = append(sc.Progs[:cap(sc.Progs)], make([]TaskProg, cfg.Tasks-cap(sc.Progs))...)
	}
	sc.Progs = sc.Progs[:cfg.Tasks]
	for len(es.names) < cfg.Tasks {
		es.names = append(es.names, fmt.Sprintf("p%d", len(es.names)))
	}
	// held lists the resources the task holds in ascending order,
	// lost-release locks included (they stay held off-stack); the
	// acquire candidates are the unheld ones.
	held, stack := es.held, es.stack
	for t := 0; t < cfg.Tasks; t++ {
		prog := TaskProg{Name: es.names[t], Ops: sc.Progs[t].Ops[:0], CrashAt: -1}
		held, stack = held[:0], stack[:0]
		acquires := 0
		for acquires < cfg.Ops || len(stack) > 0 {
			free := 0
			if acquires < cfg.Ops && len(held) < cfg.MaxDepth {
				free = cfg.Resources - len(held)
			}
			canAcquire := free > 0
			canRelease := len(stack) > 0
			if canAcquire && (!canRelease || rng.Float64() < cfg.PAcquire) {
				// The pick-th unheld resource: step over every held one
				// at or below it.
				r := pick(rng, free, cfg.Hotspot)
				i := 0
				for ; i < len(held) && held[i] <= r; i++ {
					r++
				}
				held = slices.Insert(held, i, r)
				prog.Ops = append(prog.Ops, Op{Acquire: true, Res: r})
				stack = append(stack, r)
				acquires++
				continue
			}
			if !canRelease {
				// Nothing acquirable and nothing held: the op budget is
				// unreachable (every resource held), stop the program here.
				break
			}
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if rng.Float64() < cfg.PLostRelease {
				// Lost release: the op is absent from the program, the
				// resource stays held until the task terminates.
				prog.Lost++
				continue
			}
			prog.Ops = append(prog.Ops, Op{Acquire: false, Res: r})
			i := slices.Index(held, r)
			held = slices.Delete(held, i, i+1)
		}
		if rng.Float64() < cfg.PCrash && len(prog.Ops) > 0 {
			prog.CrashAt = rng.Intn(len(prog.Ops))
		}
		sc.Progs[t] = prog
	}
	es.held, es.stack = held, stack
	return sc, nil
}

// pick selects an index in [0, n) with Hotspot-fold skew toward 0.
func pick(rng *det.RNG, n, hotspot int) int {
	idx := rng.Intn(n)
	for k := 0; k < hotspot; k++ {
		if j := rng.Intn(n); j < idx {
			idx = j
		}
	}
	return idx
}

// String renders the scenario compactly for diagnostics: one line per task,
// + = acquire, - = release.
func (sc *Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %d tasks x %d resources\n", sc.Seed, sc.Cfg.Tasks, sc.Cfg.Resources)
	for _, p := range sc.Progs {
		fmt.Fprintf(&b, "  %-4s", p.Name)
		for i, op := range p.Ops {
			if i == p.CrashAt {
				b.WriteString(" !crash")
				break
			}
			sign := "-"
			if op.Acquire {
				sign = "+"
			}
			fmt.Fprintf(&b, " %sq%d", sign, op.Res)
		}
		if p.Lost > 0 {
			fmt.Fprintf(&b, " (%d lost release)", p.Lost)
		}
		b.WriteString("\n")
	}
	return b.String()
}
