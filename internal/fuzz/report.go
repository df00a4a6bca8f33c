// BENCH_fuzz.json: the machine-readable sweep report.  Structs and slices
// only — no maps, no timestamps — so the marshaled bytes are a pure
// function of (sweep config, worker-independent aggregation) and a
// parallel sweep emits byte-identical output to a sequential one.

package fuzz

import (
	"encoding/json"

	"deltartos/internal/campaign"
)

// Report is the full sweep output.
type Report struct {
	// Config echoes the sweep parameters the curve was measured under.
	Config ReportConfig `json:"config"`
	// Points is the deadlock-probability-vs-contention curve, one entry per
	// parameter point in sweep order.
	Points []PointReport `json:"points"`
}

// ReportConfig echoes the sweep-level knobs.
type ReportConfig struct {
	SeedsPerPoint int    `json:"seeds_per_point"`
	BaseSeed      uint64 `json:"base_seed"`
	OracleEvery   int    `json:"oracle_every"`
	LintSample    int    `json:"lint_sample"`
	ChunkSize     int    `json:"chunk_size"`
}

// PointReport is one parameter point's aggregate.
type PointReport struct {
	Label      string    `json:"label"`
	Gen        GenConfig `json:"gen"`
	Contention float64   `json:"contention"`
	Seeds      int       `json:"seeds"`

	// Outcome counters and the headline probabilities.
	Completed           int     `json:"completed"`
	Deadlocked          int     `json:"deadlocked"`
	Wedged              int     `json:"wedged"`
	FuseExceeded        int     `json:"fuse_exceeded"`
	DeadlockProbability float64 `json:"deadlock_probability"`
	// StaticCycleProbability is the fraction of scenarios whose lock-order
	// graph predicts deadlock.  Static ⊇ runtime means it bounds
	// DeadlockProbability from above at every point.
	StaticCycles           int     `json:"static_cycles"`
	StaticCycleProbability float64 `json:"static_cycle_probability"`

	// Detection latency (rounds between cycle formation and the PDDA scan
	// that reported it), over deadlocked runs.
	DetectionLatencyMean float64 `json:"detection_latency_mean"`
	// DetectionLatencyHist buckets latencies as powers of two: bucket 0 is
	// latency 0, bucket k is [2^(k-1), 2^k).
	DetectionLatencyHist []int `json:"detection_latency_hist"`
	// CycleLengthHist[k] counts witness cycles of k processes (k=0 unused;
	// the last bucket folds longer cycles).
	CycleLengthHist []int `json:"cycle_length_hist"`

	// Workload shape actually generated at this point.
	MeanOps      float64 `json:"mean_ops"`
	MeanBlocked  float64 `json:"mean_blocked"`
	MeanRounds   float64 `json:"mean_rounds"`
	LostReleases int     `json:"lost_releases"`
	CrashedTasks int     `json:"crashed_tasks"`

	// Invariant-check accounting.  BankerChecked/BankerDecisions count the
	// per-seed Banker differential (bitset engine vs per-cell reference);
	// the word-vs-cell PDDA differential runs on every seed's terminal state
	// and folds into Mismatches.
	OracleChecked   int    `json:"oracle_checked"`
	LintChecked     int    `json:"lint_checked"`
	BankerChecked   int    `json:"banker_checked"`
	BankerDecisions int    `json:"banker_decisions"`
	Mismatches      int    `json:"mismatches"`
	FirstMismatch   string `json:"first_mismatch,omitempty"`
}

// NewReport starts a report echoing the sweep config.
func NewReport(sw Sweep) *Report {
	return &Report{
		Config: ReportConfig{
			SeedsPerPoint: sw.Seeds,
			BaseSeed:      sw.BaseSeed,
			OracleEvery:   sw.OracleEvery,
			LintSample:    sw.LintSample,
			ChunkSize:     chunkSize(sw.ChunkSize),
		},
	}
}

// pointReport flattens one merged accumulator into its report row.
func pointReport(p Point, a *Agg) PointReport {
	pr := PointReport{
		Label:           p.Label,
		Gen:             p.Gen,
		Contention:      p.Gen.Contention(),
		Seeds:           a.Seeds,
		Completed:       a.Outcomes[Completed],
		Deadlocked:      a.Outcomes[Deadlocked],
		Wedged:          a.Outcomes[Wedged],
		FuseExceeded:    a.Outcomes[FuseExceeded],
		StaticCycles:    a.StaticCycles,
		LostReleases:    a.LostSum,
		CrashedTasks:    a.CrashedSum,
		OracleChecked:   a.OracleChecked,
		LintChecked:     a.LintChecked,
		BankerChecked:   a.BankerChecked,
		BankerDecisions: a.BankerDecisions,
		Mismatches:      a.Mismatches,
		FirstMismatch:   a.FirstMismatch,
	}
	if a.Seeds > 0 {
		n := float64(a.Seeds)
		pr.DeadlockProbability = float64(a.Outcomes[Deadlocked]) / n
		pr.StaticCycleProbability = float64(a.StaticCycles) / n
		pr.MeanOps = float64(a.OpsSum) / n
		pr.MeanBlocked = float64(a.BlockedSum) / n
		pr.MeanRounds = float64(a.RoundsSum) / n
	}
	if a.LatCount > 0 {
		pr.DetectionLatencyMean = float64(a.LatSum) / float64(a.LatCount)
	}
	pr.DetectionLatencyHist = append([]int(nil), a.LatHist[:]...)
	pr.CycleLengthHist = append([]int(nil), a.CycleLens[:]...)
	return pr
}

// JSON marshals the report deterministically (indented, struct field
// order).
func (r *Report) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// chunkSize is the chunk size a sweep runs with: n, or campaign.Sweep's
// default when n <= 0.
func chunkSize(n int) int {
	if n <= 0 {
		return campaign.DefaultChunk
	}
	return n
}
