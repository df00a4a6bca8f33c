// The campaign-scale sweep: a grid of generator parameter points, each
// swept over a contiguous seed range, sharded into fixed-size chunks run on
// the campaign worker pool.  Aggregation is streaming — every chunk folds
// its seeds into one fixed-size accumulator as it goes, chunk accumulators
// merge per point in input order — so memory is bounded by the chunk count,
// never the seed count, and a parallel sweep is byte-identical to a
// sequential one (chunk boundaries are fixed by config, not worker count).

package fuzz

import (
	"fmt"

	"deltartos/internal/campaign"
)

// latBuckets is the detection-latency histogram size: bucket 0 holds
// latency 0, bucket k holds latencies in [2^(k-1), 2^k).
const latBuckets = 18

// cycleLenMax is the last tracked witness-cycle length; longer cycles fold
// into the final bucket.
const cycleLenMax = 16

// Point is one parameter point of a sweep.
type Point struct {
	Label string
	Gen   GenConfig
}

// Sweep configures one fuzz campaign.
type Sweep struct {
	// Points is the parameter grid (the contention axis of the default
	// sweep).
	Points []Point
	// Seeds is the seed count per point; point p sweeps
	// BaseSeed+p*Seeds .. BaseSeed+(p+1)*Seeds-1, so points never share a
	// seed stream.
	Seeds    int
	BaseSeed uint64
	// OracleEvery samples every k-th seed of a point for the deep per-scan
	// PDDA-vs-HasCycle/Validate cross-check (1 = every seed, 0 = terminal
	// checks only).
	OracleEvery int
	// LintSample round-trips the first k seeds of every point through the
	// deltalint lockorder/claims passes.
	LintSample int
	// ChunkSize is the streaming-aggregation unit (seeds per campaign
	// job).  0 defaults to 1024.
	ChunkSize int
}

// Agg is the streaming accumulator for one chunk (and, merged, for one
// point).  Everything is a counter or fixed-size histogram: no per-seed
// state survives the seed that produced it.
type Agg struct {
	Seeds    int
	Outcomes [OutcomeCount]int

	StaticCycles int // scenarios whose lock-order graph predicts deadlock
	BlockedSum   int
	RoundsSum    int

	LatCount   int
	LatSum     int
	LatHist    [latBuckets]int
	CycleLens  [cycleLenMax + 1]int
	OpsSum     int
	LostSum    int
	CrashedSum int

	OracleChecked    int
	LintChecked      int
	BankerChecked    int // seeds replayed through both Banker engines
	BankerDecisions  int // grant/refuse decisions compared across engines
	Mismatches       int
	FirstMismatch    string
	InfraErr         string // infrastructure failure (lint temp dir etc.)
	DeadlockDetected int    // == Outcomes[Deadlocked]; kept for clarity in merge tests
}

// fold streams one executed seed into the accumulator.
func (a *Agg) fold(sc *Scenario, st *Static, res ExecResult, deepOracle bool) {
	a.Seeds++
	a.Outcomes[res.Outcome]++
	if res.Outcome == Deadlocked {
		a.DeadlockDetected++
	}
	if st.HasCycle() {
		a.StaticCycles++
	}
	a.BlockedSum += res.Blocked
	a.RoundsSum += res.Rounds
	for _, p := range sc.Progs {
		a.OpsSum += len(p.Ops)
		a.LostSum += p.Lost
		if p.CrashAt >= 0 {
			a.CrashedSum++
		}
	}
	if deepOracle {
		a.OracleChecked++
	}
	if res.DetectRound >= 0 && res.FormRound >= 0 {
		lat := res.DetectRound - res.FormRound
		a.LatCount++
		a.LatSum += lat
		a.LatHist[latBucket(lat)]++
		cl := res.CycleLen
		if cl > cycleLenMax {
			cl = cycleLenMax
		}
		if cl > 0 {
			a.CycleLens[cl]++
		}
	}
	if res.MismatchAt != "" {
		a.Mismatches++
		if a.FirstMismatch == "" {
			a.FirstMismatch = res.MismatchAt
		}
	}
}

// merge folds b (a later chunk of the same point) into a.
func (a *Agg) merge(b *Agg) {
	a.Seeds += b.Seeds
	for i := range a.Outcomes {
		a.Outcomes[i] += b.Outcomes[i]
	}
	a.StaticCycles += b.StaticCycles
	a.BlockedSum += b.BlockedSum
	a.RoundsSum += b.RoundsSum
	a.LatCount += b.LatCount
	a.LatSum += b.LatSum
	for i := range a.LatHist {
		a.LatHist[i] += b.LatHist[i]
	}
	for i := range a.CycleLens {
		a.CycleLens[i] += b.CycleLens[i]
	}
	a.OpsSum += b.OpsSum
	a.LostSum += b.LostSum
	a.CrashedSum += b.CrashedSum
	a.OracleChecked += b.OracleChecked
	a.LintChecked += b.LintChecked
	a.BankerChecked += b.BankerChecked
	a.BankerDecisions += b.BankerDecisions
	a.Mismatches += b.Mismatches
	if a.FirstMismatch == "" {
		a.FirstMismatch = b.FirstMismatch
	}
	if a.InfraErr == "" {
		a.InfraErr = b.InfraErr
	}
	a.DeadlockDetected += b.DeadlockDetected
}

func latBucket(lat int) int {
	b := 0
	for lat > 0 {
		b++
		lat >>= 1
	}
	if b >= latBuckets {
		b = latBuckets - 1
	}
	return b
}

// RunSweep executes the sweep on a pool of the given width and returns the
// per-point report.  A non-nil error means an invariant broke (PDDA vs
// oracle, static ⊇ runtime, lint round-trip) or lint infrastructure
// failed; the report is returned alongside so the witness is visible.
func RunSweep(sw Sweep, workers int) (*Report, error) {
	if len(sw.Points) == 0 {
		return nil, fmt.Errorf("fuzz: sweep has no parameter points")
	}
	if sw.Seeds <= 0 {
		return nil, fmt.Errorf("fuzz: sweep needs at least one seed per point")
	}
	for _, p := range sw.Points {
		if err := p.Gen.validate(); err != nil {
			return nil, fmt.Errorf("point %q: %w", p.Label, err)
		}
	}

	aggs, err := campaign.Sweep(len(sw.Points), sw.Seeds, sw.BaseSeed, sw.ChunkSize, workers,
		func(c campaign.Chunk, agg *Agg) error {
			gen := sw.Points[c.Point].Gen
			var es ExecScratch // every buffer of the chunk's seeds
			for k := 0; k < c.Count; k++ {
				idx := c.Index + k
				sc, err := GenerateWith(&es, c.Seed+uint64(k), gen)
				if err != nil {
					return err
				}
				st := DeriveWith(&es, sc)
				deep := sw.OracleEvery > 0 && idx%sw.OracleEvery == 0
				res := ExecWith(&es, sc, st, deep)
				agg.fold(sc, st, res, deep)
				// The Banker differential: replay the seed's traffic through
				// the claim-wait Banker and the claim-list RefBanker,
				// comparing every grant/refuse decision.
				bd := BankerDiffWith(&es, sc, st)
				agg.BankerChecked++
				agg.BankerDecisions += bd.Decisions
				if bd.Mismatch != "" {
					agg.Mismatches++
					if agg.FirstMismatch == "" {
						agg.FirstMismatch = bd.Mismatch
					}
				}
				if idx < sw.LintSample {
					mismatch, err := LintCheck(sc, st)
					if err != nil {
						if agg.InfraErr == "" {
							agg.InfraErr = err.Error()
						}
						continue
					}
					agg.LintChecked++
					if mismatch != "" {
						agg.Mismatches++
						if agg.FirstMismatch == "" {
							agg.FirstMismatch = mismatch
						}
					}
				}
			}
			return nil
		}, (*Agg).merge)
	if err != nil {
		return nil, err
	}

	rep := NewReport(sw)
	totalMismatch := 0
	witness := ""
	infra := ""
	for p := range aggs {
		a := &aggs[p]
		rep.Points = append(rep.Points, pointReport(sw.Points[p], a))
		totalMismatch += a.Mismatches
		if witness == "" {
			witness = a.FirstMismatch
		}
		if infra == "" {
			infra = a.InfraErr
		}
	}
	if infra != "" {
		return rep, fmt.Errorf("fuzz: lint round-trip infrastructure: %s", infra)
	}
	if totalMismatch > 0 {
		return rep, fmt.Errorf("fuzz: %d invariant violation(s); first: %s", totalMismatch, witness)
	}
	return rep, nil
}

// DefaultSweep is the stock contention curve: task count fixed, resource
// count swept downward so the task-to-resource ratio rises through the
// phase-transition region.  The axis is tuned empirically so the deadlock
// probability runs the full S-curve, ~0.02 at m=256 to ~0.98 at m=8.
func DefaultSweep(seedsPerPoint int, baseSeed uint64) Sweep {
	resources := []int{256, 128, 96, 64, 48, 32, 16, 8}
	sw := Sweep{
		Seeds:       seedsPerPoint,
		BaseSeed:    baseSeed,
		OracleEvery: 16,
		LintSample:  2,
	}
	for _, m := range resources {
		gen := DefaultGenConfig()
		gen.Resources = m
		sw.Points = append(sw.Points, Point{
			Label: fmt.Sprintf("m=%d", m),
			Gen:   gen,
		})
	}
	return sw
}
