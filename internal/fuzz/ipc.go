// The IPC-topology dimension: seeded random message-passing scenarios —
// tasks running straight-line send/recv programs over shared channels
// (buffered queues and capacity-0 rendezvous points) with a message-loss
// overlay — executed by a deterministic round-robin scheduler until
// completion or quiescence.  The standing invariant is the IPC analogue of
// the lock dimension's static ⊇ runtime contract: every task blocked at
// quiescence (the abstract IPC deadlock core) must be in the statically
// derived flagged set of the same scenario.
//
// The static derivation is sound by construction for this model.  A task
// stuck forever on a channel implies either a count deficit on that channel
// (more blocking demands than effective supply) or a wait edge to another
// stuck task; following edges inside the finite stuck set ends in a count
// deficit or a cycle.  So: seed the flag set with count-flagged tasks and
// tasks on wait-graph cycles, then propagate backwards along wait edges —
// a task whose blocking op has ANY flagged counterparty may be starved by
// it.  (The deltalint ipc pass propagates only when ALL counterparties are
// flagged — a precision choice fit for lint noise, not for a proof
// obligation; this derivation must never under-approximate.)

package fuzz

import (
	"encoding/json"
	"fmt"

	"deltartos/internal/campaign"
	"deltartos/internal/det"
)

// IPCGenConfig parameterizes the IPC-topology generator at one sweep point.
type IPCGenConfig struct {
	// Tasks and Channels size the system.
	Tasks    int `json:"tasks"`
	Channels int `json:"channels"`
	// Ops is the average number of operations per task: the generator emits
	// Tasks*Ops/2 messages, each one send op in the sender's program and one
	// recv op in the receiver's.  Message-matched generation keeps the
	// fault-free baseline mostly completing, so the wedge curve is driven by
	// the loss overlay and by ordering, not by trivial count imbalance.
	Ops int `json:"ops"`
	// PZeroCap is the probability a channel is a capacity-0 rendezvous
	// point; otherwise its capacity is uniform in [1, MaxCap].
	PZeroCap float64 `json:"p_zero_cap"`
	MaxCap   int     `json:"max_cap"`
	// PDrop marks a send as lost in transit: it completes instantly and
	// delivers nothing — the generative analogue of the fault injector's
	// msg-drop.
	PDrop float64 `json:"p_drop"`
	// PDelay marks a buffered send as delayed in transit: the slot is
	// reserved when the send completes but the message only becomes visible
	// to receivers 1..MaxDelay rounds later — the analogue of msg-delay.
	// Zero keeps the generator's random stream identical to pre-delay
	// configs (the draw is gated, not wasted).
	PDelay   float64 `json:"p_delay"`
	MaxDelay int     `json:"max_delay"`
	// PDup marks a buffered send as duplicated in transit: a second copy
	// arrives alongside the first if the channel has a free slot, and is
	// lost otherwise — the analogue of msg-dup.  Zero is draw-gated like
	// PDelay.
	PDup float64 `json:"p_dup"`
	// Fuse bounds the scheduler rounds of one run (a safety net; the
	// round-robin executor quiesces on its own).
	Fuse int `json:"fuse"`
}

// DefaultIPCGenConfig is the base parameter point of the IPC sweep.  The
// topology is kept sparse (channels outnumber tasks, short programs) so the
// wait graph does not collapse into one all-task component — the static
// flag set has to discriminate for its containment bound to mean anything.
func DefaultIPCGenConfig() IPCGenConfig {
	return IPCGenConfig{
		Tasks:    5,
		Channels: 16,
		Ops:      3,
		PZeroCap: 0.25,
		MaxCap:   3,
		PDrop:    0.1,
		Fuse:     10_000,
	}
}

func (c IPCGenConfig) validate() error {
	switch {
	case c.Tasks < 1:
		return fmt.Errorf("fuzz: ipc: need at least one task")
	case c.Channels < 1:
		return fmt.Errorf("fuzz: ipc: need at least one channel")
	case c.Ops < 1:
		return fmt.Errorf("fuzz: ipc: need at least one op per task")
	case c.MaxCap < 1:
		return fmt.Errorf("fuzz: ipc: need MaxCap >= 1")
	case c.PDelay > 0 && c.MaxDelay < 1:
		return fmt.Errorf("fuzz: ipc: PDelay > 0 needs MaxDelay >= 1")
	case c.Fuse < 1:
		return fmt.Errorf("fuzz: ipc: need a positive round fuse")
	}
	return nil
}

// IPCOp is one instruction of a task's message program.
type IPCOp struct {
	Send    bool
	Ch      int
	Dropped bool // send only: lost in transit
	Delay   int  // send only: rounds in transit before receivers see it
	Dup     bool // send only: a second copy arrives if a slot is free
}

// IPCScenario is one generated message-passing workload.
type IPCScenario struct {
	Seed uint64
	Cfg  IPCGenConfig
	Caps []int     // channel capacities; 0 = rendezvous
	Ops  [][]IPCOp // per-task straight-line programs
}

// IPCScratch holds the reusable buffers of the three IPC phases.  One
// scratch serves any number of consecutive seeds of any geometry; the sweep
// keeps one per chunk, so once the buffers have grown to the chunk's
// largest seed, generating, deriving and executing a seed allocate
// nothing.  The scenario, static set and result core returned by the
// ...With functions live in the scratch: each is valid until the next call
// of the same phase on it.
type IPCScratch struct {
	sc IPCScenario
	st IPCStatic

	flags  []bool // st's Flagged | CountFlagged | Cyclic
	counts []int  // per channel: recvs | minSends | maxSends
	uses   []bool // task × channel: hasRecv | hasEffSend
	reach  []bool // task × task

	fill, avail, pc []int
	done            []bool
	arrivals        [][]int // channels landing at round r, in send order, at r % len
	core            []int
}

// zeroed returns buf resized to n zero elements, reusing its array when it
// is large enough.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// emptyRows returns buf resized to n empty rows.  Every row keeps its
// array, including rows past n, so a later, larger resize reuses them too.
func emptyRows[T any](buf [][]T, n int) [][]T {
	if cap(buf) < n {
		buf = append(buf[:cap(buf)], make([][]T, n-cap(buf))...)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = buf[i][:0]
	}
	return buf
}

// GenerateIPC builds the IPC scenario for one (seed, config) pair in a
// scratch of its own.
func GenerateIPC(seed uint64, cfg IPCGenConfig) (*IPCScenario, error) {
	return GenerateIPCWith(new(IPCScratch), seed, cfg)
}

// GenerateIPCWith builds the IPC scenario for one (seed, config) pair in
// is.  Equal inputs yield byte-identical scenarios: all randomness flows
// through one seeded splitmix64 stream drawn in a fixed order.
func GenerateIPCWith(is *IPCScratch, seed uint64, cfg IPCGenConfig) (*IPCScenario, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := det.New(seed)
	sc := &is.sc
	sc.Seed, sc.Cfg = seed, cfg
	sc.Caps = zeroed(sc.Caps, cfg.Channels)
	for c := range sc.Caps {
		if rng.Float64() < cfg.PZeroCap {
			sc.Caps[c] = 0
		} else {
			sc.Caps[c] = 1 + rng.Intn(cfg.MaxCap)
		}
	}
	sc.Ops = emptyRows(sc.Ops, cfg.Tasks)
	msgs := cfg.Tasks * cfg.Ops / 2
	if msgs < 1 {
		msgs = 1
	}
	for m := 0; m < msgs; m++ {
		c := rng.Intn(cfg.Channels)
		s := rng.Intn(cfg.Tasks)
		r := s
		if cfg.Tasks > 1 {
			// Receiver distinct from sender: a task cannot rendezvous with
			// itself, and self-delivery adds nothing the unit shapes don't
			// already pin.
			r = rng.Intn(cfg.Tasks - 1)
			if r >= s {
				r++
			}
		}
		op := IPCOp{Send: true, Ch: c, Dropped: rng.Float64() < cfg.PDrop}
		// The delay/dup draws are gated behind their probabilities so a
		// config with both at zero consumes exactly the pre-fault stream —
		// old (seed, config) pairs keep their byte-identical scenarios.
		if cfg.PDelay > 0 && rng.Float64() < cfg.PDelay {
			op.Delay = 1 + rng.Intn(cfg.MaxDelay)
		}
		if cfg.PDup > 0 {
			op.Dup = rng.Float64() < cfg.PDup
		}
		sc.Ops[s] = append(sc.Ops[s], op)
		sc.Ops[r] = append(sc.Ops[r], IPCOp{Ch: c})
	}
	return sc, nil
}

// IPCStatic is the statically derived over-approximation of which tasks a
// run of the scenario can leave irreducibly stuck.
type IPCStatic struct {
	// Flagged[t] reports whether task t is statically suspect.
	Flagged []bool
	// CountFlagged and Cyclic are the seed sets (kept for diagnostics).
	CountFlagged []bool
	Cyclic       []bool
}

// FlagCount returns the number of flagged tasks.
func (st *IPCStatic) FlagCount() int {
	n := 0
	for _, f := range st.Flagged {
		if f {
			n++
		}
	}
	return n
}

// DeriveIPC computes the static flag set of a scenario in a scratch of its
// own.
func DeriveIPC(sc *IPCScenario) *IPCStatic {
	return DeriveIPCWith(new(IPCScratch), sc)
}

// DeriveIPCWith computes the static flag set of a scenario in is.  Every
// per-task table is one flat plane indexed t*nC+c (task × channel) or
// t*nT+u (task × task).
func DeriveIPCWith(is *IPCScratch, sc *IPCScenario) *IPCStatic {
	nT, nC := sc.Cfg.Tasks, sc.Cfg.Channels
	is.counts = zeroed(is.counts, 3*nC)
	recvs := is.counts[:nC]          // total receive demands per channel
	minSends := is.counts[nC : 2*nC] // guaranteed supply: non-dropped sends, dups excluded (a dup is lost when the buffer is full)
	maxSends := is.counts[2*nC:]     // possible supply: non-dropped sends, dups counted twice
	is.uses = zeroed(is.uses, 2*nT*nC)
	hasRecv, hasEffSend := is.uses[:nT*nC], is.uses[nT*nC:]
	for t := range sc.Ops {
		for _, op := range sc.Ops[t] {
			if op.Send {
				if !op.Dropped {
					minSends[op.Ch]++
					maxSends[op.Ch]++
					if op.Dup {
						maxSends[op.Ch]++
					}
					hasEffSend[t*nC+op.Ch] = true
				}
			} else {
				recvs[op.Ch]++
				hasRecv[t*nC+op.Ch] = true
			}
		}
	}

	is.flags = zeroed(is.flags, 3*nT)
	flags := is.flags
	is.st = IPCStatic{
		Flagged:      flags[:nT:nT],
		CountFlagged: flags[nT : 2*nT : 2*nT],
		Cyclic:       flags[2*nT:],
	}
	st := &is.st

	// Count rules: a channel with more blocking demands than supply starves
	// (or sticks) someone; which task loses depends on ordering, so every
	// task on the losing side is flagged.  The two rules bracket the dup
	// uncertainty from opposite sides: receivers are starved against the
	// guaranteed minimum supply (a dup may be lost), senders overflow
	// against the possible maximum (a dup may land and hold a slot).
	for c := 0; c < nC; c++ {
		if recvs[c] > minSends[c] {
			for t := 0; t < nT; t++ {
				if hasRecv[t*nC+c] {
					st.CountFlagged[t] = true
				}
			}
		}
		surplus := maxSends[c] - recvs[c]
		if surplus > sc.Caps[c] {
			for t := 0; t < nT; t++ {
				if hasEffSend[t*nC+c] {
					st.CountFlagged[t] = true
				}
			}
		}
	}

	// Wait edges (self-edges included: a task feeding only itself can park
	// on its own channel forever).  A receive always waits on the channel's
	// effective senders; a send waits on the channel's receivers when it can
	// block at all — any rendezvous send, or a buffered send on a channel
	// whose possible supply (dups included) can overrun the capacity.  The
	// edges are written straight into reach, whose closure starts from them.
	is.reach = zeroed(is.reach, nT*nT)
	reach := is.reach
	for t := 0; t < nT; t++ {
		for c := 0; c < nC; c++ {
			if hasRecv[t*nC+c] {
				for u := 0; u < nT; u++ {
					if hasEffSend[u*nC+c] {
						reach[t*nT+u] = true
					}
				}
			}
			if hasEffSend[t*nC+c] && maxSends[c] > sc.Caps[c] {
				for u := 0; u < nT; u++ {
					if hasRecv[u*nC+c] {
						reach[t*nT+u] = true
					}
				}
			}
		}
	}

	// reach[t*nT+u]: u is reachable from t over >= 1 edge (Floyd-Warshall;
	// task counts are single digits).
	for k := 0; k < nT; k++ {
		for i := 0; i < nT; i++ {
			if !reach[i*nT+k] {
				continue
			}
			for j := 0; j < nT; j++ {
				if reach[k*nT+j] {
					reach[i*nT+j] = true
				}
			}
		}
	}
	for t := 0; t < nT; t++ {
		st.Cyclic[t] = reach[t*nT+t]
	}

	// Flag = seed sets plus anything that can reach a seed along wait edges.
	for t := 0; t < nT; t++ {
		st.Flagged[t] = st.CountFlagged[t] || st.Cyclic[t]
		for u := 0; u < nT && !st.Flagged[t]; u++ {
			if reach[t*nT+u] && (st.CountFlagged[u] || st.Cyclic[u]) {
				st.Flagged[t] = true
			}
		}
	}
	return st
}

// IPCExecResult is one executed run's fixed-size summary.
type IPCExecResult struct {
	Outcome Outcome // Completed, Wedged or FuseExceeded (never Deadlocked)
	Rounds  int
	// Core lists the tasks blocked at quiescence — irreducibly stuck, since
	// the executor is deterministic and nothing can ever step again.
	Core []int
	// Dropped counts send ops lost in transit.
	Dropped int
	// Delayed counts messages that spent at least one round in flight;
	// Duplicated counts duplicate copies that actually landed (a dup on a
	// full buffer is lost silently).
	Delayed    int
	Duplicated int
	// MismatchAt describes the first containment violation ("" = none): a
	// core task the static derivation did not flag.
	MismatchAt string
}

// ExecIPC runs a scenario round-robin to completion or quiescence in a
// scratch of its own and checks the core-containment invariant against st.
func ExecIPC(sc *IPCScenario, st *IPCStatic) IPCExecResult {
	return ExecIPCWith(new(IPCScratch), sc, st)
}

// ExecIPCWith runs a scenario round-robin to completion or quiescence in is
// and checks the core-containment invariant against st.  The result's Core
// lives in is.
func ExecIPCWith(is *IPCScratch, sc *IPCScenario, st *IPCStatic) IPCExecResult {
	nT, nC := sc.Cfg.Tasks, sc.Cfg.Channels
	// Two counters per buffered channel split occupancy from visibility:
	// fill is the slots reserved (a send blocks on it, a delayed or
	// duplicated message holds its slot from the moment the send completes)
	// and avail is the messages receivers can actually take (incremented
	// when the message arrives, op.Delay rounds after the send).
	is.fill, is.avail = zeroed(is.fill, nC), zeroed(is.avail, nC)
	is.pc, is.done = zeroed(is.pc, nT), zeroed(is.done, nT)
	fill, avail, pc, done := is.fill, is.avail, is.pc, is.done
	// A message sent in round r with delay d lands in round r+d, so with
	// delays of at most maxDelay a ring of maxDelay+1 rounds never holds
	// the round being drained.
	maxDelay := 0
	for _, ops := range sc.Ops {
		for _, op := range ops {
			maxDelay = max(maxDelay, op.Delay)
		}
	}
	is.arrivals = emptyRows(is.arrivals, maxDelay+1)
	arrivals := is.arrivals
	inFlight := 0
	res := IPCExecResult{}

	running := nT
	round := 0
	for running > 0 && round < sc.Cfg.Fuse {
		round++
		progress := false
		if due := &arrivals[round%len(arrivals)]; len(*due) > 0 {
			for _, c := range *due {
				avail[c]++
			}
			inFlight -= len(*due)
			*due = (*due)[:0]
			progress = true
		}
		deliver := func(c, delay int) {
			if delay <= 0 {
				avail[c]++
				return
			}
			res.Delayed++
			due := &arrivals[(round+delay)%len(arrivals)]
			*due = append(*due, c)
			inFlight++
		}
		for t := 0; t < nT; t++ {
			if done[t] {
				continue
			}
			if pc[t] >= len(sc.Ops[t]) {
				done[t] = true
				running--
				progress = true
				continue
			}
			op := sc.Ops[t][pc[t]]
			switch {
			case op.Send && op.Dropped:
				// Lost in transit: the sender proceeds, nothing arrives.
				res.Dropped++
				pc[t]++
				progress = true
			case op.Send && sc.Caps[op.Ch] == 0:
				// Rendezvous: pair with the lowest-index task parked at a
				// receive on this channel; both advance.
				for u := 0; u < nT; u++ {
					if u == t || done[u] || pc[u] >= len(sc.Ops[u]) {
						continue
					}
					if o := sc.Ops[u][pc[u]]; !o.Send && o.Ch == op.Ch {
						pc[t]++
						pc[u]++
						progress = true
						break
					}
				}
			case op.Send:
				if fill[op.Ch] < sc.Caps[op.Ch] {
					fill[op.Ch]++
					deliver(op.Ch, op.Delay)
					if op.Dup && fill[op.Ch] < sc.Caps[op.Ch] {
						// The duplicate needs its own slot; on a full buffer
						// it is lost, which is why the static derivation
						// counts dups only on the supply maximum.
						fill[op.Ch]++
						res.Duplicated++
						deliver(op.Ch, op.Delay)
					}
					pc[t]++
					progress = true
				}
			default: // receive
				if avail[op.Ch] > 0 {
					avail[op.Ch]--
					fill[op.Ch]--
					pc[t]++
					progress = true
				}
			}
		}
		if !progress && inFlight == 0 {
			break
		}
	}

	res.Rounds = round
	is.core = is.core[:0]
	for t := 0; t < nT; t++ {
		if !done[t] && pc[t] < len(sc.Ops[t]) {
			is.core = append(is.core, t)
		}
	}
	if len(is.core) > 0 {
		res.Core = is.core
	}
	switch {
	case len(res.Core) == 0:
		res.Outcome = Completed
	case round >= sc.Cfg.Fuse:
		res.Outcome = FuseExceeded
	default:
		res.Outcome = Wedged
	}
	for _, t := range res.Core {
		if !st.Flagged[t] {
			res.MismatchAt = fmt.Sprintf(
				"seed %d: task p%d is in the runtime IPC core but not statically flagged", sc.Seed, t)
			break
		}
	}
	return res
}

// IPCPoint is one parameter point of an IPC sweep.
type IPCPoint struct {
	Label string
	Gen   IPCGenConfig
}

// IPCSweep configures one IPC fuzz campaign.  Point p sweeps seeds
// BaseSeed+p*Seeds .. BaseSeed+(p+1)*Seeds-1.
type IPCSweep struct {
	Points   []IPCPoint
	Seeds    int
	BaseSeed uint64
	// ChunkSize is the streaming-aggregation unit (seeds per campaign job).
	// 0 defaults to 1024.
	ChunkSize int
}

// IPCAgg is the streaming accumulator for one chunk (and, merged, for one
// point): counters only, no per-seed state.
type IPCAgg struct {
	Seeds        int
	Completed    int
	Wedged       int
	FuseExceeded int

	FlaggedRuns int // runs with a non-empty static flag set
	CoreSum     int // stuck tasks across wedged runs
	FlagSum     int // statically flagged tasks across all runs
	DroppedSum  int
	DelayedSum  int
	DupSum      int
	RoundsSum   int

	Violations     int
	FirstViolation string
}

func (a *IPCAgg) fold(st *IPCStatic, res IPCExecResult) {
	a.Seeds++
	//deltalint:partial the IPC executor quiesces or trips the fuse; it never emits Deadlocked (that outcome belongs to the lock-scenario executor)
	switch res.Outcome {
	case Completed:
		a.Completed++
	case Wedged:
		a.Wedged++
	case FuseExceeded:
		a.FuseExceeded++
	}
	if fc := st.FlagCount(); fc > 0 {
		a.FlaggedRuns++
		a.FlagSum += fc
	}
	a.CoreSum += len(res.Core)
	a.DroppedSum += res.Dropped
	a.DelayedSum += res.Delayed
	a.DupSum += res.Duplicated
	a.RoundsSum += res.Rounds
	if res.MismatchAt != "" {
		a.Violations++
		if a.FirstViolation == "" {
			a.FirstViolation = res.MismatchAt
		}
	}
}

func (a *IPCAgg) merge(b *IPCAgg) {
	a.Seeds += b.Seeds
	a.Completed += b.Completed
	a.Wedged += b.Wedged
	a.FuseExceeded += b.FuseExceeded
	a.FlaggedRuns += b.FlaggedRuns
	a.CoreSum += b.CoreSum
	a.FlagSum += b.FlagSum
	a.DroppedSum += b.DroppedSum
	a.DelayedSum += b.DelayedSum
	a.DupSum += b.DupSum
	a.RoundsSum += b.RoundsSum
	a.Violations += b.Violations
	if a.FirstViolation == "" {
		a.FirstViolation = b.FirstViolation
	}
}

// IPCReport is the machine-readable IPC sweep output (structs and slices
// only, so marshaled bytes are worker-count independent).
type IPCReport struct {
	Config IPCReportConfig  `json:"config"`
	Points []IPCPointReport `json:"points"`
}

// IPCReportConfig echoes the sweep-level knobs.
type IPCReportConfig struct {
	SeedsPerPoint int    `json:"seeds_per_point"`
	BaseSeed      uint64 `json:"base_seed"`
	ChunkSize     int    `json:"chunk_size"`
}

// IPCPointReport is one parameter point's aggregate.
type IPCPointReport struct {
	Label string       `json:"label"`
	Gen   IPCGenConfig `json:"gen"`
	Seeds int          `json:"seeds"`

	Completed    int `json:"completed"`
	Wedged       int `json:"wedged"`
	FuseExceeded int `json:"fuse_exceeded"`

	// WedgeProbability vs StaticFlagProbability: static ⊇ runtime means the
	// latter bounds the former from above at every point (a wedged run has a
	// non-empty core, and every core task is flagged).
	WedgeProbability      float64 `json:"wedge_probability"`
	FlaggedRuns           int     `json:"flagged_runs"`
	StaticFlagProbability float64 `json:"static_flag_probability"`

	MeanCoreTasks    float64 `json:"mean_core_tasks"`
	MeanFlaggedTasks float64 `json:"mean_flagged_tasks"`
	MeanRounds       float64 `json:"mean_rounds"`
	DroppedSends     int     `json:"dropped_sends"`
	DelayedSends     int     `json:"delayed_sends"`
	DuplicatedSends  int     `json:"duplicated_sends"`

	Violations     int    `json:"violations"`
	FirstViolation string `json:"first_violation,omitempty"`
}

// JSON marshals the report deterministically (indented, struct field
// order).
func (r *IPCReport) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// RunIPCSweep executes the sweep on a pool of the given width.  Chunk
// boundaries are fixed by config, not worker count, and chunk accumulators
// merge per point in input order, so a parallel sweep is byte-identical to
// a sequential one.  A non-nil error means the core-containment invariant
// broke; the report is returned alongside so the witness is visible.
func RunIPCSweep(sw IPCSweep, workers int) (*IPCReport, error) {
	if len(sw.Points) == 0 {
		return nil, fmt.Errorf("fuzz: ipc sweep has no parameter points")
	}
	if sw.Seeds <= 0 {
		return nil, fmt.Errorf("fuzz: ipc sweep needs at least one seed per point")
	}
	for _, p := range sw.Points {
		if err := p.Gen.validate(); err != nil {
			return nil, fmt.Errorf("point %q: %w", p.Label, err)
		}
	}

	aggs, err := campaign.Sweep(len(sw.Points), sw.Seeds, sw.BaseSeed, sw.ChunkSize, workers,
		func(c campaign.Chunk, agg *IPCAgg) error {
			gen := sw.Points[c.Point].Gen
			var is IPCScratch // every buffer of the chunk's seeds
			for k := 0; k < c.Count; k++ {
				sc, err := GenerateIPCWith(&is, c.Seed+uint64(k), gen)
				if err != nil {
					return err
				}
				st := DeriveIPCWith(&is, sc)
				agg.fold(st, ExecIPCWith(&is, sc, st))
			}
			return nil
		}, (*IPCAgg).merge)
	if err != nil {
		return nil, err
	}

	rep := &IPCReport{Config: IPCReportConfig{
		SeedsPerPoint: sw.Seeds, BaseSeed: sw.BaseSeed, ChunkSize: chunkSize(sw.ChunkSize),
	}}
	totalViolations := 0
	witness := ""
	for p := range aggs {
		a := &aggs[p]
		rep.Points = append(rep.Points, ipcPointReport(sw.Points[p], a))
		totalViolations += a.Violations
		if witness == "" {
			witness = a.FirstViolation
		}
	}
	if totalViolations > 0 {
		return rep, fmt.Errorf("fuzz: ipc: %d core-containment violation(s); first: %s",
			totalViolations, witness)
	}
	return rep, nil
}

func ipcPointReport(p IPCPoint, a *IPCAgg) IPCPointReport {
	pr := IPCPointReport{
		Label:           p.Label,
		Gen:             p.Gen,
		Seeds:           a.Seeds,
		Completed:       a.Completed,
		Wedged:          a.Wedged,
		FuseExceeded:    a.FuseExceeded,
		FlaggedRuns:     a.FlaggedRuns,
		DroppedSends:    a.DroppedSum,
		DelayedSends:    a.DelayedSum,
		DuplicatedSends: a.DupSum,
		Violations:      a.Violations,
		FirstViolation:  a.FirstViolation,
	}
	if a.Seeds > 0 {
		n := float64(a.Seeds)
		pr.WedgeProbability = float64(a.Wedged+a.FuseExceeded) / n
		pr.StaticFlagProbability = float64(a.FlaggedRuns) / n
		pr.MeanCoreTasks = float64(a.CoreSum) / n
		pr.MeanFlaggedTasks = float64(a.FlagSum) / n
		pr.MeanRounds = float64(a.RoundsSum) / n
	}
	return pr
}

// DefaultIPCSweep is the stock message-loss curve: the drop probability
// swept upward over a mixed buffered/rendezvous topology, so the wedge
// probability climbs while the static bound stays above it.
func DefaultIPCSweep(seedsPerPoint int, baseSeed uint64) IPCSweep {
	drops := []float64{0, 0.05, 0.1, 0.2, 0.3}
	sw := IPCSweep{Seeds: seedsPerPoint, BaseSeed: baseSeed}
	for _, d := range drops {
		gen := DefaultIPCGenConfig()
		gen.PDrop = d
		sw.Points = append(sw.Points, IPCPoint{
			Label: fmt.Sprintf("drop=%.2f", d),
			Gen:   gen,
		})
	}
	return sw
}

// FaultIPCSweep layers the transit faults over the stock topology: delay
// alone (reordering pressure without count changes), duplication alone
// (supply surplus pushing senders toward overflow), and all three faults
// combined.  The containment invariant must hold across the whole overlay.
func FaultIPCSweep(seedsPerPoint int, baseSeed uint64) IPCSweep {
	sw := IPCSweep{Seeds: seedsPerPoint, BaseSeed: baseSeed}
	delay := DefaultIPCGenConfig()
	delay.PDelay, delay.MaxDelay = 0.3, 4
	dup := DefaultIPCGenConfig()
	dup.PDup = 0.25
	all := DefaultIPCGenConfig()
	all.PDelay, all.MaxDelay, all.PDup = 0.2, 3, 0.2
	sw.Points = append(sw.Points,
		IPCPoint{Label: "delay=0.30", Gen: delay},
		IPCPoint{Label: "dup=0.25", Gen: dup},
		IPCPoint{Label: "drop+delay+dup", Gen: all},
	)
	return sw
}
