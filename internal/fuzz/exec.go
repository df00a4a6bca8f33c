// The abstract executor: a deterministic round-robin scheduler running a
// scenario's task programs against the paper's RAG, with periodic PDDA
// detection scans standing in for the hardware DDU.  Time is measured in
// scheduler rounds (one attempted op per runnable task per round) — the
// abstract analogue of bus cycles, good enough for detection-latency
// distributions and phase-transition curves at 10⁵+ seeds.

package fuzz

import (
	"fmt"

	"deltartos/internal/daa"
	"deltartos/internal/pdda"
	"deltartos/internal/rag"
)

// Outcome classifies one executed run.
type Outcome uint8

const (
	// Completed: every task ran to the end of its program (or its crash
	// point) and every resource was released or is held by a terminated
	// task without blocking anyone.
	Completed Outcome = iota
	// Deadlocked: a PDDA detection scan reported deadlock.
	Deadlocked
	// Wedged: execution quiesced with tasks blocked but no RAG cycle —
	// starvation on a resource held forever (lost release, crash).
	Wedged
	// FuseExceeded: the round fuse tripped before a terminal state.
	FuseExceeded

	// OutcomeCount is the dense-enum sentinel.
	OutcomeCount
)

// String names the outcome for tables and reports.
func (o Outcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case Deadlocked:
		return "deadlocked"
	case Wedged:
		return "wedged"
	case FuseExceeded:
		return "fuse-exceeded"
	case OutcomeCount:
		return "invalid"
	}
	return "invalid"
}

// ExecResult is one run's streamed-out summary (fixed size, no per-step
// retention).
type ExecResult struct {
	Outcome Outcome
	// Rounds is the scheduler round count at termination.
	Rounds int
	// FormRound is the round the oracle first saw a RAG cycle (-1 = never).
	FormRound int
	// DetectRound is the round the periodic PDDA scan reported deadlock
	// (-1 = never).  DetectRound-FormRound is the detection latency.
	DetectRound int
	// CycleLen is the process count of the witness cycle at formation.
	CycleLen int
	// Blocked counts acquire attempts that blocked at least once.
	Blocked int
	// MismatchAt describes the first invariant violation ("" = none):
	// PDDA-vs-oracle disagreement, matrix validation failure, a detection
	// without formation, or a runtime held-set outside the static claims.
	MismatchAt string
}

// intSliceEq reports element-wise equality, treating nil and empty alike
// only when both are empty.
func intSliceEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// taskState is the executor's per-task runtime.
type taskState struct {
	pc            int
	blocked       bool // an acquire is outstanding (request edge in the RAG)
	done          bool
	crashed       bool
	everBlock     bool
	blockedRounds int // rounds spent with the acquire outstanding
}

// ExecScratch holds the reusable buffers of the four lock-sweep phases:
// the scenario GenerateWith builds, DeriveWith's static view and its
// claim, edge and DFS buffers, ExecWith's graph, task states, claim plane,
// validation matrix and detection scratch, and BankerDiffWith's engine
// pair and replay state.  One scratch serves any number of consecutive
// seeds of any geometry; the sweep keeps one per campaign chunk, so once
// the buffers have grown to the chunk's largest seed, generating,
// deriving and replaying a seed allocate nothing and executing one
// allocates only in its per-cell references.  The scenario and static
// view the ...With functions return live in the scratch: each is valid
// until the next call of the same phase on it.
type ExecScratch struct {
	sc          Scenario
	names       []string // names[t] = "p<t>", interned across seeds
	held, stack []int    // a task's held list and lock stack (Generate); held list (Derive)

	st          Static
	flat, edges []int // the claim lists' backing array; lock-order edge keys
	color       []uint8
	frames      []orderFrame

	g       *rag.Graph
	tasks   []taskState
	claimed []bool      // task × resource: the static claim sets as a plane
	mx      *rag.Matrix // the validated image of g
	det     pdda.Scratch

	fast       *daa.Banker
	ref        *daa.RefBanker
	pc         []int
	replayHeld []bool // task × resource: held in the Banker replay
}

// Exec runs a scenario to a terminal state in a scratch of its own.
func Exec(sc *Scenario, st *Static, oracleAll bool) ExecResult {
	return ExecWith(new(ExecScratch), sc, st, oracleAll)
}

// ExecWith runs a scenario to a terminal state.  oracleAll additionally
// checks PDDA against the HasCycle oracle and rag.Matrix.Validate at every
// detection scan (the sampled-seed deep cross-check); the cheap invariants —
// including the standing engine differential, word-parallel verdict versus
// the per-cell reference engine — are checked on every run.
func ExecWith(es *ExecScratch, sc *Scenario, st *Static, oracleAll bool) ExecResult {
	cfg := sc.Cfg
	// The graph and its validation image are built together, at one size.
	if es.g == nil || es.mx.M != cfg.Resources || es.mx.N != cfg.Tasks {
		es.g = rag.NewGraph(cfg.Resources, cfg.Tasks)
		es.mx = rag.NewMatrix(cfg.Resources, cfg.Tasks)
	} else {
		es.g.Reset()
	}
	g := es.g
	es.tasks = zeroed(es.tasks, cfg.Tasks)
	tasks := es.tasks
	res := ExecResult{FormRound: -1, DetectRound: -1}

	mismatch := func(format string, args ...any) {
		if res.MismatchAt == "" {
			res.MismatchAt = fmt.Sprintf("seed %d: ", sc.Seed) + fmt.Sprintf(format, args...)
		}
	}
	// detect runs PDDA on g and, when asked, validates g's state matrix.
	detect := func(validate bool) (deadlock bool, invalid error) {
		if validate {
			g.MatrixInto(es.mx)
			invalid = es.mx.Validate()
		}
		deadlock, _ = pdda.DetectGraphInto(&es.det, g)
		return deadlock, invalid
	}

	// The claims audit: the runtime held-union per task must stay inside
	// the statically derived claim set.  Acquisition order is audited at
	// grant time below.
	m := cfg.Resources
	es.claimed = zeroed(es.claimed, cfg.Tasks*m)
	claimed := es.claimed
	for t := range tasks {
		for _, r := range st.Claims(t) {
			claimed[t*m+r] = true
		}
	}

	running := cfg.Tasks
	round := 0
	for running > 0 && round < cfg.Fuse {
		round++
		progress := false
		for t := range tasks {
			ts := &tasks[t]
			if ts.done || ts.crashed {
				continue
			}
			prog := &sc.Progs[t]
			if ts.pc == prog.CrashAt {
				// The crash fault: halt here, holding everything held.
				// An outstanding request is withdrawn (the task will never
				// consume a grant).
				if ts.blocked {
					g.RemoveRequest(prog.Ops[ts.pc].Res, t)
				}
				ts.crashed = true
				running--
				progress = true
				continue
			}
			if ts.pc >= len(prog.Ops) {
				ts.done = true
				running--
				progress = true
				continue
			}
			op := prog.Ops[ts.pc]
			if op.Acquire {
				holder := g.Holder(op.Res)
				if holder == -1 {
					if err := g.SetGrant(op.Res, t); err != nil {
						mismatch("grant q%d to p%d: %v", op.Res, t, err)
					}
					if !claimed[t*m+op.Res] {
						mismatch("p%d acquired q%d outside its static claim set", t, op.Res)
					}
					ts.blocked = false
					ts.pc++
					progress = true
				} else {
					if !ts.blocked {
						// First blocking attempt: the request edge appears,
						// the only event that can close a RAG cycle.
						g.AddRequest(op.Res, t)
						ts.blocked = true
						ts.everBlock = true
						res.Blocked++
						if res.FormRound < 0 && g.HasCycle() {
							res.FormRound = round
							res.CycleLen = len(g.Cycle())
						}
					}
					ts.blockedRounds++
				}
			} else {
				if err := g.Release(op.Res, t); err != nil {
					mismatch("release q%d by p%d: %v", op.Res, t, err)
				}
				ts.pc++
				progress = true
			}
		}

		scan := round%cfg.DetectEvery == 0
		if scan && res.DetectRound < 0 {
			deadlock, invalid := detect(oracleAll)
			if oracleAll {
				if want := g.HasCycle(); deadlock != want {
					mismatch("round %d: PDDA=%v, HasCycle oracle=%v", round, deadlock, want)
				}
				if want := pdda.DetectGraphCells(g); deadlock != want {
					mismatch("round %d: bitset engine=%v, cell engine=%v", round, deadlock, want)
				}
				if invalid != nil {
					mismatch("round %d: %v", round, invalid)
				}
			}
			if deadlock {
				res.DetectRound = round
				if res.FormRound < 0 {
					mismatch("round %d: PDDA detected a deadlock the oracle never saw form", round)
				}
				break
			}
		}
		if !progress && !g.HasCycle() {
			// Quiescent with no live cycle: starvation, not deadlock.  (A
			// formed cycle can still die here — a blocked member crashing
			// withdraws its request — so the check is on the current graph,
			// not on FormRound.  With a live cycle we keep idling so the
			// periodic scan detects it at its own cadence — that wait is
			// the detection latency.)
			break
		}
	}

	// Classification + terminal cross-check (every run, sampled or not).
	// This is the standing differential invariant: on every seed, the packed
	// word-parallel engines must agree with the per-cell reference engines —
	// identical PDDA verdicts and identical cycle witnesses.
	deadlock, invalid := detect(true)
	if want := g.HasCycle(); deadlock != want {
		mismatch("terminal: PDDA=%v, HasCycle oracle=%v", deadlock, want)
	}
	if want := pdda.DetectGraphCells(g); deadlock != want {
		mismatch("terminal: bitset engine=%v, cell engine=%v", deadlock, want)
	}
	if want := g.HasCycleRef(); g.HasCycle() != want {
		mismatch("terminal: HasCycle=%v, per-cell ref=%v", !want, want)
	}
	if got, want := g.Cycle(), g.CycleRef(); !intSliceEq(got, want) {
		mismatch("terminal: cycle witness %v, per-cell ref %v", got, want)
	}
	if invalid != nil {
		mismatch("terminal: %v", invalid)
	}
	res.Rounds = round
	switch {
	case res.DetectRound >= 0:
		res.Outcome = Deadlocked
		if !st.HasCycle() {
			// The standing static ⊇ runtime invariant.
			mismatch("runtime deadlock but the static lock-order graph is acyclic")
		}
	case running == 0:
		res.Outcome = Completed
		if deadlock {
			mismatch("terminal: all tasks done but PDDA still reports deadlock")
		}
		if !st.HasCycle() {
			// The abstract analogue of the blocking pass's worst-case bound:
			// with an acyclic static lock-order graph, a completed run's
			// round-robin scheduler gives every blocked task's chain a
			// progress step each round, so a task can wait at most the other
			// tasks' total step budget (ops + grant/terminate transitions)
			// plus one detection period of idle slack.
			for t := range tasks {
				limit := cfg.DetectEvery
				for o := range tasks {
					if o != t {
						limit += len(sc.Progs[o].Ops) + 2
					}
				}
				if tasks[t].blockedRounds > limit {
					mismatch("p%d blocked %d rounds, exceeding the static blocking bound %d (acyclic lock-order graph)",
						t, tasks[t].blockedRounds, limit)
				}
			}
		}
	case round >= cfg.Fuse:
		res.Outcome = FuseExceeded
	default:
		res.Outcome = Wedged
	}
	return res
}
