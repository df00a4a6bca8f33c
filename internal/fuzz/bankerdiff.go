// The Banker differential: every fuzz seed's traffic is replayed through
// both Banker engines — the claim-wait DFS Banker and the claim-list
// RefBanker — and every grant/refuse decision is compared.  The replay is a
// deterministic round-robin over the scenario's task programs with claims
// taken from the static derivation, so both engines see byte-identical
// request/release streams.

package fuzz

import (
	"fmt"

	"deltartos/internal/daa"
)

// BankerDiffResult summarizes one seed's replay.
type BankerDiffResult struct {
	// Decisions is the number of grant/refuse decisions compared.
	Decisions int
	// Mismatch describes the first engine divergence ("" = none).
	Mismatch string
}

// BankerDiff is BankerDiffWith in a scratch of its own.
func BankerDiff(sc *Scenario, st *Static) BankerDiffResult {
	return BankerDiffWith(new(ExecScratch), sc, st)
}

// BankerDiffWith replays sc's traffic through the claim-wait Banker and
// the claim-list RefBanker under st's claim sets and compares every
// decision.  The engine pair and the replay state live in es; a pair of
// the scenario's size is reset, not rebuilt.
//
// Replay semantics (identical for both engines, chosen so the stream stays
// well-formed under refusals): an acquire of a resource the task already
// holds is skipped; a refused acquire is dropped (Banker's has no pending
// queue — the later matching release is then skipped too); a crash halts
// the task at its crash point, stranding what it holds; releases of
// resources not held (lost-release doubles, refused acquires) are skipped.
func BankerDiffWith(es *ExecScratch, sc *Scenario, st *Static) BankerDiffResult {
	cfg := sc.Cfg
	var out BankerDiffResult

	fast, ref, err := es.bankers(cfg.Tasks, cfg.Resources)
	if err != nil {
		out.Mismatch = "banker-diff: " + err.Error()
		return out
	}
	for t := 0; t < cfg.Tasks; t++ {
		claims := st.Claims(t)
		if err := fast.DeclareClaim(t, claims...); err != nil {
			out.Mismatch = "banker-diff: " + err.Error()
			return out
		}
		if err := ref.DeclareClaim(t, claims...); err != nil {
			out.Mismatch = "banker-diff: " + err.Error()
			return out
		}
	}

	m := cfg.Resources
	es.pc = zeroed(es.pc, cfg.Tasks)
	es.replayHeld = zeroed(es.replayHeld, cfg.Tasks*m)
	pc, held := es.pc, es.replayHeld // held[t*m+q]: task t holds q in the replay
	mismatch := func(format string, args ...any) {
		if out.Mismatch == "" {
			out.Mismatch = fmt.Sprintf("seed %d: banker-diff: ", sc.Seed) + fmt.Sprintf(format, args...)
		}
	}

	running := cfg.Tasks
	for running > 0 {
		progress := false
		for t := 0; t < cfg.Tasks; t++ {
			prog := &sc.Progs[t]
			if pc[t] < 0 {
				continue
			}
			if pc[t] == prog.CrashAt || pc[t] >= len(prog.Ops) {
				pc[t] = -1
				running--
				progress = true
				continue
			}
			op := prog.Ops[pc[t]]
			pc[t]++
			progress = true
			if op.Acquire {
				if held[t*m+op.Res] {
					continue
				}
				fastGrant, fastErr := fast.Request(t, op.Res)
				refGrant, refErr := ref.Request(t, op.Res)
				out.Decisions++
				if (fastErr == nil) != (refErr == nil) {
					mismatch("p%d req q%d: error divergence: bitset=%v ref=%v", t, op.Res, fastErr, refErr)
					return out
				}
				if fastGrant != refGrant {
					mismatch("p%d req q%d: bitset granted=%v ref granted=%v", t, op.Res, fastGrant, refGrant)
					return out
				}
				if fastGrant {
					held[t*m+op.Res] = true
				}
			} else if held[t*m+op.Res] {
				if err := fast.Release(t, op.Res); err != nil {
					mismatch("bitset release p%d q%d: %v", t, op.Res, err)
					return out
				}
				if err := ref.Release(t, op.Res); err != nil {
					mismatch("ref release p%d q%d: %v", t, op.Res, err)
					return out
				}
				held[t*m+op.Res] = false
			}
		}
		if !progress {
			break
		}
	}
	if fast.Refusals != ref.Refusals {
		mismatch("refusal totals diverge: bitset=%d ref=%d", fast.Refusals, ref.Refusals)
	}
	return out
}

// bankers returns the scratch's engine pair for a procs × resources system,
// reset to its state after construction; a pair of another size is
// replaced.
func (es *ExecScratch) bankers(procs, resources int) (*daa.Banker, *daa.RefBanker, error) {
	if es.fast != nil {
		if m, n := es.fast.Graph().Size(); m == resources && n == procs {
			es.fast.Reset()
			es.ref.Reset()
			return es.fast, es.ref, nil
		}
	}
	fast, err := daa.NewBanker(procs, resources)
	if err != nil {
		return nil, nil, err
	}
	ref, err := daa.NewRefBanker(procs, resources)
	if err != nil {
		return nil, nil, err
	}
	es.fast, es.ref = fast, ref
	return fast, ref, nil
}
