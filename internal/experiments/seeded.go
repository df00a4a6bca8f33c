package experiments

import (
	"fmt"
	"strings"

	"deltartos/internal/campaign"
	"deltartos/internal/rtos"
	"deltartos/internal/sim"
)

// runSeeded is the seeded campaign both chaos runners share: job runs once
// per seed base..base+n-1 across rc.Workers() cores, each seed with its own
// trace shard, and the results come back in seed order.  The shards are
// adopted into rc.Session in seed order too, so a parallel campaign is
// byte-identical to a sequential one.
//
// On a seed failure the campaign still adopts the trace shards of every
// seed below the first failing one — those jobs are guaranteed executed and
// complete (the pool stops dispatching past a failure, never before it) —
// so a failing sweep loses no finished work and its trace output is
// deterministic.  Shards at or above the failing seed are dropped: whether
// those jobs ran depends on what was in flight when the error landed.
//
// A panic in a job (a task body's panic surfaces from the simulation's Run)
// fails that seed like an error, one that names the seed and carries the
// panic value, instead of taking the whole process down.
func runSeeded[R any](rc *RunCtx, n int, base uint64, job func(seed uint64, hooks *sim.Hooks) (R, error)) ([]R, error) {
	runs := make([]R, n)
	shards := make([]*RunCtx, n)
	failed := make([]bool, n)
	err := campaign.Run(n, rc.Workers(), func(i int) (err error) {
		seed := base + uint64(i)
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("seed %d: panic: %v", seed, r)
			}
			failed[i] = err != nil
		}()
		shards[i] = rc.Shard(fmt.Sprintf(".seed%d", seed))
		runs[i], err = job(seed, shards[i].SimHooks())
		return err
	})
	if rc != nil && rc.Session != nil {
		for i, shard := range shards {
			if failed[i] {
				break
			}
			rc.Session.Adopt(shard.Session)
		}
	}
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// taskCensus is the terminal-state census of a finished run: the last task
// activity (a finish or a kill) and every task left non-terminal, as
// "name:what-it-waits-on".  The last activity, not the simulation end, is
// the run's length (watchdog deadlines extend the event horizon).  When
// every task is stuck there is no finish or kill time to report, so the
// length is the time the simulation stopped (the fuse, or earlier if the
// event queue drained), not a bogus 0.
func taskCensus(k *rtos.Kernel, end sim.Cycles) (last sim.Cycles, stuck []string) {
	sawTerminal := false
	for _, t := range k.Tasks() {
		switch t.State() {
		case rtos.StateDone:
			sawTerminal = true
			if at, ok := t.Finished(); ok && at > last {
				last = at
			}
		case rtos.StateKilled:
			sawTerminal = true
			if t.KilledAt > last {
				last = t.KilledAt
			}
		default:
			what := t.BlockedOn()
			if what == "" {
				what = strings.ToLower(fmt.Sprint(t.State()))
			}
			stuck = append(stuck, t.Name+":"+what)
		}
	}
	if !sawTerminal && len(stuck) > 0 {
		last = end
	}
	return last, stuck
}
