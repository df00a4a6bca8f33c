package experiments

import (
	"fmt"

	"deltartos/internal/sim"
	"deltartos/internal/trace"
)

// RunCtx is the per-run injection context that replaced the sim.OnNew
// package global: everything an experiment needs to attach tracing to the
// simulations it builds, plus the worker budget for experiments that sweep
// internally (the chaos campaign).  A nil *RunCtx is valid and means
// "sequential, tracing off" — every method is nil-receiver safe.
type RunCtx struct {
	// Parallel is the worker-pool width for internal sweeps; <=1 runs
	// sequentially.  Output is byte-identical either way.
	Parallel int
	// Session collects the recorders of every simulation this run builds,
	// in deterministic order.  Nil disables tracing.
	Session *trace.Session
	// Label prefixes recorder labels ("<label>#<n>"); the driver sets it
	// to the experiment id.
	Label string
}

// Workers returns the effective worker-pool width (always >= 1).
func (rc *RunCtx) Workers() int {
	if rc == nil || rc.Parallel <= 1 {
		return 1
	}
	return rc.Parallel
}

// SimHooks returns hooks that label and register a recorder for every Sim
// built under this context, or nil when tracing is off.  The hooks append
// to rc.Session and are therefore only safe within one sequential job; a
// parallel sweep gives each job its own shard context (see Shard).
func (rc *RunCtx) SimHooks() *sim.Hooks {
	if rc == nil || rc.Session == nil {
		return nil
	}
	sess, label := rc.Session, rc.Label
	if label == "" {
		label = "run"
	}
	return &sim.Hooks{OnNew: func(s *sim.Sim) {
		s.Rec = sess.NewRecorder(fmt.Sprintf("%s#%d", label, sess.Len()))
	}}
}

// Shard derives the context for one job of a parallel sweep: a private
// session (trace sessions are not safe for concurrent registration) and a
// label derived from the job's input index, so recorder labels — and hence
// trace exports — do not depend on worker interleaving.  Callers adopt the
// shard sessions into rc.Session in input order after the sweep.
func (rc *RunCtx) Shard(suffix string) *RunCtx {
	if rc == nil || rc.Session == nil {
		return nil
	}
	label := rc.Label
	if label == "" {
		label = "run"
	}
	return &RunCtx{Session: trace.NewSession(), Label: label + suffix}
}

// Counters merges the counters of every recorder this context registered
// (nil when tracing is off).
func (rc *RunCtx) Counters() map[string]uint64 {
	if rc == nil || rc.Session == nil {
		return nil
	}
	return rc.Session.Counters()
}
