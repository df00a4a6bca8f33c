package app

import (
	"deltartos/internal/races"
	"deltartos/internal/sim"
)

// Option configures a scenario build.  Scenario runners construct their
// simulations internally, so per-Sim injection (the replacement for the
// old sim.OnNew package global) threads through here: a campaign passes
// WithSimHooks and every Sim the scenario creates gets the hooks applied.
type Option func(*buildCfg)

type buildCfg struct {
	hooks *sim.Hooks
	races *races.Auditor
}

// WithSimHooks attaches creation hooks (typically a tracing recorder
// factory) to every simulation the scenario builds.  A nil h is valid and
// means no hooks — callers can thread an optional *sim.Hooks through
// unconditionally.
func WithSimHooks(h *sim.Hooks) Option {
	return func(c *buildCfg) { c.hooks = h }
}

// WithRaceAuditor attaches a runtime shadow-lockset auditor: the scenario
// feeds it every lock transition and every instrumented shared-location
// access, and its Reports must stay a subset of the races pass's static
// flags.  A nil auditor is valid and means no auditing (every hook is
// nil-receiver safe).
func WithRaceAuditor(a *races.Auditor) Option {
	return func(c *buildCfg) { c.races = a }
}

// newScenarioSim applies the options and creates the scenario's simulation.
// It also returns the WithRaceAuditor value (nil when unset).
func newScenarioSim(opts []Option) (*sim.Sim, *races.Auditor) {
	var cfg buildCfg
	for _, opt := range opts {
		opt(&cfg)
	}
	return sim.New(sim.WithHooks(cfg.hooks)), cfg.races
}
