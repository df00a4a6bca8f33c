package app

import "deltartos/internal/sim"

// Option configures a scenario build.  Scenario runners construct their
// simulations internally, so per-Sim injection (the replacement for the
// old sim.OnNew package global) threads through here: a campaign passes
// WithSimHooks and every Sim the scenario creates gets the hooks applied.
type Option func(*buildCfg)

type buildCfg struct {
	hooks *sim.Hooks
}

// WithSimHooks attaches creation hooks (typically a tracing recorder
// factory) to every simulation the scenario builds.  A nil h is valid and
// means no hooks — callers can thread an optional *sim.Hooks through
// unconditionally.
func WithSimHooks(h *sim.Hooks) Option {
	return func(c *buildCfg) { c.hooks = h }
}

// newScenarioSim applies the options and creates the scenario's simulation.
func newScenarioSim(opts []Option) *sim.Sim {
	var cfg buildCfg
	for _, opt := range opts {
		opt(&cfg)
	}
	return sim.New(sim.WithHooks(cfg.hooks))
}
