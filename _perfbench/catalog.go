package main

// spec declares one metric: its unit and which direction is better.
type spec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the metrics of an untraced run, reported for every
// workload (README.md says what each means per workload).
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// perLayer lists the metrics of a traced run.  Every traced run reports all
// of them; a layer the workload does not run reads 0.
func perLayer() []spec {
	out := []spec{
		{"trace.overhead_ratio", "ratio", "lower"},
		{"trace.span_coverage", "ratio", "higher"},
	}
	for _, id := range paperIDs {
		out = append(out, spec{"exp." + id + ".s", "s", "lower"})
	}
	out = append(out,
		spec{"sim.events", "count", "lower"},
		spec{"sim.end_cycle", "count", "lower"},
		spec{"sim.host_ns_per_event", "ns", "lower"},
		spec{"bus.transactions", "count", "lower"},
		spec{"bus.stall_cycles", "count", "lower"},
		spec{"rtos.kernel_calls", "count", "lower"},
		spec{"rtos.lock_ops", "count", "lower"},
		spec{"rtos.ipc_ops", "count", "lower"},
		spec{"socdmmu.allocs", "count", "lower"},
		spec{"ddu.detects", "count", "lower"},
		spec{"dau.avoids", "count", "lower"},
		spec{"fault.recovered", "count", "higher"},
	)
	for _, ph := range fuzzPhases {
		out = append(out, spec{"fuzz." + ph + ".s", "s", "lower"})
	}
	out = append(out,
		spec{"fuzz.exec.allocs", "allocs/op", "lower"},
		spec{"fuzz.banker_diff.allocs", "allocs/op", "lower"},
		spec{"campaign.busy_ratio", "ratio", "higher"},
		spec{"fuzz.seeds", "count", "higher"},
		spec{"fuzz.deadlocks", "count", "higher"},
		spec{"fuzz.banker_decisions", "count", "higher"},
		spec{"fuzz.lint_checked", "count", "higher"},

		spec{"framework.load.s", "s", "lower"},
		spec{"framework.load.alloc_mb", "MB", "lower"},
		spec{"framework.packages", "count", "lower"},
	)
	for _, name := range lintPassNames {
		out = append(out, spec{"passes." + name + ".s", "s", "lower"})
	}
	return append(out,
		spec{"passes.diagnostics", "count", "lower"},

		spec{"rag.mutate.ns", "ns", "lower"},
		spec{"rag.mutations", "count", "lower"},
		spec{"pdda.detect.us", "us", "lower"},
		spec{"pdda.detect.allocs", "allocs/op", "lower"},
		spec{"ddu.detect.us", "us", "lower"},
		spec{"ddu.detect.allocs", "allocs/op", "lower"},
		spec{"dau.request.us", "us", "lower"},
		spec{"dau.release.us", "us", "lower"},
		spec{"dau.allocs_per_cmd", "allocs/op", "lower"},
		spec{"daa.request.us", "us", "lower"},
		spec{"daa.release.us", "us", "lower"},
		spec{"daa.grant_scans_per_release", "count", "lower"},
		spec{"verdict.deadlock_ratio", "ratio", "higher"},
		spec{"verdict.p50_us", "us", "lower"},
		spec{"verdict.p90_us", "us", "lower"},
	)
}
