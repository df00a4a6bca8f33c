package passes

// LockPair returns the lockpair analyzer: it lowers every task body and
// function onto the framework's control-flow graphs and runs the lock-flow
// dataflow engine, reporting paths where an acquired lock is not released,
// a release has no matching acquire, a lock is re-acquired while held, or
// branches leave differing lock sets.
func LockPair() *Analyzer {
	return &Analyzer{
		Name: "lockpair",
		Doc: "check acquire/release pairing along every static path\n\n" +
			"Each Acquire/AcquireShort/Request/Lock must be matched by the\n" +
			"corresponding release on every path out of the task body, loop\n" +
			"iteration, and conditional branch.  The check runs as a forward\n" +
			"dataflow problem over the function's CFG (branch-, loop- and\n" +
			"defer-aware).  Scenarios that hold locks intentionally (deadlock\n" +
			"experiments) are annotated //deltalint:deadlock-expected on the\n" +
			"scenario function.",
		Requires: []*Analyzer{lockFlowAnalyzer},
		Run:      runLockPair,
	}
}

func runLockPair(pass *Pass) (any, error) {
	rep := pass.ResultOf[lockFlowAnalyzer].(*flowReport)
	for _, scope := range rep.scopes {
		if scope.expected {
			// Deadlock experiments end with tasks blocked while holding
			// locks by design; pairing checks would only restate that.
			continue
		}
		for _, f := range scope.findings {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil, nil
}
