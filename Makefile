GO ?= go
GOFMT ?= gofmt

.PHONY: tier1 build test vet lint lint-json race bench bench-detect prod-lines bench-fuzz-seed bench-fuzz bench-fuzz-ipc chaos ipc-chaos fuzz fuzz-ipc fuzz-targets

# tier1 is the merge gate: everything must build, vet and deltalint clean,
# and pass the test suite under the race detector.
tier1: vet lint build race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint fails on any tracked Go file outside testdata/ that gofmt would
# rewrite, runs the project's own static-analysis passes (lockorder,
# lockpair, claims, ceiling, memlife, determinism, tracekind, ipc, blocking,
# races — see DESIGN.md §8–§9, §12–§14, and `go run ./cmd/deltalint -list`),
# then enforces the wall-clock budget on a full-module lint of all ten passes
# (3400 ms unless DELTALINT_BUDGET_MS is already set, e.g. on slower
# machines; plain `go test ./...` checks no budget).
lint:
	@unformatted=$$(git ls-files '*.go' | grep -v '/testdata/' | xargs $(GOFMT) -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/deltalint ./...
	DELTALINT_BUDGET_MS=$${DELTALINT_BUDGET_MS:-3400} $(GO) test -run '^TestDeltalintTimeBudget$$' .

# lint-json is the CI artifact flavor: machine-readable findings plus the
# inferred resource-claims manifest, the static worst-case blocking
# bounds and the shared-location guard manifest.
lint-json:
	$(GO) run ./cmd/deltalint -json -claims claims-manifest.json -blocking deltalint-blocking.json -races deltalint-races.json ./... > deltalint.json

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

# prod-lines prints the production line count the ROADMAP tracks: every
# tracked non-test Go file outside _perfbench/ and testdata/.
prod-lines:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^_perfbench/' | grep -v '/testdata/' | xargs cat | wc -l

# bench-detect runs the detection-layer benchmarks — the PDDA reduction
# (per-cell engine and word-parallel graph scan) on dense and block-diagonal
# geometries, the DAA and DAU hand-off cycle on the block-diagonal shape,
# and the DDU model's detect — three times each with allocation counts.
# -short skips the 16kx16k point, whose per-cell sweep takes seconds per op.
bench-detect:
	$(GO) test -run '^$$' -bench 'BitsetReduce|AvoidRequest|Fig13DDUDetect' -benchmem -count 3 -short .

# bench-fuzz-seed runs the per-seed fuzz phase benchmarks — generate,
# derive, exec and the Banker differential over the DefaultSweep points, and
# generate, derive and exec over the DefaultIPCSweep points — three times
# each with allocation counts.
bench-fuzz-seed:
	$(GO) test -run '^$$' -bench 'FuzzSeed' -benchmem -count 3 .

# bench-fuzz runs the full-size generative sweep — 8 contention points x
# 125000 seeds = 1e6 scenarios, every one checked against the standing
# invariants including the engine differentials (bitset vs per-cell PDDA
# verdicts, cycle witnesses, Banker grant/refuse decisions) — and writes the
# deadlock-probability-vs-contention curve to BENCH_fuzz.json (CI checks it
# matches the committed file byte for byte, then uploads it).
bench-fuzz:
	$(GO) run ./cmd/deltasim -fuzz -fuzz-seeds 125000 -fuzz-report BENCH_fuzz.json

# bench-fuzz-ipc writes the wedge-probability-vs-message-loss curve — 5 drop
# points x 12500 random message topologies, each seed re-checked for static
# flags ⊇ runtime quiescence core — to BENCH_ipc_fuzz.json (CI checks it
# matches the committed file byte for byte, then uploads it).
bench-fuzz-ipc:
	$(GO) run ./cmd/deltasim -fuzz-ipc -fuzz-seeds 12500 -fuzz-report BENCH_ipc_fuzz.json

# fuzz is the generative-scenario smoke: a small seed budget under the race
# detector with a parallel pool, so the chunked streaming aggregation is
# exercised concurrently.  The binary exits nonzero if any sampled seed
# breaks an invariant (PDDA vs oracle, static ⊇ runtime, lint round-trip).
fuzz:
	$(GO) run -race ./cmd/deltasim -fuzz -fuzz-seeds 250 -parallel 4

# fuzz-targets runs each native Go fuzz target for a fixed time: FuzzReduce
# checks the word-parallel PDDA kernel against the per-cell engine on graphs
# of 1–130 processes.  Plain `go test ./...` replays only the seed corpus, so
# tier-1 does not depend on machine speed.
fuzz-targets:
	$(GO) test -run '^$$' -fuzz '^FuzzReduce$$' -fuzztime 15s ./internal/pdda

# fuzz-ipc is the IPC-topology smoke: random lossy message topologies under
# the race detector, every seed re-checking that the statically flagged task
# set contains the runtime quiescence core (nonzero exit on any violation).
fuzz-ipc:
	$(GO) run -race ./cmd/deltasim -fuzz-ipc -fuzz-seeds 400 -parallel 4

# chaos is the fault-injection smoke: a short seeded campaign on each lock
# system, under the race detector with a parallel worker pool so the sharded
# campaign engine is exercised, not just the sequential path.  Every seed
# must reach a classified terminal state (the binary exits nonzero on a
# panic, a data race, or an unexplained leak).
chaos:
	$(GO) run -race ./cmd/deltasim -chaos -chaos-seeds 3 -parallel 4 -chaos-system rtos5
	$(GO) run -race ./cmd/deltasim -chaos -chaos-seeds 3 -parallel 4 -chaos-system rtos6

# ipc-chaos is the message-fault smoke: seeded drop/delay/duplicate/jam
# campaigns on the producer/consumer ring, under the race detector with a
# parallel pool.  The timeout-hardened ring must never wedge — the binary
# exits nonzero if the retry/backoff machinery fails its liveness
# obligation — while the blocking variant is allowed to wedge (that contrast
# is the point; see DESIGN.md §12).
ipc-chaos:
	$(GO) run -race ./cmd/deltasim -ipc-chaos -ipc-chaos-seeds 6 -parallel 4 -ipc-chaos-variant timeout
	$(GO) run -race ./cmd/deltasim -ipc-chaos -ipc-chaos-seeds 6 -parallel 4 -ipc-chaos-variant blocking
