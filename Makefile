# Mirrors .github/workflows/ci.yml exactly: every CI step is one of
# these targets, so `make ci` reproduces the pipeline locally.

GO ?= go

.PHONY: all build lint analyze docs-check api-check bench-check bench-smoke test test-full test-fuzz determinism bench bench-json bench-diff ci

all: build

build:
	$(GO) build ./...
	$(GO) build ./examples/...

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# The cloudlint analyzer suite (internal/lint): map-iteration-order and
# float-accumulation determinism checks, wall-clock/global-RNG/env bans
# in deterministic packages, the apibound public-API boundary rules on
# the real import graph, and the errwrap typed-error taxonomy. The tree
# must be analyzer-clean: every intentional exception carries a
# justified //cloudlint:<name> directive.
analyze: bin/cloudlint
	./bin/cloudlint ./...

bin/cloudlint: $(shell find internal/lint cmd/cloudlint -name '*.go' -not -path '*/testdata/*' 2>/dev/null)
	$(GO) build -o bin/cloudlint ./cmd/cloudlint

# Godoc coverage: every exported identifier (and every package) in
# internal/... and the public guarantee package needs a doc comment.
docs-check:
	$(GO) vet ./internal/... ./guarantee/...
	./scripts/docs-check.sh

# Public-API boundary: cmd/ and examples/ obtain admission only through
# the guarantee package (no internal admitter/cluster/placer usage).
# The script is a thin wrapper over `cloudlint -apibound`.
api-check:
	./scripts/api-check.sh

# bench/ is its own module (bench/go.mod replaces cloudmirror => ../), so
# `go build ./...` at the root never compiles it: vet it and run its
# short tests against the guarantee/dataplane API of this checkout.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# One short run of the repository's benchmark on the workload where the
# placement search does nearly all the work (≈5 s after the build) and
# one on the workload where every control period is a full solve (≈3 s:
# every tenant redeclares, membership churns). The benchmark exits
# non-zero on a failed operation or a failed correctness check —
# capacity invariant, tallies, decisions, MinRatio ≥ 1 on every period —
# and never on a timing, so this guards what the search and the control
# loop decide, not how fast.
bench-smoke:
	bash bench/run.sh --workload lib_packed --seconds 1 --trace 0
	bash bench/run.sh --workload enforce_storm --seconds 1 --trace 0

# Short suite under the race detector: what CI runs on every push.
# Includes the concurrent-admission stress tests and the quick
# parallel-determinism checks.
test:
	$(GO) test -short -race ./...

# The full suite, including the multi-simulation experiment shape tests
# and the all-figure determinism sweep (minutes, scales with cores).
test-full:
	$(GO) test -race ./...

# Short coverage-guided fuzz smoke over the two parsers that face
# untrusted bytes at recovery time — the grant-event codec (seeded from
# the committed golden wire corpus) and the WAL frame scanner — plus
# the event-driven max-min solver, differentially fuzzed against the
# progressive-filling reference for Float64bits-identical rates (its
# seed corpus includes instances at, just under and just over a link's
# capacity, either side of the solver's "every cap fits" return), and
# the placement search's bandwidthFit against its linear-scan reference
# (the fuzzer picks the TAG and both budgets). Ten
# seconds each is enough to exercise the mutation engine over every
# seed shape without slowing CI; run longer locally with
# `go test -fuzz ... -fuzztime 5m`.
FUZZTIME ?= 10s
test-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzEventCodec -fuzztime $(FUZZTIME) ./internal/place
	$(GO) test -run '^$$' -fuzz FuzzScan -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzMaxMin -fuzztime $(FUZZTIME) ./internal/netem
	$(GO) test -run '^$$' -fuzz FuzzBandwidthFit -fuzztime $(FUZZTIME) ./internal/place/cloudmirror

# Same seed => bit-identical tables at every worker count, exercised at
# several GOMAXPROCS values. Covers the experiment sweeps (including
# the churn and admission sweeps), the sharded churn simulator itself
# (locked and optimistic admission paths, with and without the
# enforcement dataplane), the dataplane's TestDifferential* harnesses
# (incremental vs FullRecompute byte for byte, cached aggregates vs a
# fold over Pairs, kept link loads vs a from-scratch fold, one-solve
# settling, Converge vs the rate-copy rule, contention-aware
# components vs a whole-fabric oracle to 1e-6 Mbps per pair, a link
# driven slack → contended → inside the margin band → slack, components
# sharing a slack link solved in parallel), the max-min solver's
# TestDifferentialFitsShortcut (the "every cap fits" return and its
# fall-through vs MaxMinReference, Float64bits, with the tightest link
# parked at every distance from capacity), the optimistic-vs-locked
# output-identity check, the commit-pipeline identity and
# mixed-lifecycle stress checks (flat-combining queue vs the locked
# Admitter, byte for byte), the placement search's TestDifferential*
# harnesses (dirty-node Sync vs a sync that re-prices every touched
# node, bandwidthFit vs the linear scan, a kept Colocate scan vs a fresh
# one on every reuse of a packed-churn replay),
# and the crash-recovery identity check (kill a durable service
# mid-churn, recover from WAL + snapshot, demand a byte-identical
# admission trace and final ledger).
determinism:
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run TestParallelDeterminism ./internal/experiments
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestChurnDeterminism|TestChurnResizeDeterminism|TestEnforceChurnDeterminism|TestEnforceChurnIncrementalMatchesFull|TestChurnOptimisticMatchesLocked|TestChurnResizeOptimisticMatchesLocked' ./internal/sim
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestCommitPipelineDeterminism|TestCommitPipelineMixedStress|TestDifferential' ./internal/place
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestDifferential' ./internal/place/cloudmirror
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestDifferential' ./internal/dataplane
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestDifferential' ./internal/netem
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestCrashRecoveryDeterminism|TestDurableMatchesInMemory|TestGroupCommit' ./guarantee

# One iteration of every per-artifact benchmark: regenerates the quick
# experiment suite and the admission-throughput numbers.
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x .

# Machine-readable admission throughput (locked vs optimistic at 1/4/8
# goroutines) plus enforcement control-loop throughput and convergence
# latency vs tenant count; both JSONs are committed as the baseline so
# the perf trajectory is tracked per commit. 512 servers: the smallest
# spec with room for the full 8/32/128-tenant enforcement sweep.
bench-json:
	$(GO) run ./cmd/admbench -servers 512 -out BENCH_admission.json -enforce-out BENCH_enforce.json

# Regenerate the benchmarks into scratch files and diff them against
# the committed baselines, metric by metric; fails on any throughput
# regression beyond the BENCH_FAIL fraction (default 50%). Pass
# BENCH_FAIL=0 for a report-only run. Not part of `make ci`: the
# single-sample gate fails on noise against BENCH_admission.json with
# no code change to blame (ROADMAP item 1, which deletes it).
BENCH_FAIL ?= 0.5
bench-diff:
	@status=0; \
	$(GO) run ./cmd/admbench -servers 512 -out BENCH_admission.cand.json -enforce-out BENCH_enforce.cand.json || status=$$?; \
	if [ $$status -eq 0 ]; then \
		$(GO) run ./cmd/benchdiff -old BENCH_admission.json -new BENCH_admission.cand.json -fail $(BENCH_FAIL) || status=$$?; \
		$(GO) run ./cmd/benchdiff -old BENCH_enforce.json -new BENCH_enforce.cand.json -fail $(BENCH_FAIL) || status=$$?; \
	fi; \
	rm -f BENCH_admission.cand.json BENCH_enforce.cand.json; \
	exit $$status

ci: lint analyze docs-check api-check build bench-check bench-smoke test test-fuzz determinism bench
