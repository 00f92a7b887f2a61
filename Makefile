# Mirrors .github/workflows/ci.yml exactly: every CI step is one of
# these targets, so `make ci` reproduces the pipeline locally.

GO ?= go

.PHONY: all build lint analyze docs-check bench-check bench-smoke examples test test-full test-fuzz determinism bench ci

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
# the real import graph (cmd/ and examples/ obtain admission only
# through the guarantee package), and the errwrap typed-error taxonomy.
# The tree must be analyzer-clean: every intentional exception carries
# a justified //cloudlint:<name> directive.
analyze: bin/cloudlint
	./bin/cloudlint ./...

bin/cloudlint: $(shell find internal/lint cmd/cloudlint -name '*.go' -not -path '*/testdata/*' 2>/dev/null)
	$(GO) build -o bin/cloudlint ./cmd/cloudlint

# Godoc coverage: every exported identifier (and every package) in
# internal/... and the public guarantee package needs a doc comment;
# the narrative docs keep their contract sections, and every test,
# bwd/simulate flag and Go symbol they cite exists.
docs-check:
	$(GO) vet ./internal/... ./guarantee/...
	./scripts/docs-check.sh

# bench/ is its own module (bench/go.mod replaces cloudmirror => ../), so
# `go build ./...` at the root never compiles it: vet it and run its
# short tests against the guarantee/dataplane API of this checkout.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# One short run of the repository's benchmark on the workload where the
# placement search does nearly all the work (≈5 s after the build), two
# on the control loop — one where every period is a full solve (≈3 s:
# every tenant redeclares, membership churns) and one where 1% of the
# tenants redeclare, both through the closed-form slack solve — one on
# the in-memory daemon over loopback HTTP (its admit path is Admit's),
# and one on the durable daemon, which ends in kill -9 and recovery
# from the write-ahead log.
# The benchmark exits non-zero on a failed operation or a failed
# correctness check — capacity invariant, tallies, decisions,
# MinRatio ≥ 1 on every period, recovered state equal to the
# acknowledged one — and never on a timing, so this guards what the
# search, the control loop and recovery decide, not how fast.
bench-smoke:
	bash bench/run.sh --workload lib_packed --seconds 1 --trace 0
	bash bench/run.sh --workload enforce_storm --seconds 1 --trace 0
	bash bench/run.sh --workload enforce_steady --seconds 1 --trace 0
	bash bench/run.sh --workload http_light --seconds 1 --trace 0
	bash bench/run.sh --workload http_durable --seconds 1 --trace 0

# Build and run every program under examples/ (≈6 s on 2 vCPUs, nearly
# all of it examples/enforcement's paced loopback TCP). Each example
# exits non-zero on an error or a broken guarantee, so a walkthrough
# that stops working fails here rather than only compiling.
examples:
	@set -e; for d in examples/*/; do \
		echo "== $${d%/}"; $(GO) run ./$${d%/}; done

# Short suite under the race detector: what CI runs on every push.
# Includes the concurrent-admission stress tests and the quick
# parallel-determinism checks.
test:
	$(GO) test -short -race ./...

# The full suite, including the multi-simulation experiment shape tests
# and the all-figure determinism sweep (minutes, scales with cores).
test-full:
	$(GO) test -race ./...

# Short coverage-guided fuzz smoke over the parsers that face
# untrusted bytes — the HTTP admit handler (never a panic or a 5xx,
# every refusal the error envelope, and the one-pass body decode
# accepting exactly the bodies the two-pass *tag.Graph decode accepts,
# with the same graph), and at recovery time the grant-event codec
# (seeded from the committed golden wire corpus) and the WAL frame
# scanner — plus
# the event-driven max-min solver, every answer checked against the
# max-min certificate netem.Check (its seed corpus includes instances
# at, just under and just over a link's capacity, either side of the
# solver's "every cap fits" return, a zero-capacity link, a link crossed
# twice and an unbounded link), the
# dataplane's closed-form slack solve against the general RA/max-min
# path for Float64bits-identical limits, rates and aggregates (the
# fuzzer picks the guarantee, the loads, alpha and poked limits), and
# the placement search's bandwidthFit against its linear-scan reference
# (the fuzzer picks the TAG and both budgets). Ten
# seconds each is enough to exercise the mutation engine over every
# seed shape without slowing CI; run longer locally with
# `go test -fuzz ... -fuzztime 5m`.
FUZZTIME ?= 10s
test-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzHTTPAdmit -fuzztime $(FUZZTIME) ./guarantee
	$(GO) test -run '^$$' -fuzz FuzzEventCodec -fuzztime $(FUZZTIME) ./internal/place
	$(GO) test -run '^$$' -fuzz FuzzScan -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzMaxMin -fuzztime $(FUZZTIME) ./internal/netem
	$(GO) test -run '^$$' -fuzz FuzzSlackSolve -fuzztime $(FUZZTIME) ./internal/dataplane
	$(GO) test -run '^$$' -fuzz FuzzBandwidthFit -fuzztime $(FUZZTIME) ./internal/place/cloudmirror

# Same seed => bit-identical tables at every worker count, exercised at
# several GOMAXPROCS values. Covers the experiment sweeps (including
# the churn sweep), the sharded churn simulator itself (with and
# without elastic resizes and the enforcement dataplane), the
# dataplane's TestDifferential* harnesses
# (incremental vs full recompute byte for byte, cached aggregates vs a
# fold over Pairs, kept link loads vs a from-scratch fold, one-solve
# settling, Converge vs the rate-copy rule, contention-aware
# components vs a whole-fabric oracle to 1e-6 Mbps per pair, a link
# driven slack → contended → inside the margin band → slack, components
# sharing a slack link solved in parallel, the closed-form slack solve
# vs the general RA/max-min path by Float64bits; every period's rates
# certified by netem.Check), the max-min solver's
# TestDifferentialFitsShortcut (the "every cap fits" return vs the
# solver's own event loop, Float64bits, with the tightest link parked
# at every distance from capacity), the admitter's
# mixed-lifecycle stress check (admits, runs of admits, resizes and
# releases contending for one shard's mutex under -race, drained to a
# pristine ledger), the placement search's TestDifferential*
# harnesses (dirty-node Sync vs a sync that re-prices every touched
# node, bandwidthFit vs the linear scan, a kept Colocate scan vs a fresh
# one on every reuse of a packed-churn replay),
# the crash-recovery identity checks (kill a durable service
# mid-churn — once, and after every op of a short script with and
# without snapshot rotation — recover from WAL + snapshot, demand a
# byte-identical admission trace and final ledger), the per-grant
# event order (Resize and Release racing on one grant reach the sink
# admitted-first, released-last, in commit order), and the paper
# golden (the printed Table 1 and figures at quick(), -short skipping
# the Fig. 7–12 sweeps, byte for byte at every -cpu).
determinism:
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestParallelDeterminism|TestPaperGolden' ./internal/experiments
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestChurnDeterminism|TestChurnResizeDeterminism|TestEnforceChurnDeterminism' ./internal/sim
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestCommitPipelineMixedStress|TestDifferential' ./internal/place
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestDifferential' ./internal/place/cloudmirror
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestDifferential' ./internal/dataplane
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestDifferential' ./internal/netem
	$(GO) test -short -race -count=1 -cpu=1,4,8 -run 'TestCrashRecoveryDeterminism|TestCrashRecoveryEveryOp|TestDurableMatchesInMemory|TestGroupCommit|TestGrantEventOrder' ./guarantee

# One iteration of every per-artifact benchmark: regenerates the quick
# experiment suite and times the core primitives once. A smoke run, not
# a measurement: perf claims come from bench/run.sh (README.md).
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x .

ci: lint analyze docs-check build bench-check bench-smoke examples test test-fuzz determinism bench
