// Package cloudmirror is a from-scratch Go reproduction of
// "Application-Driven Bandwidth Guarantees in Datacenters" (Lee et al.,
// ACM SIGCOMM 2014): the TAG network abstraction, the CloudMirror VM
// placement algorithm with high-availability extensions, an
// ElasticSwitch-style enforcement layer, the Oktopus/SecondNet baselines,
// and the full evaluation harness that regenerates every table and
// figure of the paper.
//
// The evaluation harness runs on a concurrent sweep engine
// (internal/parallel + experiments.Options.Workers) whose output is
// bit-identical to the serial order at any worker count, and the
// placement framework exposes one thread-safe admission path
// (place.Admitter) for concurrent Place/Release on one shared
// datacenter tree. Beyond one tree, internal/cluster shards
// admission across a fleet of independent trees behind a dispatcher
// with pluggable policies (round-robin, least-loaded,
// power-of-two-choices) and failover, and sim.Churn drives it with a
// deterministic dynamic-churn workload (Poisson arrivals, exponential
// tenant lifetimes, optional elastic tier resizes).
//
// All of it is consumed through the public guarantee package — the one
// front door for obtaining, resizing, and releasing bandwidth
// guarantees (guarantee.Service / guarantee.Grant, functional-options
// construction, a typed rejection taxonomy with machine-readable
// Reason codes) — and cmd/bwd serves that API as an HTTP JSON daemon.
// The service is CloudMirror pricing every tenant by its TAG; the
// baselines are the experiments' comparison points
// (internal/experiments), never a service option.
//
// See README.md for a tour: module setup, the -parallel, -shards,
// -policy and -churn flags of cmd/experiments and cmd/simulate, how to
// run the CI checks locally (make ci mirrors .github/workflows/ci.yml),
// and how a performance claim is measured (bash bench/run.sh), and
// docs/ARCHITECTURE.md for the package map, layer contracts, and
// concurrency invariants. The root package holds only the per-artifact
// benchmarks (bench_test.go); the implementation lives under internal/
// and the runnable entry points under cmd/ and examples/.
package cloudmirror
