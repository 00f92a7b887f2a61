#!/usr/bin/env bash
# Builds the benchmark and the daemon it measures from source, then
# runs the benchmark with the given arguments from the checkout root.
# Everything it writes — Go's build cache, the two binaries, scratch
# ledgers, span files — goes under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export BENCH_WORK="$root/.bench_build"
export GOCACHE="$BENCH_WORK/gocache"
export GOPATH="$BENCH_WORK/gopath"
export XDG_CONFIG_HOME="$BENCH_WORK/config" # where the go command keeps its telemetry counters
export GOTOOLCHAIN=local
mkdir -p "$BENCH_WORK/bin"
(
	cd "$here"
	go build -o "$BENCH_WORK/bin/bench" .
	go build -o "$BENCH_WORK/bin/bwd" cloudmirror/cmd/bwd
) >&2
export BENCH_BWD="$BENCH_WORK/bin/bwd"
cd "$root"
exec "$BENCH_WORK/bin/bench" "$@"
