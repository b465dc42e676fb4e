#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload serve-real --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the checkout (the Go build cache included), so nothing is written outside
# it. The last line of standard output is the run's JSON result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

# The benchmark is its own module (perfbench/go.mod) that imports the
# repository's packages through a replace directive, so a build outside a
# full checkout fails here and the run exits non-zero.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
