#!/usr/bin/env bash
# Builds simjoind and the benchmark from the checkout's sources, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload probe-heavy --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/simjoind || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/simjoind and perfbench/ must be there)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOTELEMETRY=off

go build -o "$build/bin/simjoind" ./cmd/simjoind >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -bin "$build/bin/simjoind" -out "$build/runs" "$@"
