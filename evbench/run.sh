#!/usr/bin/env bash
# Builds eventdbd and the benchmark from the checkout it sits in, then
# runs the benchmark with the given arguments, e.g.
#
#   bash evbench/run.sh --workload feed --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# daemon data dirs and traces all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/eventdbd" || ! -f "$root/evbench/go.mod" ]]; then
	echo "run.sh: run from the repository root (needs go.mod, cmd/eventdbd and evbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$out/eventdbd" ./cmd/eventdbd >&2
(cd evbench && go build -o "$out/evbench" .) >&2
exec "$out/evbench" --eventdbd "$out/eventdbd" --workdir "$out" "$@"
