#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the repository root) and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# The Go build cache and configuration are kept under .bench_build/ too,
# so a run writes nothing outside the checkout it runs in.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$src" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
