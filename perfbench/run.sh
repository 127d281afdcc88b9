#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through to the binary. Run from the repository root:
#
#   bash perfbench/run.sh --workload shared-hot --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and everything the run writes live under
# .bench_build in the current directory, so nothing is written elsewhere.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" HOME="$build/home"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/perfbench/perfbench" .) >&2
exec "$build/perfbench/perfbench" --workdir "$build/perfbench/work" --outdir "$build/perfbench" "$@"
