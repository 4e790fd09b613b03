#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# arguments (see perfbench/README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, the benchmark's scratch
# stores and the traced run's span files.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/bin"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOWORK=off
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -workdir "$out/work" -spans "$out/spans" "$@"
