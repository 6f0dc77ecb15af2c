#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload steady-b4 --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache) and every state directory the
# run opens lives under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -state "$out/state" "$@"
