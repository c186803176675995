#!/usr/bin/env bash
# Builds govbench from this checkout's source and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload study --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) and the run's trace files stay under .bench_build/ at the root
# of the checkout; the toolchain is the one installed and nothing is
# downloaded.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOENV=off GOFLAGS=-buildvcs=false
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"

go -C "$root/bench" build -o "$out/govbench" ./govbench
cd "$root"
exec "$out/govbench" "$@"
