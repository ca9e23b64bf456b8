#!/usr/bin/env bash
# Builds the PVN benchmark from the checkout it is run in, then runs it.
#
#   bash perfbench/run.sh --workload fwd-small --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The binary, the Go build cache and every
# other file the toolchain writes stay under .bench_build/ in the
# checkout. A failed build exits non-zero before anything is measured.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
