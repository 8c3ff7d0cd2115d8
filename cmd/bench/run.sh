#!/usr/bin/env bash
# Builds cmd/bench from source and runs it with the given flags, from the
# root of a checkout. Everything the build and the runs write (binary,
# Go build cache, temporary journals) stays under .bench_build/.
#
#   bash cmd/bench/run.sh --workload drive --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/cmd/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
