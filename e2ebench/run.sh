#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# given arguments (see main.go for the flags). Run from the repository
# root:
#
#	bash e2ebench/run.sh --workload paper-static --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root, including the Go build cache.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/e2ebench" && go build -buildvcs=false -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" --out "$out" "$@"
