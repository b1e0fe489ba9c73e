#!/usr/bin/env bash
# Builds the scenario benchmark from the checkout it is run in and executes
# it; every argument is passed through (see bench/README.md). Run it from the
# repository root:
#
#   bash bench/run.sh --workload dense-detect --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary all stay under
# .bench_build/ in the current directory, and no network access is attempted.
# Without the repository around bench/ the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
go -C "$root/bench" build -trimpath -o "$out/ssmst-bench" .
exec "$out/ssmst-bench" "$@"
