#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash bench/run.sh --workload smartnic-e6 --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and temporary files stay under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/fairbench-bench" .)
exec "$out/fairbench-bench" "$@"
