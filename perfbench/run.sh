#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources into
# .bench_build/ and runs it with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload nlp-wire --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and toolchain state stay under
# .bench_build/, and the build never fetches anything.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
