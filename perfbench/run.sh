#!/usr/bin/env bash
# Builds the daemons and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload classroom --seed 1 --seconds 10 --trace 0
# Run it from the root of the checkout. Build outputs, the Go build cache
# and the traced run's spans all go under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/" . repro/cmd/snapserved repro/cmd/snapshardd)
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
