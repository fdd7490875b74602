#!/bin/sh
# Builds the benchmark harness, stcd and tracedur from this checkout's
# sources into .bench_build/, then runs the harness with the given
# arguments:
#
#   sh perfbench/run.sh --workload battery|service --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ (the Go build cache included).
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/" ./cmd/stcd ./cmd/tracedur
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
