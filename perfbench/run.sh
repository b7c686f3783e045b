#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it with
# the given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload validate --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, Go's own config and
# telemetry files, the binary, park and WAL directories, result records)
# stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" ]]; then
	echo "perfbench: run from the root of the crowdval repository" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" "$@"
