#!/usr/bin/env bash
# Builds the msperf benchmark from the checkout it is run in and runs it
# with the given arguments. Run it from the repository root:
#
#   bash msperf/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in
# the current directory; the Go build cache, temporary files and the go
# command's own configuration included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

(cd "$root/msperf" && go build -o "$out/bin/msperf" .) >&2
exec "$out/bin/msperf" "$@"
