#!/usr/bin/env bash
# Builds cloudia-perf from source and runs it with the given arguments, from
# the root of a cloudia checkout:
#
#   bash cmd/cloudia-perf/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL
# directories, span files) lands under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/cloudia-perf" .)
exec "$build/cloudia-perf" -dir "$build/run" -out "$build" "$@"
