#!/usr/bin/env bash
# Builds the benchmark and the confmaskd daemon it drives from the sources
# of this checkout, then runs the benchmark with the given arguments.
# Run it from the root of the checkout:
#
#   bash bench/run.sh --workload ft08-anon --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and the per-run work
# directories.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The Go command keeps its settings and telemetry under the user config
# directory; point it inside the checkout. No module is ever downloaded.
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd bench && go build -o "$out/bench" . && go build -o "$out/confmaskd" confmask/cmd/confmaskd)
exec "$out/bench" -daemon "$out/confmaskd" -work "$out/work" "$@"
