#!/bin/sh
# Builds perfbench from this checkout and runs it with the given arguments:
#
#	bash perfbench/run.sh --workload repro|fleet|serve --seed N --seconds S --trace 0|1
#
# Everything the build writes — the Go build cache, temporary files, the
# toolchain's local telemetry and the binary — stays inside the checkout,
# under .bench_build; the user's go env file is not consulted. Outside a
# checkout of the module (no go.mod beside this directory) the build fails
# and so does the run.
set -e
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
