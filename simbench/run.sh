#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it:
#
#   bash simbench/run.sh --workload azure-grid --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (Go cache,
# temporary files, the go command's own config and telemetry, the binary)
# stays under .bench_build/ there, the toolchain is never fetched, and the
# binary is built with the PGO profile that cmd/paldia-sim ships with.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/cmd/paldia-sim/default.pgo" ]; then
	echo "simbench: run from the repository root (need go.mod and cmd/paldia-sim/default.pgo)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

(cd "$root/simbench" && go build -pgo="$root/cmd/paldia-sim/default.pgo" -o "$out/simbench" .)
exec "$out/simbench" "$@"
