#!/usr/bin/env bash
# Builds pfaird, pfair-router and the benchmark program from this checkout,
# then runs one workload. Every build artefact, cache and temporary file
# stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build) of the checkout the script is run from.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a desyncpfair checkout" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off CGO_ENABLED=0

# Build quietly: the last line of standard output belongs to the result.
go build -o "$build/bin/pfaird" ./cmd/pfaird >&2
go build -o "$build/bin/pfair-router" ./cmd/pfair-router >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/run" "$@"
