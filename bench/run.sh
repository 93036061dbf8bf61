#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through to the binary (see bench/README.md):
#
#   bash bench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain and the benchmark write -- build and
# module caches, telemetry, temp files, journal/lake scratch dirs,
# traces -- stays under .bench_build/ at the repository root. The build
# needs the repository's own module one directory up; without it the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOPATH="$out/home/go" GOMODCACHE="$out/home/go/pkg/mod" GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
