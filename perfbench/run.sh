#!/usr/bin/env bash
# Builds the benchmark program and the spd3d daemon from the checkout's
# sources, then runs one workload:
#
#   bash perfbench/run.sh --workload fine --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, the Go build
# cache, the daemon's trace store and the span files stay under
# .bench_build/ in the current directory (CARGO_TARGET_DIR, when set,
# names another directory for them).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/home"

# Keep the toolchain's caches, temporary files and per-user state inside
# the build directory, and never let it fetch anything.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/spd3d" spd3/cmd/spd3d
) >&2

exec "$out/perfbench" -bin "$out" -work "$out" "$@"
