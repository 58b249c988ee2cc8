#!/usr/bin/env bash
# Builds the viewer-path benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash viewerbench/run.sh --workload lecture_unicast --seed 7 --seconds 20 --trace 0
#
# The Go build cache, module cache and binary live under .bench_build at the
# checkout root, so nothing outside the checkout is read or written besides
# the Go toolchain itself. The build fails (and the script exits non-zero)
# when the service sources are not next to the benchmark.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/viewerbench" .)
cd "$root"
exec "$out/viewerbench" --spans-dir "$out/viewerbench-spans" "$@"
