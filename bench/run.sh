#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. The Go build cache and the binary live in .bench_build/, so
# nothing outside the checkout is written; no module is downloaded (the
# benchmark and the repository have no dependencies).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$build/astrea-bench" .
cd "$root"
exec "$build/astrea-bench" "$@"
