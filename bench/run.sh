#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build the bench package from
# source into the checkout's own build directory, then run it with the
# arguments given. Everything the build writes — the binary and, unless the
# caller already chose one, the Go build cache — stays inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOTOOLCHAIN=local
go build -o "$build/pvmbench" ./bench
exec "$build/pvmbench" "$@"
