#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark binary (and the
# socserve child the traced query_cold run talks to) from source into
# .bench_build/ of the checkout, then runs it from the checkout root. Every
# file the Go toolchain writes is kept inside the checkout.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$dir")"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$dir" && go build -o "$out/bin/" . repro/cmd/socserve) >&2
cd "$root"
exec "$out/bin/benchmark" "$@"
