#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the tree it
# sits in and runs it. Every byte the Go toolchain writes (build cache, link
# scratch, the binaries) stays under <checkout>/.bench_build, so a run reads
# and writes only inside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS="${GOFLAGS:-} -buildvcs=false"
go build -C "$root/bench" -o "$build/bin/recmem-perfbench" .
exec "$build/bin/recmem-perfbench" -root "$root" "$@"
