#!/usr/bin/env bash
# Driver entry (see BENCHMARK.json): build the benchmark and xtqd from
# the sources of this checkout into <checkout>/.bench_build, then run
# one workload. Everything the Go toolchain writes (build cache, module
# cache, telemetry) is kept inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export HOME="$build/home" GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
unset XDG_CACHE_HOME XDG_CONFIG_HOME GOBIN
cd "$here"
go build -o "$build/xtq-bench" .
exec "$build/xtq-bench" -build-dir "$build" "$@"
