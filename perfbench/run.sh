#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload batch-interlink --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go caches, the toolchain's config and temporary files,
# and the run's own files all stay under .bench_build/ in the checkout.
set -euo pipefail
out=.bench_build/perfbench
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" GOMODCACHE="$PWD/$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$PWD/$out/config" TMPDIR="$PWD/$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" "$@"
