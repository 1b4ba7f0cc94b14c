#!/usr/bin/env bash
# Builds the benchmark harness and the cmd/serve binary from this checkout
# into .bench_build, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The Go build cache and temporary files
# stay inside .bench_build, and build time is not part of any metric.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
go build -o "$out/serve" ./cmd/serve
exec "$out/perfbench" -serve-bin "$out/serve" -work "$out/work" -trace-dir "$out/traces" "$@"
