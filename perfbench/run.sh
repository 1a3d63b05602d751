#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it in the
# foreground. exec replaces this shell with the binary, so exactly one
# process runs and none outlives it. Arguments pass through, e.g.
#
#   bash perfbench/run.sh --workload clos --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, the go command's
# telemetry counters) stays under .bench_build at the checkout root; no
# toolchain or module is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
# Freed heap pages go back to the kernel with MADV_FREE rather than
# MADV_DONTNEED, so they stay mapped and are not faulted in again on the
# next repetition: on a VM the cost of those faults depends on the host.
# The last setting in GODEBUG wins.
export GODEBUG="${GODEBUG:+$GODEBUG,}madvdontneed=0"
exec "$out/perfbench" "$@"
