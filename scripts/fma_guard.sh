#!/usr/bin/env bash
# fma-guard: keep fused multiply-adds out of the model's arm64 build.
#
# The Go compiler fuses x*y + z into one FMADD/FMSUB instruction on arm64
# (and not on amd64), and the fused form rounds once instead of twice. A
# simulated figure computed through such a site can differ in its last
# bit between the two architectures, and the committed tables are
# compared byte for byte. This script cross-compiles cmd/lhbench for
# arm64, disassembles the lauberhorn/ symbols, and lists every symbol
# that contains a fused instruction (FMADDD, FMSUBD, FNMADDD, FNMSUBD or
# their single-precision S forms).
#
# It fails on any symbol outside the list of known sites below, so a new
# site cannot land unnoticed. The known sites are the ones still to be
# removed, by integer or fixed-point arithmetic or by an explicit
# float64(x*y) conversion, which the Go spec says prevents fusion;
# shrink the list as they go. A listed symbol that no longer fuses is
# reported so the list can be pruned, but does not fail the run.
#
# Run from anywhere; needs only the Go toolchain. Exits non-zero with one
# line per unexpected symbol.
set -euo pipefail
cd "$(dirname "$0")/.."

known=(
    'lauberhorn/internal/cluster.(*Host).CyclesPerRequest'
    'lauberhorn/internal/cluster.(*Host).Energy'
    'lauberhorn/internal/core.(*NIC).noteArrival'
    'lauberhorn/internal/experiments.E11SizeDist'
    'lauberhorn/internal/stats.(*Histogram).Percentile'
    'lauberhorn/internal/stats.(*Histogram).Percentiles'
    'lauberhorn/internal/transport.(*ecnConn).endWindow'
    'lauberhorn/internal/transport.(*ecnConn).reclaim'
)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
GOARCH=arm64 GOOS=linux go build -o "$tmp/lhbench" ./cmd/lhbench

# "count symbol" per lauberhorn/ symbol with at least one fused op.
go tool objdump -s '^lauberhorn/' "$tmp/lhbench" |
    awk '/^TEXT /{sym=$2; sub(/\(SB\)$/, "", sym); next}
         /[[:space:]]F(N?)M(ADD|SUB)[DS][[:space:]]/{n[sym]++}
         END{for (s in n) print n[s], s}' |
    sort -k2 > "$tmp/sites"

fail=0
total=0
while read -r count sym; do
    total=$((total + count))
    listed=0
    for k in "${known[@]}"; do
        [ "$sym" = "$k" ] && listed=1 && break
    done
    if [ "$listed" -eq 0 ]; then
        echo "fma-guard: $sym has $count fused multiply-add(s) on arm64; round the product explicitly (float64(x*y)) or use integer arithmetic" >&2
        fail=1
    fi
done < "$tmp/sites"

for k in "${known[@]}"; do
    if ! awk -v k="$k" '$2 == k {found=1} END{exit !found}' "$tmp/sites"; then
        echo "fma-guard: note: $k no longer fuses; drop it from the list"
    fi
done

if [ "$fail" -eq 0 ]; then
    echo "fma-guard: OK ($total fused instruction(s) in $(wc -l < "$tmp/sites") known symbol(s))"
fi
exit $fail
