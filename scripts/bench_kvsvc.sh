#!/usr/bin/env bash
# bench_kvsvc.sh: refresh BENCH_kvsvc.json with the service-layer matrix.
#
# Runs kvload against gosmrd for each scheme cell — hp++ and hp-scot
# (plain HP carried by the SCOT traversal, the apples-to-apples
# robustness rival) — with a 1M-key preload so the cells measure the
# fully grown shard directories, under the Zipf read-most mix. Each run is detect mode, so the numbers
# double as a safety gate: kvload exits non-zero on any arena violation.
# The single-cell reports are merged (jq) into one BENCH_kvsvc.json at
# the repo root; cells are distinguished by "scheme".
#
# Usage: scripts/bench_kvsvc.sh [requests] [preload]
set -euo pipefail

REQUESTS="${1:-200000}"
PRELOAD="${2:-1000000}"
ADDR="127.0.0.1:17170"
ADMIN="127.0.0.1:17171"

cd "$(dirname "$0")/.."
BIN="$(mktemp -d)"
SRV_PID=""
cleanup() {
    [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/gosmrd" ./cmd/gosmrd
go build -o "$BIN/kvload" ./cmd/kvload

CELLS=()
for scheme in hp++ hp-scot; do
    echo "bench-kvsvc: scheme=$scheme ($PRELOAD preload, $REQUESTS requests)"
    "$BIN/gosmrd" -addr "$ADDR" -admin "$ADMIN" -shards 8 -scheme "$scheme" -mode detect \
        >"$BIN/gosmrd_${scheme}.json" 2>"$BIN/gosmrd_${scheme}.log" &
    SRV_PID=$!

    OUT="$BIN/cell_${scheme}.json"
    "$BIN/kvload" -addr "$ADDR" -admin "$ADMIN" \
        -conns 8 -requests "$REQUESTS" -keys "$PRELOAD" -preload "$PRELOAD" \
        -zipf 1.1 -out "$OUT"

    kill -TERM "$SRV_PID"
    if ! wait "$SRV_PID"; then
        echo "bench-kvsvc: gosmrd drain FAILED ($scheme)" >&2
        cat "$BIN/gosmrd_${scheme}.log" >&2
        exit 1
    fi
    SRV_PID=""
    grep -q "clean drain" "$BIN/gosmrd_${scheme}.log" || {
        echo "bench-kvsvc: no clean drain ($scheme)" >&2
        exit 1
    }
    CELLS+=("$OUT")
done

jq -s '{generated_by: "kvload (scripts/bench_kvsvc.sh)", scan_microbench: .[0].scan_microbench, cells: map(.cells[0])}' \
    "${CELLS[@]}" > BENCH_kvsvc.json
echo "bench-kvsvc: wrote BENCH_kvsvc.json (${#CELLS[@]} cells)"
jq -r '.cells[] | "\(.scheme)\tp50(get)=\(.p50_get_us)µs\tp99(get)=\(.p99_get_us)µs"' BENCH_kvsvc.json
