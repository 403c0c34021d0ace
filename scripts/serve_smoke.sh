#!/usr/bin/env bash
# serve_smoke.sh: end-to-end smoke test of the gosmrd service layer.
#
# Phase 1 boots gosmrd (8 shards, hp++, arena detect mode so every
# dereference is validated), fires a short kvload burst at it, then sends
# SIGTERM and asserts the daemon drains cleanly: exit 0 means every
# connection was flushed, every shard's reclamation drained, and the
# arena recorded zero use-after-free or double-free violations. kvload
# itself exits non-zero if the admin scrape shows violations, so the pair
# gates both sides.
#
# Phase 2 is the overload gate: a server capped at 2 connections
# (-max-conns 2) faces 16 concurrent kvload connections, so it must shed
# a nonzero number of them at accept time; kvload's admission retry and
# backoff must still recover to 100% completion (it exits non-zero
# otherwise), and the drain must stay clean with zero arena violations.
#
# Phase 3 is the resize gate: gosmrd starts with 8-bucket shard
# directories and kvload preloads 200k distinct keys —
# hundreds of directory doublings and dummy splices under live detect-
# mode traffic — then runs a measured mix over the grown map. The drain
# must stay clean with zero unreclaimed nodes and zero violations.
#
# NETPOLL=1 reruns every phase with gosmrd on the event-driven
# connection layer (-netpoll) instead of per-connection goroutines; the
# drain/overload/resize contracts are mode-independent and must hold on
# both, so CI runs the script twice.
#
# Usage: scripts/serve_smoke.sh [requests]
set -euo pipefail

REQUESTS="${1:-10000}"
ADDR="127.0.0.1:17070"
ADMIN="127.0.0.1:17071"
NETPOLL_FLAG=""
MODE_NAME="goroutine"
if [ "${NETPOLL:-0}" = 1 ]; then
    NETPOLL_FLAG="-netpoll"
    MODE_NAME="netpoll"
fi
echo "serve-smoke: connection layer: $MODE_NAME"

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

"$BIN/gosmrd" -addr "$ADDR" -admin "$ADMIN" -shards 8 -scheme hp++ -mode detect \
    $NETPOLL_FLAG \
    >"$BIN/gosmrd.json" 2>"$BIN/gosmrd.log" &
SRV_PID=$!

mkdir -p results
# kvload retries its first dial, so no readiness sleep is needed.
"$BIN/kvload" -addr "$ADDR" -admin "$ADMIN" \
    -conns 8 -requests "$REQUESTS" -keys 4096 -zipf 1.1 \
    -out results/BENCH_kvsvc.json

kill -TERM "$SRV_PID"
if ! wait "$SRV_PID"; then
    echo "serve-smoke: gosmrd drain FAILED" >&2
    cat "$BIN/gosmrd.log" >&2
    exit 1
fi
SRV_PID=""

grep -q "clean drain" "$BIN/gosmrd.log" || {
    echo "serve-smoke: gosmrd exited 0 but never reported a clean drain" >&2
    cat "$BIN/gosmrd.log" >&2
    exit 1
}
echo "serve-smoke: phase 1 OK ($REQUESTS requests, clean drain, zero arena violations)"

# ---- Phase 2: overload ----
# Two connection slots for sixteen clients: most dials are accepted and
# closed at the cap, and kvload's admission retry has to grind the
# workload to 100% completion anyway.
"$BIN/gosmrd" -addr "$ADDR" -admin "$ADMIN" -shards 1 -max-conns 2 \
    -scheme hp++ -mode detect \
    $NETPOLL_FLAG \
    >"$BIN/gosmrd2.json" 2>"$BIN/gosmrd2.log" &
SRV_PID=$!

"$BIN/kvload" -addr "$ADDR" -admin "$ADMIN" \
    -conns 16 -requests 4000 -pipeline 64 -keys 512 -retries 12 \
    | tee "$BIN/kvload2.log"

SHED=$(sed -n 's/.*shed_total=\([0-9]*\).*/\1/p' "$BIN/kvload2.log")
if [ -z "$SHED" ] || [ "$SHED" -eq 0 ]; then
    echo "serve-smoke: overload phase shed nothing (shed_total=${SHED:-missing}) — the capped server should be shedding connections" >&2
    exit 1
fi

kill -TERM "$SRV_PID"
if ! wait "$SRV_PID"; then
    echo "serve-smoke: overloaded gosmrd drain FAILED" >&2
    cat "$BIN/gosmrd2.log" >&2
    exit 1
fi
SRV_PID=""
grep -q "clean drain" "$BIN/gosmrd2.log" || {
    echo "serve-smoke: overloaded gosmrd exited 0 but never reported a clean drain" >&2
    cat "$BIN/gosmrd2.log" >&2
    exit 1
}
echo "serve-smoke: phase 2 OK (shed_total=$SHED, 100% completion via retries, clean drain)"

# ---- Phase 3: resize storm ----
# Tiny initial directories + a 200k-key preload force the split-ordered
# maps through their full doubling cascade while detect mode validates
# every dereference; the measured mix then runs over the grown map.
PRELOAD=200000
"$BIN/gosmrd" -addr "$ADDR" -admin "$ADMIN" -shards 8 -scheme hp++ -mode detect \
    -buckets 8 \
    $NETPOLL_FLAG \
    >"$BIN/gosmrd3.json" 2>"$BIN/gosmrd3.log" &
SRV_PID=$!

"$BIN/kvload" -addr "$ADDR" -admin "$ADMIN" \
    -conns 8 -requests "$REQUESTS" -keys "$PRELOAD" -preload "$PRELOAD" -zipf 1.1 \
    | tee "$BIN/kvload3.log"

grep -q "preloaded $PRELOAD keys" "$BIN/kvload3.log" || {
    echo "serve-smoke: resize phase did not complete the preload" >&2
    exit 1
}

kill -TERM "$SRV_PID"
if ! wait "$SRV_PID"; then
    echo "serve-smoke: resize-storm gosmrd drain FAILED" >&2
    cat "$BIN/gosmrd3.log" >&2
    exit 1
fi
SRV_PID=""
grep -q "clean drain" "$BIN/gosmrd3.log" || {
    echo "serve-smoke: resize-storm gosmrd exited 0 but never reported a clean drain" >&2
    cat "$BIN/gosmrd3.log" >&2
    exit 1
}
echo "serve-smoke: phase 3 OK ($PRELOAD keys preloaded through growing directories, clean drain)"
