#!/bin/sh
# Loadtest smoke drill: build serve + loadgen, run a sustained + overload
# arrival schedule against a real socket, and leave behind the JSON
# report CI uploads (load_report.json).
#
# The admission limits are sized against the schedule: at the default
# RATE=50 batches/s the workload is 50 x 8 steps x 4 ops = 1600 ops/s,
# the tenant quota clears it with 1.5x headroom, and the 6x overload phase
# (9600 ops/s) deterministically drives the quota into shedding — loadgen's
# -expect-shed asserts the 429s actually happened, so a regression that
# quietly disables admission control fails the drill.
#
# Knobs (environment): LOADTEST_RATE, LOADTEST_DURATION,
# LOADTEST_OVERLOAD_FACTOR, LOADTEST_OVERLOAD_DURATION, LOADTEST_PORT,
# LOADTEST_OUT.
set -eu

RATE=${LOADTEST_RATE:-50}
DURATION=${LOADTEST_DURATION:-20s}
OVERLOAD_FACTOR=${LOADTEST_OVERLOAD_FACTOR:-6}
OVERLOAD_DURATION=${LOADTEST_OVERLOAD_DURATION:-10s}
PORT=${LOADTEST_PORT:-18571}
OUT=${LOADTEST_OUT:-load_report.json}

TMP=$(mktemp -d)
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    [ -n "$SERVE_PID" ] && wait "$SERVE_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -o "$TMP/serve" ./cmd/serve
go build -o "$TMP/loadgen" ./cmd/loadgen

# A durable engine (WAL + fsync-always) so the drill exercises the group
# commit the batched ingest path exists for.
"$TMP/serve" -addr "127.0.0.1:$PORT" -data-dir "$TMP/data" -fsync always \
    -ingest-max-inflight 64 \
    -ingest-rate $((RATE * 48)) -ingest-burst $((RATE * 96)) \
    -ingest-read-timeout 5s &
SERVE_PID=$!

i=0
until curl -fsS "http://127.0.0.1:$PORT/v1/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "loadtest: serve did not become healthy on port $PORT" >&2
        exit 1
    fi
    sleep 0.2
done

"$TMP/loadgen" -target "http://127.0.0.1:$PORT" \
    -rate "$RATE" -duration "$DURATION" \
    -overload-factor "$OVERLOAD_FACTOR" -overload-duration "$OVERLOAD_DURATION" \
    -batch 8 -ops 4 -streams 4 -queries 8 -tenants 1 \
    -out "$OUT" -expect-shed
