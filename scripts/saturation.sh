#!/bin/sh
# saturation.sh — ingest saturation benchmark for the sharded elephantd
# front-end.
#
# For each reader count, start elephantd with -readers R, blast it with
# cmd/nfreplay (-senders S parallel blast senders, -pace 0, fixed
# -duration), then scrape /healthz for what the daemon actually
# ingested. Delivered datagrams/s at R readers vs 1 is the scaling
# figure; delivered/sent is the drop ratio once the offered load
# exceeds what R readers can drain.
#
# With SO_REUSEPORT (Linux/BSD) each sender's 4-tuple hashes to a fixed
# reader socket, so S senders spread across min(S, R) readers. On a
# multi-core host the expected shape is delivered-rate scaling roughly
# linearly in R until nfreplay itself saturates (>= 2x at 4 readers vs
# 1). On a single-core host (some CI containers) readers time-slice one
# CPU, so the sharded and single-reader rates converge — the run still
# verifies the mechanics (REUSEPORT bind, per-reader counters, no lost
# accounting) and prints nproc so the numbers can be read in context.
#
# Usage: scripts/saturation.sh [duration] [senders] [readers...]
#   duration  blast length per run        (default 5s)
#   senders   parallel nfreplay senders   (default 4)
#   readers   reader counts to sweep      (default "1 2 4")
#
# Environment: ROUTES (default 600), SEED (default 7), FLOWS (default
# 200).

set -eu

DURATION="${1:-5s}"
SENDERS="${2:-4}"
if [ "$#" -gt 2 ]; then
    shift 2
    READER_COUNTS="$*"
else
    READER_COUNTS="1 2 4"
fi
ROUTES="${ROUTES:-600}"
SEED="${SEED:-7}"
FLOWS="${FLOWS:-200}"
UDP_PORT="${UDP_PORT:-12055}"
HTTP_PORT="${HTTP_PORT:-18055}"

cd "$(dirname "$0")/.."
BIN="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT INT TERM

echo "saturation: building elephantd and nfreplay"
go build -o "$BIN/elephantd" ./cmd/elephantd
go build -o "$BIN/nfreplay" ./cmd/nfreplay

# health_field FIELD — pull one numeric/bool field out of GET /healthz.
health_field() {
    curl -s "http://127.0.0.1:$HTTP_PORT/healthz" |
        tr ',{}' '\n\n\n' | sed -n "s/.*\"$1\"[[:space:]]*:[[:space:]]*//p" | head -1
}

echo "saturation: host has $(nproc 2>/dev/null || echo '?') CPU(s); GOMAXPROCS governs reader parallelism"
echo "saturation: blasting $SENDERS sender(s) x $DURATION per run, $ROUTES routes, $FLOWS flows"
echo
printf '%-8s %-10s %-14s %-14s %-10s %s\n' readers reuseport sent_dgrams delivered dgrams/s delivered/sent

BASE_RATE=""
for R in $READER_COUNTS; do
    "$BIN/elephantd" -gen-routes "$ROUTES" -gen-seed "$SEED" \
        -readers "$R" -interval 30s \
        -udp "127.0.0.1:$UDP_PORT" -http "127.0.0.1:$HTTP_PORT" \
        >"$BIN/elephantd.$R.log" 2>&1 &
    DAEMON_PID=$!

    i=0
    until curl -sf "http://127.0.0.1:$HTTP_PORT/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -gt 50 ] && { echo "daemon did not come up; log:"; cat "$BIN/elephantd.$R.log"; exit 1; }
        sleep 0.1
    done
    REUSEPORT="$(health_field reuseport)"

    SENT="$("$BIN/nfreplay" -addr "127.0.0.1:$UDP_PORT" \
        -routes "$ROUTES" -seed "$SEED" -flows "$FLOWS" \
        -senders "$SENDERS" -pace 0 -duration "$DURATION" 2>&1 |
        sed -n 's/.*sent [0-9]* records in \([0-9]*\) datagrams.*/\1/p')"

    # Let the readers drain the kernel buffers, then scrape.
    sleep 1
    DELIVERED="$(health_field datagrams)"
    kill "$DAEMON_PID" 2>/dev/null && wait "$DAEMON_PID" 2>/dev/null || true
    DAEMON_PID=""

    SECS="$(echo "$DURATION" | sed 's/s$//')"
    RATE="$(awk -v d="$DELIVERED" -v s="$SECS" 'BEGIN { printf "%.0f", d / s }')"
    RATIO="$(awk -v d="$DELIVERED" -v s="$SENT" 'BEGIN { if (s > 0) printf "%.2f", d / s; else print "n/a" }')"
    [ -z "$BASE_RATE" ] && BASE_RATE="$RATE"
    SPEEDUP="$(awk -v r="$RATE" -v b="$BASE_RATE" 'BEGIN { if (b > 0) printf "%.2fx", r / b; else print "n/a" }')"
    printf '%-8s %-10s %-14s %-14s %-10s %s (%s vs first row)\n' \
        "$R" "$REUSEPORT" "$SENT" "$DELIVERED" "$RATE" "$RATIO" "$SPEEDUP"
done

echo
echo "saturation: delivered dgrams/s is the daemon-side ingest rate; on a"
echo "saturation: multi-core host expect >= 2x at 4 readers vs 1 once the"
echo "saturation: single reader is the bottleneck (delivered/sent < 1)."
