#!/bin/sh
# End-to-end smoke test of the jcached service stack.
#
# Starts the daemon on an ephemeral loopback port, then checks the
# acceptance properties of the service layer from the outside:
#
#   1. `jcache-client run`   output is byte-identical to jcache-sim
#   2. `jcache-client sweep` output is byte-identical to jcache-sweep
#   2a. a run and a sweep sent at once from two clients overlap on the
#       daemon and both stay byte-identical to the offline tools
#   2b. an uploaded interchange trace renders byte-identically to
#       jcache-sim replaying the same file offline
#   3. a repeated run is reported as a result-cache hit
#   4. stats reflect the cache hit and the persistent store
#   5. `jcache-client metrics` scrapes --metrics-port, and the
#      request counter increases monotonically between scrapes;
#      the scrape carries the store gauges and counters
#   6. an in-band shutdown drains the daemon
#
# Usage: service_smoke.sh <jcached> <jcache-client> <jcache-sim> \
#            <jcache-sweep> <workdir>
set -eu

JCACHED=$1
CLIENT=$2
SIM=$3
SWEEP=$4
WORKDIR=$5

mkdir -p "$WORKDIR"
PORT_FILE="$WORKDIR/jcached.port"
METRICS_PORT_FILE="$WORKDIR/jcached.metrics-port"
DAEMON_LOG="$WORKDIR/jcached.log"
rm -f "$PORT_FILE" "$METRICS_PORT_FILE"
# A fresh store each run: the counter assertions below rely on this
# daemon actually writing (not just re-reading) store blobs.
rm -rf "$WORKDIR/store"

fail() {
    echo "service_smoke: FAIL: $1" >&2
    [ -s "$DAEMON_LOG" ] && sed 's/^/  jcached: /' "$DAEMON_LOG" >&2
    kill "$DAEMON_PID" 2>/dev/null || true
    exit 1
}

"$JCACHED" --port 0 --port-file "$PORT_FILE" \
    --metrics-port 0 --metrics-port-file "$METRICS_PORT_FILE" \
    --store-dir "$WORKDIR/store" \
    > "$DAEMON_LOG" 2>&1 &
DAEMON_PID=$!

# Wait for the daemon to publish its ephemeral ports.
tries=0
while [ ! -s "$PORT_FILE" ] || [ ! -s "$METRICS_PORT_FILE" ]; do
    tries=$((tries + 1))
    [ "$tries" -gt 100 ] && fail "daemon never wrote its port file"
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon exited early"
    sleep 0.1
done
PORT=$(cat "$PORT_FILE")
echo "service_smoke: jcached pid $DAEMON_PID on port $PORT"

"$CLIENT" --port "$PORT" ping > /dev/null || fail "ping"

# 1. Run through the service vs. offline: byte-identical tables.
"$CLIENT" --port "$PORT" run ccom --size 16 > "$WORKDIR/run_client.txt" \
    || fail "client run"
"$SIM" ccom --size 16 > "$WORKDIR/run_offline.txt" || fail "offline sim"
cmp "$WORKDIR/run_client.txt" "$WORKDIR/run_offline.txt" \
    || fail "run output differs from jcache-sim"
echo "service_smoke: run output byte-identical"

# 2. Sweep through the service vs. offline.
"$CLIENT" --port "$PORT" sweep yacc --axis assoc \
    > "$WORKDIR/sweep_client.txt" || fail "client sweep"
"$SWEEP" yacc --axis assoc > "$WORKDIR/sweep_offline.txt" \
    || fail "offline sweep"
cmp "$WORKDIR/sweep_client.txt" "$WORKDIR/sweep_offline.txt" \
    || fail "sweep output differs from jcache-sweep"
echo "service_smoke: sweep output byte-identical"

# 2a. A run and a sweep from two clients at once: the two jobs run side
#     by side on the daemon's scheduler threads and shared worker pool.
"$CLIENT" --port "$PORT" run grr --size 8 > "$WORKDIR/pair_run.txt" &
PAIR_RUN_PID=$!
"$CLIENT" --port "$PORT" sweep met --axis size \
    > "$WORKDIR/pair_sweep.txt" &
PAIR_SWEEP_PID=$!
wait "$PAIR_RUN_PID" || fail "concurrent client run"
wait "$PAIR_SWEEP_PID" || fail "concurrent client sweep"
"$SIM" grr --size 8 > "$WORKDIR/pair_run_offline.txt" \
    || fail "offline sim (concurrent pair)"
"$SWEEP" met --axis size > "$WORKDIR/pair_sweep_offline.txt" \
    || fail "offline sweep (concurrent pair)"
cmp "$WORKDIR/pair_run.txt" "$WORKDIR/pair_run_offline.txt" \
    || fail "concurrent run output differs from jcache-sim"
cmp "$WORKDIR/pair_sweep.txt" "$WORKDIR/pair_sweep_offline.txt" \
    || fail "concurrent sweep output differs from jcache-sweep"
echo "service_smoke: concurrent run and sweep byte-identical"

# 2b. Upload an external text-interchange trace: the daemon's reply
#     must render byte-identically to jcache-sim on the same file.
UPLOAD_TRACE="$WORKDIR/uploaded_mix.txt"
{
    echo "# hand-written interchange trace"
    i=0
    while [ "$i" -lt 64 ]; do
        printf 'r 0x%x 4\n' $((65536 + i * 4))
        printf 'w 0x%x 8 3\n' $((131072 + i * 8))
        i=$((i + 1))
    done
} > "$UPLOAD_TRACE"
"$SIM" "$UPLOAD_TRACE" --size 16 > "$WORKDIR/upload_offline.txt" \
    || fail "offline sim on interchange trace"
"$CLIENT" --port "$PORT" upload "$UPLOAD_TRACE" --size 16 \
    > "$WORKDIR/upload_client.txt" || fail "client upload"
cmp "$WORKDIR/upload_client.txt" "$WORKDIR/upload_offline.txt" \
    || fail "upload output differs from jcache-sim"
echo "service_smoke: upload output byte-identical"

# 2c. Upload with --digest-only, then run the trace again purely by
#     its content digest: the daemon resolves the digest against the
#     uploaded trace and the rendered table must match the offline
#     replay of the same file byte for byte.
DIGEST=$("$CLIENT" --port "$PORT" upload "$UPLOAD_TRACE" --size 16 \
    --digest-only) || fail "client upload --digest-only"
case "$DIGEST" in
    ????????????????) ;;
    *) fail "--digest-only printed '$DIGEST', not a 16-hex digest" ;;
esac
"$CLIENT" --port "$PORT" run "digest:$DIGEST" --size 16 \
    > "$WORKDIR/run_by_digest.txt" || fail "run by digest"
cmp "$WORKDIR/run_by_digest.txt" "$WORKDIR/upload_offline.txt" \
    || fail "run-by-digest output differs from jcache-sim"
echo "service_smoke: run by digest $DIGEST byte-identical"

# 3. The repeated run must be served from the result cache (--verbose
#    reports the digest and hit/computed on stderr) and stay identical.
"$CLIENT" --port "$PORT" --verbose run ccom --size 16 \
    > "$WORKDIR/run_repeat.txt" 2> "$WORKDIR/run_repeat.err" \
    || fail "repeat run"
grep -q "result-cache hit" "$WORKDIR/run_repeat.err" \
    || fail "repeated run was not a result-cache hit"
cmp "$WORKDIR/run_repeat.txt" "$WORKDIR/run_offline.txt" \
    || fail "cached run output differs"
echo "service_smoke: repeated run served from result cache"

# 4. The stats response accounts for that hit, and for the persistent
#    store the daemon was started over.
"$CLIENT" --port "$PORT" stats > "$WORKDIR/stats.json" || fail "stats"
# Two hits by now: the duplicate upload in 2c and the repeated run.
grep -q '"hits": 2' "$WORKDIR/stats.json" \
    || fail "stats do not show the result-cache hits"
grep -q '"store"' "$WORKDIR/stats.json" \
    || fail "stats carry no store block"
grep -q '"enabled": true' "$WORKDIR/stats.json" \
    || fail "stats do not report the store as enabled"
[ -d "$WORKDIR/store/objects" ] \
    || fail "store directory was not created"
echo "service_smoke: stats report the persistent store"

# 5. Scrape the Prometheus endpoint through the client, twice: the
#    request counter must be present and increase monotonically with
#    the ping sandwiched between the scrapes.
MPORT=$(cat "$METRICS_PORT_FILE")
# Sum the family's samples: the pretty-printer shows a `name (type)`
# header line, then indented `{labels} = value` lines.
requests_total() {
    awk '/^jcache_requests_total / { in_fam = 1; next }
         /^[a-zA-Z_]/ { in_fam = 0 }
         in_fam { s += $NF }
         END { printf "%.0f", s }' "$1"
}
"$CLIENT" metrics --metrics-port "$MPORT" > "$WORKDIR/metrics1.txt" \
    || fail "metrics scrape"
R1=$(requests_total "$WORKDIR/metrics1.txt")
[ -n "$R1" ] && [ "$R1" -gt 0 ] \
    || fail "scrape shows no jcache_requests_total samples"
"$CLIENT" --port "$PORT" ping > /dev/null || fail "ping between scrapes"
"$CLIENT" metrics --metrics-port "$MPORT" > "$WORKDIR/metrics2.txt" \
    || fail "second metrics scrape"
R2=$(requests_total "$WORKDIR/metrics2.txt")
[ "$R2" -gt "$R1" ] \
    || fail "jcache_requests_total did not increase ($R1 -> $R2)"
"$CLIENT" metrics --metrics-port "$MPORT" --json \
    | grep -q '"families"' || fail "metrics --json"
echo "service_smoke: request counter monotonic across scrapes ($R1 -> $R2)"

# The scrape must carry the store gauges (refreshed at scrape time)
# and the store counters the run/sweep/upload traffic produced.
grep -q 'jcache_store_occupancy_bytes' "$WORKDIR/metrics2.txt" \
    || fail "scrape lacks jcache_store_occupancy_bytes"
grep -q 'jcache_store_entries' "$WORKDIR/metrics2.txt" \
    || fail "scrape lacks jcache_store_entries"
grep -q 'jcache_store_hit_ratio' "$WORKDIR/metrics2.txt" \
    || fail "scrape lacks jcache_store_hit_ratio"
grep -q 'jcache_store_misses_total' "$WORKDIR/metrics2.txt" \
    || fail "scrape lacks jcache_store_misses_total"
grep -q 'jcache_store_bytes_total' "$WORKDIR/metrics2.txt" \
    || fail "scrape lacks jcache_store_bytes_total"
grep -q 'jcache_pool_wait_seconds' "$WORKDIR/metrics2.txt" \
    || fail "scrape lacks jcache_pool_wait_seconds"
echo "service_smoke: store gauges and counters exposed"

# 6. Graceful in-band shutdown.
"$CLIENT" --port "$PORT" shutdown > /dev/null || fail "shutdown"
tries=0
while kill -0 "$DAEMON_PID" 2>/dev/null; do
    tries=$((tries + 1))
    [ "$tries" -gt 100 ] && fail "daemon did not exit after shutdown"
    sleep 0.1
done
wait "$DAEMON_PID" 2>/dev/null || true
echo "service_smoke: PASS"
