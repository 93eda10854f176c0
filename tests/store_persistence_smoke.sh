#!/bin/sh
# Persistence smoke test for the content-addressed result store.
#
# Acceptance properties, from the outside:
#
#   1. a cold jcache-sweep pass over the fig 13-16 grid (the four
#      write-miss policies x the size and line axes, write-through)
#      populates the store;
#   2. repeating every sweep with --incremental simulates 0 cells and
#      prints tables byte-identical to the cold pass, also beside a
#      replay cache (--trace-cache-dir), cold and warm: a sweep that
#      replays the cache keys the store exactly as one that does not;
#   3. a jcached restarted over the same --store-dir serves a run it
#      never computed in-process: the store hit counter goes nonzero
#      and the rendered table is byte-identical across the restart.
#      The first daemon is stopped by SIGTERM right after it answers,
#      while the run's put may still be in its write buffer, so the
#      signal must reach the drain that lands it.
#
# Usage: store_persistence_smoke.sh <jcache-sweep> <jcached> \
#            <jcache-client> <workdir>
set -eu

SWEEP=$1
JCACHED=$2
CLIENT=$3
WORKDIR=$4

mkdir -p "$WORKDIR"
STORE="$WORKDIR/store"
DAEMON_LOG="$WORKDIR/jcached.log"
DAEMON_PID=""
rm -rf "$STORE"

fail() {
    echo "store_persistence_smoke: FAIL: $1" >&2
    [ -s "$DAEMON_LOG" ] && sed 's/^/  jcached: /' "$DAEMON_LOG" >&2
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    exit 1
}

# 1. Cold pass: populate the store from the fig 13-16 grid.
for miss in fow wv wa wi; do
    for axis in size line; do
        "$SWEEP" ccom --axis "$axis" --hit wt --miss "$miss" \
            --store-dir "$STORE" \
            > "$WORKDIR/cold_${miss}_${axis}.txt" \
            2> "$WORKDIR/cold_${miss}_${axis}.err" \
            || fail "cold sweep $miss/$axis"
    done
done
[ -d "$STORE/objects" ] || fail "cold pass created no store"
echo "store_persistence_smoke: cold pass populated the store"

# 2. Warm incremental pass: zero simulation, identical bytes.
for miss in fow wv wa wi; do
    for axis in size line; do
        "$SWEEP" ccom --axis "$axis" --hit wt --miss "$miss" \
            --store-dir "$STORE" --incremental \
            > "$WORKDIR/warm_${miss}_${axis}.txt" \
            2> "$WORKDIR/warm_${miss}_${axis}.err" \
            || fail "warm sweep $miss/$axis"
        grep -q "simulated 0 cells" \
            "$WORKDIR/warm_${miss}_${axis}.err" \
            || fail "warm sweep $miss/$axis resimulated cells"
        cmp "$WORKDIR/cold_${miss}_${axis}.txt" \
            "$WORKDIR/warm_${miss}_${axis}.txt" \
            || fail "warm table $miss/$axis differs from cold"
    done
done
echo "store_persistence_smoke: warm pass reused every cell"

# 2b. The same incremental sweeps beside a replay cache, first with
#     the cache directory empty, then with it warm.  The trace
#     identity a sweep derives next to the cache must equal the one
#     step 1 keyed the store by, so no cell resimulates.
TRACE_CACHE="$WORKDIR/trace_cache"
rm -rf "$TRACE_CACHE"
for pass in cold warm; do
    for miss in fow wv wa wi; do
        for axis in size line; do
            out="$WORKDIR/cached_${pass}_${miss}_${axis}"
            "$SWEEP" ccom --axis "$axis" --hit wt --miss "$miss" \
                --store-dir "$STORE" --incremental \
                --trace-cache-dir "$TRACE_CACHE" \
                > "$out.txt" 2> "$out.err" \
                || fail "replay-cache sweep $pass $miss/$axis"
            grep -q "simulated 0 cells" "$out.err" \
                || fail "replay-cache sweep $pass $miss/$axis resimulated"
            cmp "$WORKDIR/cold_${miss}_${axis}.txt" "$out.txt" \
                || fail "replay-cache table $pass $miss/$axis differs"
        done
    done
    ls "$TRACE_CACHE"/*.jcrc > /dev/null 2>&1 \
        || fail "$pass replay-cache pass wrote no replay cache"
done
echo "store_persistence_smoke: replay-cache passes reused every cell"

# Shared daemon plumbing for step 3.
start_daemon() {
    PORT_FILE="$WORKDIR/jcached.port"
    METRICS_PORT_FILE="$WORKDIR/jcached.metrics-port"
    rm -f "$PORT_FILE" "$METRICS_PORT_FILE"
    "$JCACHED" --port 0 --port-file "$PORT_FILE" \
        --metrics-port 0 --metrics-port-file "$METRICS_PORT_FILE" \
        --store-dir "$STORE" > "$DAEMON_LOG" 2>&1 &
    DAEMON_PID=$!
    tries=0
    while [ ! -s "$PORT_FILE" ] || [ ! -s "$METRICS_PORT_FILE" ]; do
        tries=$((tries + 1))
        [ "$tries" -gt 100 ] && fail "daemon never published its ports"
        kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon exited early"
        sleep 0.1
    done
    PORT=$(cat "$PORT_FILE")
    MPORT=$(cat "$METRICS_PORT_FILE")
}

# stop_daemon [term]: an in-band shutdown request, or SIGTERM.
stop_daemon() {
    if [ "${1:-}" = term ]; then
        kill -TERM "$DAEMON_PID" || fail "SIGTERM"
    else
        "$CLIENT" --port "$PORT" shutdown > /dev/null || fail "shutdown"
    fi
    tries=0
    while kill -0 "$DAEMON_PID" 2>/dev/null; do
        tries=$((tries + 1))
        [ "$tries" -gt 100 ] && fail "daemon did not exit"
        sleep 0.1
    done
    wait "$DAEMON_PID" 2>/dev/null || true
    DAEMON_PID=""
}

# 3a. First daemon computes a run and persists it on its way out.
start_daemon
"$CLIENT" --port "$PORT" run ccom --size 16 \
    > "$WORKDIR/run_before.txt" || fail "run on first daemon"
stop_daemon term

# 3b. Second daemon over the same directory starts with a cold memory
#     cache; the same run must be served from the store.
start_daemon
"$CLIENT" --port "$PORT" run ccom --size 16 \
    > "$WORKDIR/run_after.txt" || fail "run on restarted daemon"
cmp "$WORKDIR/run_before.txt" "$WORKDIR/run_after.txt" \
    || fail "run output differs across the restart"

"$CLIENT" metrics --metrics-port "$MPORT" \
    > "$WORKDIR/metrics.txt" || fail "metrics scrape"
hits=$(awk '/^jcache_store_hits_total/ { in_f = 1; next }
            /^[a-zA-Z_]/ { in_f = 0 }
            in_f { s += $NF }
            END { printf "%.0f", s }' "$WORKDIR/metrics.txt")
[ -n "$hits" ] && [ "$hits" -gt 0 ] \
    || fail "restarted daemon shows no store hits (got '$hits')"

# The stats document doubles as the CI artifact next to the bench
# reports: it carries the store occupancy and hit-ratio block.
"$CLIENT" --port "$PORT" stats > "$WORKDIR/store_stats.json" \
    || fail "stats"
grep -q '"store"' "$WORKDIR/store_stats.json" \
    || fail "stats carry no store block"
stop_daemon
echo "store_persistence_smoke: restart served from the store" \
    "($hits hits)"
echo "store_persistence_smoke: PASS"
