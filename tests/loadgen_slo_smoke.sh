#!/bin/sh
# SLO harness: jcache-loadgen drives a live daemon through moderate
# load, 2x overload, and recovery, asserting the overload contract
# from docs/RESILIENCE.md:
#
#   1. calibration: a closed loop measures this machine's capacity C,
#      so every rate below scales with the hardware
#   2. moderate (C/2): everything is served and the health class p99
#      stays under 250ms
#   3. overload (2C, with a 1s request deadline): the generator keeps
#      its schedule (at most 10% of requests dispatched late), and the
#      daemon stays alive and responsive (health p99 under 250ms on
#      its own connections), sheds with typed busy/deadline errors
#      instead of queue-collapsing, and keeps goodput above a floor
#   4. recovery: once the overload stops, goodput returns to within
#      10% of the moderate baseline
#
# With a "chaos" argument a fifth phase repeats moderate load while
# the *client* transport injects 5% read/write faults: the daemon
# must survive and goodput must stay above a loose floor.
#
# Every phase writes its JSON report into the workdir; CI uploads
# them as artifacts next to the benchmark reports.
#
# Usage: loadgen_slo_smoke.sh <jcached> <jcache-loadgen>
#            <jcache-client> <workdir> [chaos]
set -eu

JCACHED=$1
LOADGEN=$2
CLIENT=$3
WORKDIR=$4
CHAOS=${5:-}

mkdir -p "$WORKDIR"
PORT_FILE="$WORKDIR/jcached.port"
DAEMON_LOG="$WORKDIR/jcached.log"
DAEMON_PID=""

fail() {
    echo "loadgen_slo_smoke: FAIL: $1" >&2
    [ -s "$DAEMON_LOG" ] && sed 's/^/  jcached: /' "$DAEMON_LOG" >&2
    [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
    exit 1
}

# goodput_rps from a saved loadgen summary.
goodput() {
    awk '/^loadgen: served /{print $5}' "$1"
}

# The result cache is off so every run is a real job: an overload
# that hits the cache would measure nothing.  Two executors keep the
# capacity low enough that 2x overload is cheap to generate.
rm -f "$PORT_FILE"
"$JCACHED" --port 0 --port-file "$PORT_FILE" \
    --queue 16 --cache 0 --jobs 2 > "$DAEMON_LOG" 2>&1 &
DAEMON_PID=$!
tries=0
while [ ! -s "$PORT_FILE" ]; do
    tries=$((tries + 1))
    [ "$tries" -gt 300 ] && fail "daemon never wrote its port"
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon exited early"
    sleep 0.1
done
PORT=$(cat "$PORT_FILE")
echo "loadgen_slo_smoke: daemon pid $DAEMON_PID port $PORT"

# Phase 1: closed-loop capacity calibration.
"$LOADGEN" --port "$PORT" --closed-loop --connections 4 \
    --duration 3 --mix run=100 \
    --json "$WORKDIR/loadgen_calibrate.json" \
    > "$WORKDIR/calibrate.txt" || fail "calibration errored"
cat "$WORKDIR/calibrate.txt"
CAP=$(goodput "$WORKDIR/calibrate.txt")
awk -v c="$CAP" 'BEGIN{exit !(c >= 2.0)}' \
    || fail "implausible capacity ${CAP} rps"
HALF=$(awk -v c="$CAP" 'BEGIN{printf "%.1f", c * 0.5}')
TWICE=$(awk -v c="$CAP" 'BEGIN{printf "%.1f", c * 2.0}')
FLOOR=$(awk -v c="$CAP" 'BEGIN{printf "%.1f", c * 0.2}')
echo "loadgen_slo_smoke: capacity ${CAP} rps (moderate ${HALF}," \
     "overload ${TWICE})"

# Phase 2: moderate open-loop load; everything within SLO.
"$LOADGEN" --port "$PORT" --rate "$HALF" --connections 8 \
    --duration 6 --mix run=70,ping=10,health=10,stats=10 \
    --require-goodput "$FLOOR" --require-class-p99-ms health:250 \
    --json "$WORKDIR/loadgen_moderate.json" \
    > "$WORKDIR/moderate.txt" || fail "moderate phase SLO"
cat "$WORKDIR/moderate.txt"
BASELINE=$(goodput "$WORKDIR/moderate.txt")

# Phase 3: 2x overload with a 1s deadline on simulation requests.
# The daemon must shed (typed, with retry hints) rather than let the
# queue grow without bound, and its control plane must stay fast.
# A data connection carries one request at a time, so the connection
# count caps what the daemon holds.  It must exceed the 16 queued
# plus 2 running jobs, or the queue never fills and the generator,
# not the daemon, falls behind the 2x schedule (late_dispatch).
"$LOADGEN" --port "$PORT" --rate "$TWICE" --connections 64 \
    --duration 8 --deadline 1000 --mix run=85,health=15 \
    --require-goodput "$FLOOR" --require-class-p99-ms health:250 \
    --require-sheds \
    --json "$WORKDIR/loadgen_overload.json" \
    > "$WORKDIR/overload.txt" || fail "overload phase SLO"
cat "$WORKDIR/overload.txt"
# A generator that fell behind its schedule offered less than 2x, so
# the phase would prove nothing about overload.
OFFERED=$(awk '/^loadgen: offered /{print $3}' "$WORKDIR/overload.txt")
LATE=$(awk '/^loadgen: sheds /{print $5}' "$WORKDIR/overload.txt")
awk -v o="$OFFERED" -v l="$LATE" \
    'BEGIN{exit !(o > 0 && l != "" && l <= 0.1 * o)}' \
    || fail "overload dispatched ${LATE} of ${OFFERED} requests late"
kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died under overload"
"$CLIENT" --port "$PORT" --retry --deadline 10000 ping > /dev/null \
    || fail "daemon unresponsive after overload"
grep -q 'daemon_error 0 ' "$WORKDIR/overload.txt" \
    || fail "untyped daemon errors under overload"

# Phase 4: recovery to within 10% of the moderate baseline.
sleep 2
"$LOADGEN" --port "$PORT" --rate "$HALF" --connections 8 \
    --duration 6 --mix run=70,ping=10,health=10,stats=10 \
    --require-goodput "$FLOOR" --require-class-p99-ms health:250 \
    --json "$WORKDIR/loadgen_recovery.json" \
    > "$WORKDIR/recovery.txt" || fail "recovery phase SLO"
cat "$WORKDIR/recovery.txt"
RECOVERED=$(goodput "$WORKDIR/recovery.txt")
awk -v r="$RECOVERED" -v b="$BASELINE" 'BEGIN{exit !(r >= 0.9 * b)}' \
    || fail "goodput ${RECOVERED} rps did not recover to 90% of ${BASELINE}"
echo "loadgen_slo_smoke: recovered to ${RECOVERED} rps" \
     "(baseline ${BASELINE})"

# Phase 5 (chaos variant): moderate load with 5% client-side
# transport faults; the daemon survives and goodput keeps a loose
# floor despite the torn connections.
if [ "$CHAOS" = "chaos" ]; then
    "$LOADGEN" --port "$PORT" --rate "$HALF" --connections 8 \
        --duration 6 --mix run=70,ping=10,health=10,stats=10 \
        --faults "socket.read=p0.05;socket.write=p0.05" \
        --fault-seed 7 \
        --require-goodput "$FLOOR" \
        --json "$WORKDIR/loadgen_chaos.json" \
        > "$WORKDIR/chaos.txt" || fail "chaos phase SLO"
    cat "$WORKDIR/chaos.txt"
    kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died under chaos"
    echo "loadgen_slo_smoke: chaos phase held the floor"
fi

"$CLIENT" --port "$PORT" --retry shutdown > /dev/null \
    || fail "shutdown"
tries=0
while kill -0 "$DAEMON_PID" 2>/dev/null; do
    tries=$((tries + 1))
    [ "$tries" -gt 100 ] && fail "daemon did not exit"
    sleep 0.1
done
wait "$DAEMON_PID" 2>/dev/null || true
echo "loadgen_slo_smoke: PASS"
