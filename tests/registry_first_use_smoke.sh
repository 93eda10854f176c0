#!/bin/sh
# jcached builds its trace registry on first use, not at start-up.
#
# Counts spans in the daemon's --trace-out capture; no timing bound:
#
#   1. jcache-sweep fills a replay-cache directory with ccom's file.
#   2. A daemon over that directory answers a `digest:` run of the
#      file: its capture holds no `trace.generate` span.
#   3. A second daemon, started the same way, answers a `name:ccom`
#      and a `name:grr` run: the first builds the nine-trace registry
#      once, so its capture holds nine `trace.generate` and nine
#      `trace.digest` spans.  Its ccom table is byte-identical to the
#      first daemon's: the mapped file resolves under the registry
#      trace's name.
#
# Usage: registry_first_use_smoke.sh <jcached> <jcache-client> \
#            <jcache-sweep> <workdir>
set -eu

JCACHED=$1
CLIENT=$2
SWEEP=$3
WORKDIR=$4

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
CACHE_DIR="$WORKDIR/traces"
DAEMON_PID=""
trap '[ -z "$DAEMON_PID" ] || kill "$DAEMON_PID" 2>/dev/null || true' EXIT

fail() {
    echo "registry_first_use_smoke: FAIL: $1" >&2
    exit 1
}

# start_daemon <tag>: jcached over CACHE_DIR, capturing spans to
# <tag>.json; sets PORT once the daemon has published it.
start_daemon() {
    rm -f "$WORKDIR/$1.port"
    "$JCACHED" --port 0 --port-file "$WORKDIR/$1.port" --jobs 2 \
        --trace-cache-dir "$CACHE_DIR" --trace-out "$WORKDIR/$1.json" \
        > "$WORKDIR/$1.log" 2>&1 &
    DAEMON_PID=$!
    tries=0
    while [ ! -s "$WORKDIR/$1.port" ]; do
        tries=$((tries + 1))
        [ "$tries" -gt 100 ] && fail "$1: daemon never wrote its port file"
        kill -0 "$DAEMON_PID" 2>/dev/null || fail "$1: daemon exited early"
        sleep 0.1
    done
    PORT=$(cat "$WORKDIR/$1.port")
}

# stop_daemon: in-band shutdown; the daemon writes its capture at exit.
stop_daemon() {
    "$CLIENT" --port "$PORT" shutdown > /dev/null || fail "shutdown"
    wait "$DAEMON_PID" || fail "daemon exited non-zero"
    DAEMON_PID=""
}

# spans <tag> <name>: the number of <name> spans in <tag>'s capture.
spans() {
    grep -c "\"name\": \"$2\"" "$WORKDIR/$1.json" || true
}

# 1. One registry workload's replay-cache file.
"$SWEEP" ccom --axis size --trace-cache-dir "$CACHE_DIR" \
    > "$WORKDIR/sweep.txt" || fail "jcache-sweep --trace-cache-dir"
set -- "$CACHE_DIR"/*.jcrc
[ "$#" -eq 1 ] && [ -f "$1" ] \
    || fail "expected one .jcrc file in $CACHE_DIR"
DIGEST=$(basename "$1" .jcrc)

# 2. A daemon asked only for a digest generates nothing.
start_daemon digest
"$CLIENT" --port "$PORT" run "digest:$DIGEST" --size 16 \
    > "$WORKDIR/digest_run.txt" || fail "run digest:$DIGEST"
stop_daemon
[ "$(spans digest job.run)" -ge 1 ] \
    || fail "digest daemon captured no job.run span"
N=$(spans digest trace.generate)
[ "$N" -eq 0 ] || fail "digest-only daemon generated $N traces, want 0"
echo "registry_first_use_smoke: digest-only daemon generated 0 traces"

# 3. The first name ref builds the registry, once.
start_daemon name
"$CLIENT" --port "$PORT" run name:ccom --size 16 \
    > "$WORKDIR/name_run.txt" || fail "run name:ccom"
"$CLIENT" --port "$PORT" run name:grr --size 16 > /dev/null \
    || fail "run name:grr"
stop_daemon
N=$(spans name trace.generate)
[ "$N" -eq 9 ] || fail "name daemon generated $N traces, want 9"
N=$(spans name trace.digest)
[ "$N" -eq 9 ] || fail "name daemon digested $N traces, want 9"
cmp "$WORKDIR/digest_run.txt" "$WORKDIR/name_run.txt" \
    || fail "digest run and name run of ccom differ"
echo "registry_first_use_smoke: two name runs generated the 9 traces once"
echo "registry_first_use_smoke: PASS"
