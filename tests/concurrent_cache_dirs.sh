#!/bin/sh
# Concurrent writers of shared cache directories.
#
# jcache-sweep's --trace-cache-dir and --store-dir may be shared by
# processes that run at once.  Four incremental sweeps start together
# on an empty replay-cache directory and an empty store, so all four
# write the same JCRC file, the same name ref and the same store
# blobs.  Every run must exit 0 and print a table byte-identical to a
# solo sweep that used neither directory, and no temporary may be
# left behind.
#
# Usage: concurrent_cache_dirs.sh <jcache-sweep> <workdir>
set -eu

SWEEP=$1
WORKDIR=$2
RUNS=4

fail() {
    echo "concurrent_cache_dirs: FAIL: $1" >&2
    exit 1
}

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
"$SWEEP" ccom --axis size > "$WORKDIR/solo.txt" ||
    fail "solo sweep failed"

pids=""
i=1
while [ "$i" -le "$RUNS" ]; do
    "$SWEEP" ccom --axis size --trace-cache-dir "$WORKDIR/traces" \
        --store-dir "$WORKDIR/store" --incremental \
        > "$WORKDIR/run$i.txt" 2> "$WORKDIR/run$i.log" &
    pids="$pids $!"
    i=$((i + 1))
done

i=1
for pid in $pids; do
    status=0
    wait "$pid" || status=$?
    [ "$status" -eq 0 ] ||
        fail "run $i exited $status: $(cat "$WORKDIR/run$i.log")"
    cmp -s "$WORKDIR/solo.txt" "$WORKDIR/run$i.txt" ||
        fail "run $i printed a table that differs from the solo sweep"
    i=$((i + 1))
done

[ -z "$(find "$WORKDIR/traces" "$WORKDIR/store" -name '*.tmp')" ] ||
    fail "a temporary was left behind"
echo "concurrent_cache_dirs: $RUNS concurrent runs ok"
