#!/bin/sh
# Crash-recovery test for store-backed jcache-sweep runs.
#
# The acceptance property: a sweep that is SIGKILLed mid-run and then
# rerun with --incremental over the same --store-dir produces output
# byte-identical to a sweep that never touched a store, simulating
# only the cells the killed run did not publish.  The kill is
# deterministic — the store.put.crash fault site SIGKILLs the process
# inside the nth put — so the test never races the scheduler.
#
# Usage: sweep_store_resume.sh <jcache-sweep> <workdir>
set -eu

SWEEP=$1
WORKDIR=$2

mkdir -p "$WORKDIR"
STORE="$WORKDIR/store-percell"
STORE_ONEPASS="$WORKDIR/store-onepass"
rm -rf "$STORE" "$STORE_ONEPASS"

fail() {
    echo "sweep_store_resume: FAIL: $1" >&2
    exit 1
}

# killed_run <store> <log> [engine flags...]: a single-threaded size
# sweep that the fault harness SIGKILLs inside its 4th store put, so
# exactly 3 cells were published.
killed_run() {
    store=$1
    log=$2
    shift 2
    status=0
    JCACHE_FAULTS="store.put.crash=n4" \
        "$SWEEP" ccom --axis size "$@" --jobs 1 --store-dir "$store" \
        --progress > /dev/null 2> "$log" || status=$?
    [ "$status" -eq 137 ] ||
        fail "expected SIGKILL (exit 137), got exit $status"
}

# 1. Reference tables from sweeps that never touch a store.
"$SWEEP" ccom --axis size > "$WORKDIR/reference.txt" ||
    fail "reference size sweep failed"
"$SWEEP" ccom --axis line > "$WORKDIR/reference_line.txt" ||
    fail "reference line sweep failed"

# 2. Per-cell engine: cells reach the store as they finish, so the
#    kill lands before the last cells were simulated.
killed_run "$STORE" "$WORKDIR/kill_percell.log" --engine percell
grep -q "\[3/8\]" "$WORKDIR/kill_percell.log" ||
    fail "killed sweep reported no progress before the kill"
if grep -q "\[8/8\]" "$WORKDIR/kill_percell.log"; then
    fail "killed sweep simulated every cell before its first put"
fi

# 3. Rerunning with --incremental simulates only the missing cells
#    and reproduces the storeless table exactly.
"$SWEEP" ccom --axis size --engine percell --jobs 1 --store-dir "$STORE" \
    --incremental > "$WORKDIR/resumed.txt" 2> "$WORKDIR/resume.log" ||
    fail "resumed per-cell sweep failed"
grep -q "store: reused 3 cells, simulated 5 cells" \
    "$WORKDIR/resume.log" ||
    fail "resume did not reuse exactly the 3 published cells"
cmp -s "$WORKDIR/reference.txt" "$WORKDIR/resumed.txt" ||
    fail "resumed per-cell sweep differs from the storeless sweep"
[ -z "$(find "$STORE" -name '*.tmp')" ] ||
    fail "the half-written put survived the reopen"

# 4. The same kill and rerun under the default one-pass engine, in a
#    fresh store directory.
killed_run "$STORE_ONEPASS" "$WORKDIR/kill_onepass.log"
"$SWEEP" ccom --axis size --jobs 1 --store-dir "$STORE_ONEPASS" \
    --incremental > "$WORKDIR/resumed_onepass.txt" \
    2> "$WORKDIR/resume_onepass.log" ||
    fail "resumed one-pass sweep failed"
grep -q "store: reused 3 cells, simulated 5 cells" \
    "$WORKDIR/resume_onepass.log" ||
    fail "one-pass resume did not reuse exactly the 3 published cells"
cmp -s "$WORKDIR/reference.txt" "$WORKDIR/resumed_onepass.txt" ||
    fail "resumed one-pass sweep differs from the storeless sweep"

# 5. The store never mixes sweeps: a line-axis sweep over the first
#    store reuses exactly the one point both axes share (8KB/16B).
"$SWEEP" ccom --axis line --engine percell --store-dir "$STORE" \
    --incremental > "$WORKDIR/line.txt" 2> "$WORKDIR/line.log" ||
    fail "line sweep over the shared store failed"
grep -q "store: reused 1 cells, simulated 4 cells" "$WORKDIR/line.log" ||
    fail "line sweep did not reuse exactly the shared 8KB/16B cell"
cmp -s "$WORKDIR/reference_line.txt" "$WORKDIR/line.txt" ||
    fail "line sweep over the shared store differs from a storeless one"

echo "sweep_store_resume: PASS"
