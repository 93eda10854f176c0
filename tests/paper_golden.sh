#!/bin/sh
# The paper's bytes.
#
# tests/golden/paper.txt is the whole reproduction's stdout (25
# figures and 3 tables) and tests/golden/paper.csv the series of every
# figure.  jcache-paper must print paper.txt byte for byte at --jobs
# 1, at --jobs 3 and with the AVX2 replay tiles off, and one run's
# --csv file must equal paper.csv.  The table cells are padded, so
# many lines end in spaces; the golden files keep them.
#
# Usage: paper_golden.sh <jcache-paper> <golden-dir> <workdir>
set -eu

PAPER=$1
GOLDEN=$2
WORKDIR=$3

fail() {
    echo "paper_golden: FAIL: $1" >&2
    exit 1
}

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"

"$PAPER" --jobs 1 --csv "$WORKDIR/paper.csv" > "$WORKDIR/jobs1.txt" ||
    fail "--jobs 1 run failed"
cmp "$GOLDEN/paper.txt" "$WORKDIR/jobs1.txt" ||
    fail "--jobs 1 stdout differs from paper.txt"
cmp "$GOLDEN/paper.csv" "$WORKDIR/paper.csv" ||
    fail "--csv file differs from paper.csv"

"$PAPER" --jobs 3 > "$WORKDIR/jobs3.txt" || fail "--jobs 3 run failed"
cmp "$GOLDEN/paper.txt" "$WORKDIR/jobs3.txt" ||
    fail "--jobs 3 stdout differs from paper.txt"

JCACHE_NO_AVX2=1 "$PAPER" --jobs 3 > "$WORKDIR/no_avx2.txt" ||
    fail "JCACHE_NO_AVX2=1 run failed"
cmp "$GOLDEN/paper.txt" "$WORKDIR/no_avx2.txt" ||
    fail "JCACHE_NO_AVX2=1 stdout differs from paper.txt"
echo "paper_golden: stdout and CSV match at --jobs 1, 3 and without AVX2"
