#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a jcache checkout:

    python3 perfbench/selftest.py

Checks, with short runs:
  1. two runs with the same seed give identical counts and an identical
     digest of all results (grid and served workloads);
  2. the traced run emits exactly the per-layer metrics BENCHMARK.json
     lists, with no negative self time, and the untraced run exactly
     the end-to-end metrics;
  3. a planted mismatch trips the correctness gate;
  4. another seed gives other inputs, and the held-out seed passes the
     gate.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
SEED, OTHER_SEED, HELD_OUT_SEED = 7, 8, 1009
COUNT_METRICS = ["sim.lanes_fast", "sim.lanes_generic", "service.cache_hits",
                 "service.cache_lookups", "store.hits", "store.lookups",
                 "store.bytes_per_entry"]

failures = []


def check(condition, message):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        failures.append(message)


def run(workload, seed, trace, *extra):
    """One short run: (exit code, final JSON line, appended record)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd + list(extra), capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    with open(os.path.join(BUILD, "results.jsonl")) as f:
        record = json.loads(f.readlines()[-1])
    return out.returncode, result, record


def manifest_digests(seed):
    path = os.path.join(BUILD, "work", "inputs", f"seed-{seed}-scale-1",
                        "manifest.txt")
    with open(path) as f:
        return {fields[0]: fields[3] for fields in
                (line.split() for line in f) if len(fields) == 4}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}

    # 1 + 2: same seed twice, traced grid and untraced served mix.
    code_a, result_a, rec_a = run("paper-grid", SEED, 1)
    code_b, result_b, rec_b = run("paper-grid", SEED, 1)
    check(code_a == 0 and code_b == 0, "traced paper-grid runs pass the gate")
    check(rec_a["counts"] == rec_b["counts"],
          "paper-grid counts repeat for one seed")
    check(rec_a["results_digest"] == rec_b["results_digest"],
          "paper-grid results digest repeats for one seed")
    for name in COUNT_METRICS:
        check(result_a["metrics"][name] == result_b["metrics"][name],
              f"{name} repeats for one seed")
    check(set(result_a["metrics"]) == per_layer,
          "traced run emits exactly the per-layer metrics")
    check(all(m["value"] >= 0 for n, m in result_a["metrics"].items()
              if n.endswith(".self_s")), "no negative self time")
    check(result_a["metrics"]["sim.lanes_generic"]["value"] == 0,
          "paper-grid has no generic lanes")

    code_a, result_a, rec_a = run("served-mix", SEED, 0)
    code_b, result_b, rec_b = run("served-mix", SEED, 0)
    check(code_a == 0 and code_b == 0, "served-mix runs pass the gate")
    check(rec_a["counts"] == rec_b["counts"],
          "served-mix counts repeat for one seed")
    check(rec_a["results_digest"] == rec_b["results_digest"],
          "served-mix results digest repeats for one seed")
    check(set(result_a["metrics"]) == end_to_end,
          "untraced run emits exactly the end-to-end metrics")

    # 3: a planted mismatch trips the gate.
    code, result, _ = run("paper-grid", SEED, 0, "--plant-mismatch")
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] > 0, "a planted mismatch fails the run")

    # 4: other seeds give other inputs; the held-out seed passes.
    _, _, rec_other = run("served-mix", OTHER_SEED, 0)
    ours, theirs = manifest_digests(SEED), manifest_digests(OTHER_SEED)
    check(set(ours) == set(theirs) and
          all(ours[k] != theirs[k] for k in ours),
          "another seed gives different traces")
    check(rec_other["results_digest"] != rec_a["results_digest"],
          "another seed gives different results")
    code, result, _ = run("assoc-grid", HELD_OUT_SEED, 1)
    check(code == 0 and result["correct"], "the held-out seed passes the gate")
    check(result["metrics"]["sim.lanes_fast"]["value"] == 0,
          "assoc-grid has no fast lanes")

    print(f"{len(failures)} check(s) failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
