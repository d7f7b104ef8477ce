#!/usr/bin/env python3
"""The benchmark's own test, at toy sizes (about a minute):

    python3 perfbench/selftest.py

Checks, through run.py exactly as the benchmark is run:
  * every workload finishes, prints every end-to-end metric
    by name with its unit (latency_p99_ms and failed_pct with their
    counts), and ends with a JSON line holding exactly BENCHMARK.json's
    end-to-end metrics;
  * every traced run reports every per-layer metric;
  * the same seed gives the same input hash and another seed another one;
  * a deliberately corrupted expected answer is counted in failed_pct and
    makes the run exit nonzero, so the output check is live;
  * run.py exits nonzero without a result where only BENCHMARK.json and the
    benchmark's own files exist.
Exits nonzero on the first failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ["solve", "serve", "cold_ranges"]


def run(workload, seed=1, trace=0, extra=(), cwd=ROOT, script=RUN):
    command = [sys.executable, script, "--workload", workload,
               "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
               "--toy", *extra]
    result = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                            timeout=300)
    return result.returncode, result.stdout, result.stderr


def last_json(stdout):
    line = stdout.strip().splitlines()[-1]
    record = json.loads(line)
    assert set(record) == {"correct", "attempted", "failed", "metrics"}, line
    return record


def input_hash(stdout):
    match = re.search(r"input hash ([0-9a-f]{16})", stdout)
    assert match, "no input hash printed"
    return match.group(1)


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check([w["name"] for w in spec["workloads"]] == WORKLOADS,
          "BENCHMARK.json lists the workloads")

    for workload in WORKLOADS:
        code, out, err = run(workload)
        check(code == 0, f"{workload}: exits 0 ({err.strip()[-300:]})")
        record = last_json(out)
        check(record["correct"] and record["failed"] == 0 and
              record["attempted"] > 0,
              f"{workload}: correct, {record['attempted']} attempted")
        got = {k: v["unit"] for k, v in record["metrics"].items()}
        check(got == e2e, f"{workload}: every end-to-end metric with its unit")
        check(all(v["value"] > 0 for v in record["metrics"].values()),
              f"{workload}: no end-to-end metric reads 0")
        check(all(re.search(rf"^  {re.escape(n)}\s", out, re.M)
                  for n in [*e2e, "latency_p99_ms"])
              and re.search(r"^  failed_pct\s.*attempted", out, re.M),
              f"{workload}: report prints every metric and failed_pct")

        code, out, err = run(workload, trace=1)
        check(code == 0, f"{workload} traced: exits 0 ({err.strip()[-300:]})")
        got = {k: v["unit"] for k, v in last_json(out)["metrics"].items()}
        check(got == layers, f"{workload} traced: every per-layer metric")
        check("trace: " in out, f"{workload} traced: span summary printed")

    for workload in WORKLOADS:
        hashes = [input_hash(run(workload, seed=s)[1]) for s in (7, 7, 8)]
        check(hashes[0] == hashes[1] != hashes[2],
              f"{workload}: same seed same inputs, other seed other inputs "
              f"({', '.join(hashes)})")

    for workload in WORKLOADS:
        code, out, _ = run(workload, extra=["--corrupt-expected"])
        record = last_json(out)
        pct = re.search(r"^  failed_pct\s+([0-9.]+)", out, re.M)
        check(code != 0 and not record["correct"] and record["failed"] > 0
              and pct and float(pct.group(1)) > 0,
              f"{workload}: a corrupted expected answer counts "
              f"{record['failed']} failures, failed_pct {pct.group(1)}")

    bare = os.path.join(ROOT, ".bench_out", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _ = run("solve", cwd=bare,
                       script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and '"metrics"' not in out,
          "without the sources: nonzero exit and no result")


if __name__ == "__main__":
    main()
