"""Checks on the benchmark itself; exits non-zero if any fails.

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` names exactly the metrics ``run.py`` reports.
2. The failure counter works: verify-all through qlambda's ``--fault``
   hook reports a nonzero ``fail_frac``; the clean run reports zero.
3. Two traced runs of each workload with the same seed give identical
   ``.calls`` counts (and rows requested).

Takes about ten minutes on a 2-core machine.
"""

import json
import os
import subprocess
import sys

import run
import tracing
import workloads

FAULT = "stirling2r:1:3:2"
SEED = 7


def bench(workload, trace, *extra):
    proc = subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                           "--trace", str(trace), *extra],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed for {workload}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    problems = []
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if [m["name"] for m in spec["end_to_end"]] != list(run.E2E_UNITS):
        problems.append("BENCHMARK.json end_to_end differs from run.E2E_UNITS")
    if [m["name"] for m in spec["per_layer"]] != tracing.metric_names():
        problems.append("BENCHMARK.json per_layer differs from tracing.metric_names()")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    clean = bench("verify-all", 0)
    faulty = bench("verify-all", 0, "--fault", FAULT)
    print(f"verify-all clean: {clean['failed']}/{clean['attempted']} failed; "
          f"with --fault {FAULT}: {faulty['failed']}/{faulty['attempted']} failed")
    if clean["failed"] != 0 or not clean["correct"]:
        problems.append("clean verify-all run reports failures")
    if faulty["failed"] == 0 or faulty["correct"]:
        problems.append("faulty verify-all run reports no failures")

    counted = [name for name in tracing.metric_names()
               if name.endswith(".calls") or name == tracing.ROWS_REQUESTED]
    for workload in workloads.WORKLOADS:
        first, second = bench(workload, 1), bench(workload, 1)
        a = {name: first["metrics"][name]["value"] for name in counted}
        b = {name: second["metrics"][name]["value"] for name in counted}
        differ = sorted(name for name in counted if a[name] != b[name])
        print(f"{workload}: traced twice with seed {SEED}: "
              f"{len(counted) - len(differ)}/{len(counted)} counts equal; overhead "
              f"{first['metrics'][tracing.OVERHEAD]['value']:.3f}, "
              f"{second['metrics'][tracing.OVERHEAD]['value']:.3f}")
        if differ:
            problems.append(f"{workload}: counts differ between traced runs: {differ}")
        if not (first["correct"] and second["correct"]):
            problems.append(f"{workload}: traced run produced wrong output")

    for problem in problems:
        print("FAIL:", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
