"""Run every workload once and print its end-to-end metrics by name, with units.

    python3 perfbench/summary.py [--seed N]

Each workload runs untraced in its own ``run.py`` process (so peak RSS is
per workload), for ``run_seconds`` from ``BENCHMARK.json``; their
human-readable lines are passed through, then one table lists every
metric and ``fail_frac`` for each workload.
"""

import argparse
import json
import os
import subprocess
import sys

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")
SPEC = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(SPEC, encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, RUN, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(seconds),
                               "--trace", "0"],
                              capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(f"\n{'metric':40s}" + "".join(f"{w:>16s}" for w in results) + "  unit")
    first = next(iter(results.values()))
    for name, metric in first["metrics"].items():
        cells = "".join(f"{r['metrics'][name]['value']:16.6g}" for r in results.values())
        print(f"{name:40s}{cells}  {metric['unit']}")
    fail = "".join(f"{r['failed'] / r['attempted']:16.6g}" for r in results.values())
    print(f"{'fail_frac':40s}{fail}  ratio")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
