"""Record the stdout sha256 and exit code of every command emit and cli-mix can run.

    python3 perfbench/make_references.py

Run from the root of a checkout whose outputs are known to be right; it
rewrites ``perfbench/references.json``.  The benchmark counts any command
whose output or exit code differs from its reference as failed.
"""

import hashlib
import json
import sys

import run
import workloads


def main() -> int:
    refs = {}
    bench = run.Run(deadline_s=None)
    for workload in ("emit", "cli-mix"):
        refs[workload] = {}
        for argv, stdin in workloads.menu(workload):
            rec = bench.command(argv, stdin)
            if rec["exit"] < 0:
                print(f"error: killed by signal {-rec['exit']}: {workloads.key(argv, stdin)}; "
                      f"{run.REFERENCES} left as it was", file=sys.stderr)
                return 1
            refs[workload][workloads.key(argv, stdin)] = {
                "exit": rec["exit"], "sha256": hashlib.sha256(rec["stdout"]).hexdigest()}
            print(f"{rec['seconds']:7.2f}s exit {rec['exit']}  {workloads.key(argv, stdin)}",
                  flush=True)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
