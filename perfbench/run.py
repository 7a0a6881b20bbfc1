"""qlambda benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload verify-all|emit|cli-mix --seed N
                             --seconds S --trace 0|1 [--fault SPEC]

Run from the root of a checkout; the program is imported from ``src``.
Each command runs in a fresh interpreter (``worker.py``), one at a time.
A pass is the workload's whole command list; passes repeat while the next
one is expected to end within ``--seconds`` (at least one).  Outputs are
checked against ``references.json`` (verify-all instead requires every one
of its 348 reports to pass).

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced pass; each of its
commands follows the same command run untraced, for the tracing overhead.
Human-readable lines come first, and a full record (environment, command
list, per-command results, metrics) goes to ``perfbench/results/``.
``--fault`` passes a fault to verify-all's ``--fault`` hook, to show that
failures are counted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")
REFERENCES = os.path.join(BENCH_DIR, "references.json")
RESULTS = os.path.join(BENCH_DIR, "results")

# Set-up-only processes before the first pass and after the last one, so
# that setup_s is a median over the run and not over one moment of it, even
# on verify-all, whose pass is a single process.  Each takes about 0.1 s.
SETUP_PROBES = 20
DEADLINE_S = 170  # every command ends before the run's 180 s limit
# On a shared host each CPU slows down and speeds up on its own, as other
# tenants load it.  Workers start on the CPUs in turn and move to the next
# CPU every SLICE_S, so every measurement averages all the CPUs it may use
# instead of sampling whichever one it landed on.
SLICE_S = 0.5

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
             "cmd_p50_s": "s", "cmd_p95_s": "s"}


class Run:
    """Spawns the workers of one benchmark run and collects their records."""

    def __init__(self, trace_dir=None, deadline_s=DEADLINE_S):
        self.started = time.perf_counter()
        self.deadline_s = deadline_s  # None: commands are never killed
        self.trace_dir = trace_dir  # where traced workers write their trace files
        self.setup_s = []
        self.spawned = 0
        self.cpus = sorted(os.sched_getaffinity(0))

    def command(self, argv, stdin=None, traced=False):
        """Run one qlambda command in a fresh worker; return its record."""
        trace_path = "-"
        if traced:
            trace_path = os.path.join(self.trace_dir, f"{self.spawned}.json")
        self.spawned += 1
        ready_r, ready_w = os.pipe()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER, str(ready_w), trace_path, *argv],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, pass_fds=(ready_w,), cwd=ROOT)
        os.close(ready_w)
        turn = self.spawned
        self._place(proc.pid, turn)
        try:
            with os.fdopen(ready_r, "rb") as ready:
                is_ready = ready.read(1) == b"R"
            t_ready = time.perf_counter()
            out, err = self._wait(proc, stdin, turn)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        t_end = time.perf_counter()
        if is_ready:
            self.setup_s.append(t_ready - t0)
        return {"argv": argv, "stdin": stdin, "exit": proc.returncode,
                "seconds": t_end - t0, "stdout": out,
                "stderr_tail": err.decode("utf-8", "replace")[-300:],
                "trace": None if trace_path == "-" else trace_path}

    def _place(self, pid, turn):
        if len(self.cpus) > 1:
            try:
                os.sched_setaffinity(pid, {self.cpus[turn % len(self.cpus)]})
            except OSError:  # the worker has already exited
                pass

    def _wait(self, proc, stdin, turn):
        """communicate() with the worker, moving it to the next CPU every slice."""
        data = None if stdin is None else stdin.encode()
        while True:
            if (self.deadline_s is not None
                    and time.perf_counter() - self.started > self.deadline_s):
                return b"", b"timed out"
            try:
                return proc.communicate(data, timeout=SLICE_S)
            except subprocess.TimeoutExpired:
                data = None  # already sent: communicate() must not get it twice
                turn += 1
                self._place(proc.pid, turn)

    def probe_setup(self):
        for _ in range(SETUP_PROBES):
            self.command([])


def load_references():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload, rec, references):
    """(items attempted, items failed) for one command record."""
    if workload == "verify-all":
        try:
            reports = json.loads(rec["stdout"])
        except ValueError:
            reports = []
        if not isinstance(reports, list):
            reports = []
        expected = workloads.VERIFY_REPORTS
        passed = sum(1 for rep in reports if isinstance(rep, dict) and rep.get("passed") is True)
        if len(reports) != expected or (rec["exit"] != 0 and passed == expected):
            passed = 0  # the command itself failed: count every report as failed
        return expected, expected - passed
    ref = references[workload].get(workloads.key(rec["argv"], rec["stdin"]))
    ok = (ref is not None and rec["exit"] == ref["exit"]
          and hashlib.sha256(rec["stdout"]).hexdigest() == ref["sha256"])
    return 1, 0 if ok else 1


def checked_pass(workload, records, wall, references):
    attempted = failed = 0
    for rec in records:
        a, f = check(workload, rec, references)
        rec["failed_items"] = f
        attempted += a
        failed += f
    return {"wall_s": wall, "records": records, "attempted": attempted, "failed": failed}


def run_pass(run, workload, cmds, references):
    t0 = time.perf_counter()
    records = [run.command(argv, stdin) for argv, stdin in cmds]
    return checked_pass(workload, records, time.perf_counter() - t0, references)


def traced_passes(run, workload, cmds, references):
    """An untraced and a traced pass, each command run untraced then traced.

    Pairing every command with its traced twin keeps most of the machine's
    speed drift out of the overhead ratio.
    """
    plain, traced = [], []
    for argv, stdin in cmds:
        plain.append(run.command(argv, stdin))
        traced.append(run.command(argv, stdin, traced=True))
    return [checked_pass(workload, records, sum(r["seconds"] for r in records), references)
            for records in (plain, traced)]


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


def end_to_end(passes, run):
    times = [rec["seconds"] for p in passes for rec in p["records"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "cmd_p50_s": statistics.median(times),
        "cmd_p95_s": percentile(times, 95),
    }, {"wall_s": len(passes), "setup_s": len(run.setup_s), "peak_rss_mib": run.spawned,
        "cmd_p50_s": len(times), "cmd_p95_s": len(times)}


def per_layer(traced, untraced_wall):
    calls, self_s, counts = {}, {}, {}
    for rec in traced["records"]:
        if not os.path.exists(rec["trace"]):
            continue  # the worker died before writing it; check() counted the failure
        with open(rec["trace"], encoding="utf-8") as fh:
            data = json.load(fh)
        for name, value in data["calls"].items():
            calls[name] = calls.get(name, 0) + value
        for name, value in data["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
        rec["spans"] = data["spans"]
    metrics = {}
    for layer in tracing.layer_names():
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    metrics[tracing.ROWS_REQUESTED] = counts.get(tracing.ROWS_REQUESTED, 0)
    metrics[tracing.OVERHEAD] = traced["wall_s"] / untraced_wall - 1
    return {name: metrics[name] for name in tracing.metric_names()}


def layer_unit(name):
    if name == tracing.OVERHEAD:
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def environment(seed):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "platform": platform.platform(), "git_commit": commit,
            "src_sha256": digest.hexdigest(), "seed": seed}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", default=None, metavar="FAMILY:R:N:K[:DELTA]",
                        help="corrupt one triangle entry in verify-all (checks the failure count)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qlambda", "cli.py")):
        print(f"error: no qlambda sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.fault and args.workload != "verify-all":
        print("error: --fault applies to verify-all only", file=sys.stderr)
        return 2
    references = load_references()
    cmds = workloads.commands(args.workload, args.seed, args.fault)
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_dir = os.path.join(RESULTS, tag + "-spans") if args.trace else None

    run = Run(trace_dir)
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
        passes = traced_passes(run, args.workload, cmds, references)
        metrics = per_layer(passes[1], passes[0]["wall_s"])
        units = {name: layer_unit(name) for name in metrics}
        samples = {}
    else:
        run.probe_setup()
        passes = []
        started = time.perf_counter()
        while True:
            passes.append(run_pass(run, args.workload, cmds, references))
            mean_pass = statistics.fmean(p["wall_s"] for p in passes)
            if time.perf_counter() - started + mean_pass > args.seconds:
                break
        run.probe_setup()
        metrics, samples = end_to_end(passes, run)
        units = E2E_UNITS

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    fail_frac = failed / attempted
    env = environment(args.seed)
    print(f"qlambda benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(passes)} pass(es) of {len(cmds)} command(s), "
          f"{run.spawned} processes")
    print(f"  Python {env['python']}, nproc {env['nproc']}, {env['cpu_model']}, "
          f"commit {env['git_commit'] or 'unknown'}, src sha256 {env['src_sha256'][:12]}")
    for name, value in metrics.items():
        note = (f"  n={samples[name]}" if name in samples
                else f"  moves {tracing.moves(name)}" if args.trace else "")
        print(f"  {name:40s} {value:14.6f} {units[name]}{note}")
    print(f"  {'fail_frac':40s} {fail_frac:14.6f} ratio  ({failed} of {attempted} items failed)")
    for p in passes:
        for rec in p["records"]:
            if rec["failed_items"]:
                print(f"  FAILED: qlambda {workloads.key(rec['argv'], rec['stdin'])} "
                      f"(exit {rec['exit']}, {rec['failed_items']} item(s))")

    record = {
        "environment": env,
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "fault": args.fault, "commands": [workloads.key(a, s) for a, s in cmds],
        "passes": [{"wall_s": p["wall_s"], "attempted": p["attempted"], "failed": p["failed"],
                    "records": [{"command": workloads.key(r["argv"], r["stdin"]),
                                 "exit": r["exit"], "seconds": r["seconds"],
                                 "stdout_sha256": hashlib.sha256(r["stdout"]).hexdigest(),
                                 "failed_items": r["failed_items"],
                                 "stderr_tail": r["stderr_tail"],
                                 "spans": r.get("spans")} for r in p["records"]]}
                   for p in passes],
        "setup_s": run.setup_s, "fail_frac": fail_frac,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "moves": ({name: tracing.moves(name) for name in metrics} if args.trace else None),
    }
    out_path = os.path.join(RESULTS, tag + ".json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, separators=(",", ":"))
    if trace_dir:
        shutil.rmtree(trace_dir)
    print(f"  record: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
