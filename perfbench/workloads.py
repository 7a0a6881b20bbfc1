"""The benchmark's workloads: the qlambda command lines each one runs.

Every workload is a closed loop with one client: one fresh interpreter per
command, started only after the previous one has exited, so every command
starts with cold caches, as a command-line user's does.  The seed decides
the command list; qlambda itself sees only the generated argv and stdin.

A command is a pair ``(argv, stdin)``.  ``menu(workload)`` lists every
command a workload can generate, which is what the stdout references in
``references.json`` cover.
"""

from __future__ import annotations

import random

# verify-all: the acceptance-gate path at the default suite bounds.
VERIFY_REPORTS = 348

# emit: every table family and every series name once, at size 32.
EMIT_SIZE = "32"
EMIT_R_VALUES = (1, 2, 3)
EMIT_TABLES = ("stirling1c", "stirling2c", "stirling1d", "stirling2d", "stirling1du",
               "stirling1r", "stirling2r", "stirling1ru", "bell-d", "rbell-d",
               "fubini-c", "fubini-d", "rfubini-d", "harmonic", "hyperharmonic")
EMIT_SERIES = ("degen-exp", "degen-log", "harmonic-gf", "hyperharmonic-gf",
               "fubini-gf", "rfubini-gf")
# Names that take --r; hyperharmonic ones need r >= 1, the rest accept it.
R_NAMES = frozenset({"stirling1r", "stirling2r", "stirling1ru", "rbell-d", "rfubini-d",
                     "hyperharmonic", "hyperharmonic-gf", "rfubini-gf"})

# cli-mix: short invocations drawn from a fixed menu, a fixed number per
# category so that two seeds differ in which commands run, not in how many
# of each kind.
_EVAL_SERIES_QL = '{"order": 2, "coeffs": [["1"], ["0", "1"], ["1/2", "-1"]]}'
_EVAL_SERIES_QQ = '{"order": 2, "coeffs": ["1", "1/2", "-3"]}'
CLI_MENU = {
    "table": [
        (["table", "stirling1c", "--nmax", "8"], None),
        (["table", "stirling2d", "--nmax", "6"], None),
        (["table", "stirling1du", "--nmax", "5"], None),
        (["table", "stirling2r", "--nmax", "6", "--r", "2"], None),
        (["table", "stirling1ru", "--nmax", "5", "--r", "1"], None),
        (["table", "bell-d", "--nmax", "5"], None),
        (["table", "fubini-d", "--nmax", "5"], None),
        (["table", "rfubini-d", "--nmax", "4", "--r", "3"], None),
        (["table", "harmonic", "--nmax", "8"], None),
        (["table", "hyperharmonic", "--nmax", "6", "--r", "2"], None),
        (["table", "stirling1d", "--nmax", "6", "--lambda", "1/2"], None),
        (["table", "fubini-d", "--nmax", "5", "--lambda=-1/3"], None),
        (["table", "stirling2c", "--nmax", "8", "--format", "csv"], None),
        (["table", "stirling2d", "--nmax", "6", "--format", "csv"], None),
        (["table", "stirling1r", "--nmax", "5", "--r", "2", "--format", "csv"], None),
        (["table", "rbell-d", "--nmax", "5", "--r", "1", "--format", "csv"], None),
        (["table", "fubini-c", "--nmax", "6", "--format", "csv"], None),
        (["table", "harmonic", "--nmax", "8", "--format", "csv", "--lambda", "2"], None),
        (["table", "stirling2d", "--nmax", "6", "--format", "csv", "--lambda", "1/4"], None),
        (["table", "bell-d", "--nmax", "5", "--format", "csv", "--lambda", "3"], None),
    ],
    "series": [
        (["series", "degen-exp", "--order", "8"], None),
        (["series", "degen-log", "--order", "8"], None),
        (["series", "harmonic-gf", "--order", "8"], None),
        (["series", "hyperharmonic-gf", "--order", "6", "--r", "2"], None),
        (["series", "fubini-gf", "--order", "5"], None),
        (["series", "rfubini-gf", "--order", "5", "--r", "1"], None),
        (["series", "degen-exp", "--order", "8", "--lambda", "1/3"], None),
        (["series", "fubini-gf", "--order", "5", "--lambda", "1/2"], None),
        (["series", "degen-log", "--order", "8", "--format", "csv"], None),
        (["series", "harmonic-gf", "--order", "8", "--format", "csv", "--lambda", "-2"], None),
        (["series", "fubini-gf", "--order", "5", "--format", "csv"], None),
        (["series", "rfubini-gf", "--order", "5", "--r", "2", "--format", "csv",
          "--lambda", "1/5"], None),
    ],
    "eval": [
        (["eval"], '"6/8"'),
        (["eval"], '["1", "-1/2", "1/3"]'),
        (["eval", "--lambda", "2"], '["1", "-1/2", "1/3"]'),
        (["eval"], '[["1"], ["0", "1"], ["-1/2"]]'),
        (["eval", "--lambda", "1/3"], '[["1"], ["0", "1"], ["-1/2"]]'),
        (["eval", "--x", "1/2"], '[["1"], ["0", "1"], ["-1/2"]]'),
        (["eval", "--x", "2", "--lambda", "-1"], '[["1"], ["0", "1"], ["-1/2"]]'),
        (["eval"], _EVAL_SERIES_QL),
        (["eval", "--lambda", "1/2"], _EVAL_SERIES_QL),
        (["eval"], _EVAL_SERIES_QQ),
    ],
    "verify": [
        (["verify", "--suite", "thm4,cor7", "--nmax", "4"], None),
        (["verify", "--suite", "thm4", "--nmax", "8"], None),
        (["verify", "--suite", "cor7", "--nmax", "6"], None),
    ],
    # Usage errors: each must exit with code 2 and print nothing on stdout.
    "usage": [
        (["frobnicate"], None),
        (["table", "nosuch"], None),
        (["table", "stirling1c", "--r", "2"], None),
        (["table", "stirling2d", "--nmax", "-1"], None),
        (["table", "stirling2d", "--nmax", "99"], None),
        (["table", "stirling2d", "--cap", "9999"], None),
        (["table", "stirling2d", "--lambda", "abc"], None),
        (["table", "stirling2d", "--format", "xml"], None),
        (["table", "hyperharmonic", "--nmax", "4"], None),
        (["series", "nosuch"], None),
        (["series", "hyperharmonic-gf", "--order", "4"], None),
        (["verify", "--suite", "nosuch"], None),
        (["eval"], "not json"),
        (["eval"], "{}"),
    ],
}
CLI_COUNTS = {"table": 60, "series": 40, "eval": 40, "verify": 20, "usage": 40}

WORKLOADS = ("verify-all", "emit", "cli-mix")


def _emit(pick_r) -> list:
    out = []
    for kind, names, size_flag in (("table", EMIT_TABLES, "--nmax"),
                                   ("series", EMIT_SERIES, "--order")):
        for name in names:
            argv = [kind, name, size_flag, EMIT_SIZE]
            r_values = pick_r() if name in R_NAMES else [None]
            out += [(argv if r is None else argv + ["--r", str(r)], None) for r in r_values]
    return out


def commands(workload: str, seed: int, fault: str | None = None) -> list:
    """The command list of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-all":
        argv = ["verify", "--suite", "all", "--seed", str(seed)]
        if fault:
            argv += ["--fault", fault]
        return [(argv, None)]
    if workload == "emit":
        return _emit(lambda: [rng.choice(EMIT_R_VALUES)])
    if workload == "cli-mix":
        out = [rng.choice(CLI_MENU[cat]) for cat, count in CLI_COUNTS.items()
               for _ in range(count)]
        rng.shuffle(out)
        return out
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def menu(workload: str) -> list:
    """Every command ``commands(workload, ...)`` can generate (verify-all has none fixed)."""
    if workload == "emit":
        return _emit(lambda: EMIT_R_VALUES)
    if workload == "cli-mix":
        return [cmd for cat in CLI_COUNTS for cmd in CLI_MENU[cat]]
    return []


def key(argv, stdin) -> str:
    """Reference lookup key of one command."""
    return " ".join(argv) + ("" if stdin is None else " <<< " + stdin)
