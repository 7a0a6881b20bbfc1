"""Reach check: every function in ``src/`` runs under some command, or says why it does not.

Traces call events from before ``qlambda`` is imported, then runs in this
process, each in a fresh ``Tables``:

* every command of the benchmark's ``emit`` and ``cli-mix`` menus
  (``perfbench/workloads.menu``, read only);
* ``verify --suite all``, clean and with each fault of ``same_bytes.FAULTS``.

It lists each function or nested code object of ``src/qlambda`` (by
module and ``co_qualname``) that no command entered and that ``ALLOWED``
does not name, and exits 1 if there is one, else 0.

    python tools/reach.py

Runs for about two minutes; it is not part of the tier-1 suite, but
``tests/test_reach.py`` checks there that every ``ALLOWED`` name still
names a definition in ``src/``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qlambda"

_MAKE = "a value type's _make, which _replace calls; no command replaces a field"
_REPR = "a repr, for a prompt or a failing test; no command prints one"
_PICKLE = "pickle support; no command pickles a value"
_FROZEN = "refuses a mutation; no command attempts one"
_RING = ("a ring operation that criterion 11's kernel laws check and the test oracles take; "
         "no command takes it")
# "module.qualname" -> why no command enters it
ALLOWED = {
    "__main__.<module>": "the python -m entry point; the commands here call cli.main in process",
    **dict.fromkeys(("factorials.BasisId.<lambda>", "fubini_bell.PolyFamily.<lambda>",
                     "operators.OperatorSpec.<lambda>", "stirling.StirlingFamily.<lambda>"),
                    _MAKE),
    **dict.fromkeys(("kernel.LambdaPoly.__repr__", "kernel.XPoly.__repr__",
                     "kernel.TruncSeries.__repr__", "operators.Theorem2Blocks.__repr__"), _REPR),
    "render.xpoly_ascii": "renders an x-polynomial for XPoly's repr, which no command prints",
    **dict.fromkeys(("kernel._DensePoly.__reduce__", "kernel.TruncSeries.__reduce__",
                     "kernel._PolyRing.__reduce__", "kernel._RationalRing.__reduce__"), _PICKLE),
    **dict.fromkeys(("kernel._DensePoly.__setattr__", "kernel.TruncSeries.__setattr__"), _FROZEN),
    **dict.fromkeys(("kernel._DensePoly.__hash__", "kernel.TruncSeries.__hash__",
                     "kernel.TruncSeries.__eq__"), "a value's hash or equality; no command "
                    "hashes a polynomial or compares two series"),
    **dict.fromkeys((f"kernel.{name}" for name in (
        "_DensePoly.__pow__", "_DensePoly.__rsub__", "_PolyRing.invert", "_PolyRing.is_zero",
        "_RationalRing.invert", "_RationalRing.is_zero", "TruncSeries._check_compatible",
        "TruncSeries.__add__", "TruncSeries.__add__.<locals>.<genexpr>", "TruncSeries.__sub__",
        "TruncSeries.__sub__.<locals>.<genexpr>", "TruncSeries.__neg__",
        "TruncSeries.__neg__.<locals>.<genexpr>", "TruncSeries.__mul__", "TruncSeries.scale",
        "TruncSeries.scale.<locals>.<genexpr>", "TruncSeries.pow", "TruncSeries.reciprocal",
        "TruncSeries.compose", "TruncSeries.truncate", "TruncSeries.coeff", "TruncSeries.const",
        "TruncSeries.one", "TruncSeries.var", "TruncSeries.zero")), _RING),
    "identities._scale": "names a thm6, cor7 or thm8-term counterexample, and no --fault "
                         "reaches a harmonic value",
    "render.parse_series.<locals>.<listcomp>": "eval of a series over Q[l][x]; no menu command "
                                               "sends one",
}


def code_names(path: Path) -> dict:
    """``(co_qualname, co_firstlineno)`` of each code object compiled from ``path``, nested
    ones included, mapped to its "module.qualname"."""
    module, out = path.stem, {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        out[code.co_qualname, code.co_firstlineno] = f"{module}.{code.co_qualname}"
        stack.extend(c for c in code.co_consts if hasattr(c, "co_qualname"))
    return out


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _commands() -> list:
    """(argv, stdin) of every command the check runs."""
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    same_bytes = _load(ROOT / "tools" / "same_bytes.py")
    verify = ["verify", "--suite", "all"]
    return (workloads.menu("emit") + workloads.menu("cli-mix") + [(verify, None)]
            + [(verify + ["--fault", fault], None) for fault in same_bytes.FAULTS])


def _reached(commands) -> set:
    """(path, co_qualname, co_firstlineno) of each code object entered while ``qlambda`` is
    imported and ``commands`` run."""
    entered = set()

    def trace(frame, event, arg):
        entered.add(frame.f_code)

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace)
    try:
        from qlambda import cli
        from qlambda.tables import Tables, use
        for argv, stdin in commands:
            sys.stdin = io.StringIO(stdin or "")
            with use(Tables()), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(argv)
                except SystemExit:  # argparse's usage errors
                    pass
    finally:
        sys.settrace(None)
        sys.stdin = sys.__stdin__
    return {(code.co_filename, code.co_qualname, code.co_firstlineno) for code in entered}


def main() -> int:
    commands = _commands()
    reached = _reached(commands)
    unreached, excused = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for (qualname, line), name in code_names(path).items():
            if (str(path), qualname, line) in reached:
                continue
            if name in ALLOWED:
                excused.add(name)
            else:
                unreached.setdefault(name, line)
    print(f"{len(commands)} commands run")
    for name in sorted(set(ALLOWED) - excused):
        print(f"note: every code object of allowed {name} was reached")
    for name, line in sorted(unreached.items()):
        print(f"UNREACHED {name} (line {line})")
    print(f"{len(unreached)} unreached code objects outside ALLOWED")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
