"""Command-line interface: tables, series, identity verification, substitution.

Exit codes are a stable contract for CI consumers: 0 success, 1 identity
failure, 2 usage error.  This module parses arguments, picks what to
compute and writes it; ``render`` decides every text form (JSON, CSV
cells, substituted values, parsed input).
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction

from . import stirling
from .fubini_bell import (BELL_DEGENERATE, FUBINI_CLASSICAL, FUBINI_DEGENERATE,
                          RBELL_DEGENERATE, RFUBINI_DEGENERATE, PolyFamily,
                          family_series, poly_by_sum)
from .gfun import degen_exp, degen_log1p
from .harmonic import harmonic_gf, harmonic_row, hyperharmonic_row
from .identities import CHECK_IDS, SuiteBounds, run_suite, suite_json
from .kernel import LambdaPoly, TruncSeries, XPoly
from .render import parse_rational, parse_value, to_cells, to_json
from .tables import Tables

DEFAULT_CAP = 64
MAX_CAP = 512

_STIRLING_FAMILIES = {
    "stirling1c": stirling.S1_CLASSICAL,
    "stirling2c": stirling.S2_CLASSICAL,
    "stirling1d": stirling.S1_DEGENERATE,
    "stirling2d": stirling.S2_DEGENERATE,
    "stirling1du": stirling.S1_UNSIGNED_DEGENERATE,
    "stirling1r": stirling.S1R_DEGENERATE,
    "stirling2r": stirling.S2R_DEGENERATE,
    "stirling1ru": stirling.S1R_UNSIGNED_DEGENERATE,
}
_POLY_FAMILIES = {
    "bell-d": BELL_DEGENERATE,
    "rbell-d": RBELL_DEGENERATE,
    "fubini-c": FUBINI_CLASSICAL,
    "fubini-d": FUBINI_DEGENERATE,
    "rfubini-d": RFUBINI_DEGENERATE,
}
_SERIES_NAMES = ("degen-exp", "degen-log", "harmonic-gf", "hyperharmonic-gf",
                 "fubini-gf", "rfubini-gf")
_R_SERIES = ("hyperharmonic-gf", "rfubini-gf")


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlambda",
        description="Exact tables, series and identity checks over Q[l].")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a triangle/sequence table")
    table.add_argument("family", help="family short name (see README)")
    table.add_argument("--nmax", type=int, default=8)
    table.add_argument("--r", type=int, default=None, help="shift parameter for r-families")
    table.add_argument("--lambda", dest="lam", default=None, metavar="P/Q",
                       help="substitute a rational for the degeneracy parameter")
    table.add_argument("--format", choices=("json", "csv"), default="json")
    table.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help=f"hard size cap (default {DEFAULT_CAP}, max {MAX_CAP})")

    series = sub.add_parser("series", help="emit a named generating series")
    series.add_argument("name", help="series name (see README)")
    series.add_argument("--order", type=int, default=8)
    series.add_argument("--r", type=int, default=None)
    series.add_argument("--lambda", dest="lam", default=None, metavar="P/Q")
    series.add_argument("--format", choices=("json", "csv"), default="json")
    series.add_argument("--cap", type=int, default=DEFAULT_CAP)

    verify = sub.add_parser("verify", help="run identity checks, emit JSON reports")
    verify.add_argument("--suite", default="all",
                        help="'all' or comma-separated check ids "
                             f"({', '.join(CHECK_IDS)})")
    verify.add_argument("--nmax", type=int, default=None)
    verify.add_argument("--rmax", type=int, default=None)
    verify.add_argument("--order", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--fault", default=None, metavar="FAMILY:R:N:K[:DELTA]",
                        help="testing hook: corrupt one triangle entry before running")

    evalp = sub.add_parser("eval", help="substitute into a kernel-rendered JSON value from stdin")
    evalp.add_argument("--lambda", dest="lam", default=None, metavar="P/Q")
    evalp.add_argument("--x", dest="x", default=None, metavar="P/Q",
                       help="evaluate an x-polynomial at a rational x first")
    return parser


def _check_sizes(args) -> None:
    """Every size argument lies in 0..cap: --cap where the command has it, else the default."""
    cap = getattr(args, "cap", DEFAULT_CAP)
    if cap < 0 or cap > MAX_CAP:
        raise UsageError(f"--cap must be between 0 and {MAX_CAP}")
    hint = f" (raise with --cap, max {MAX_CAP})" if hasattr(args, "cap") else ""
    for flag in ("nmax", "order", "rmax", "r"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise UsageError(f"--{flag} must be >= 0")
        if value is not None and value > cap:
            raise UsageError(f"--{flag} {value} exceeds the cap {cap}{hint}")


def _parse_lambda(text):
    if text is None:
        return None
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _family(cls, fid: str, short: str, r: int):
    try:
        return cls(fid, r)
    except ValueError:  # r < 0 is caught earlier: the family takes no r
        raise UsageError(f"family {short} does not take --r") from None


def _write(fmt: str, lam, header: dict, key: str, body, widen: bool = False) -> None:
    """``header`` plus ``key: body`` as indented JSON, or one CSV row per body item;
    ``widen`` pads item n to n + 1 cells."""
    out = sys.stdout
    if fmt == "json":
        json.dump({**header, key: to_json(body, lam)}, out, indent=2)
        out.write("\n")
        return
    writer = csv.writer(out)
    for n, item in enumerate(body):
        writer.writerow(to_cells(item, lam, n + 1 if widen else 1))


def cmd_table(args) -> int:
    lam = _parse_lambda(args.lam)
    short, nmax, r = args.family, args.nmax, args.r or 0
    if short in _STIRLING_FAMILIES:
        family = _family(stirling.StirlingFamily, _STIRLING_FAMILIES[short], short, r)
        key, body = "rows", stirling.triangle(family, nmax).rows
    elif short in _POLY_FAMILIES:
        family = _family(PolyFamily, _POLY_FAMILIES[short], short, r)
        key, body = "polys", [poly_by_sum(family, n) for n in range(nmax + 1)]
    elif short == "harmonic":
        if r:
            raise UsageError("family harmonic does not take --r")
        key, r, body = "values", 1, harmonic_row(nmax)
    elif short == "hyperharmonic":
        if r < 1:
            raise UsageError("hyperharmonic requires --r >= 1")
        key, body = "values", hyperharmonic_row(nmax, r)
    else:
        raise UsageError(f"unknown family {short!r}; known: "
                         + ", ".join(sorted({**_STIRLING_FAMILIES, **_POLY_FAMILIES}))
                         + ", harmonic, hyperharmonic")
    _write(args.format, lam, {"family": short, "r": r, "nmax": nmax}, key, body,
           widen=short in _POLY_FAMILIES)
    return 0


def _named_series(name: str, order: int, r) -> TruncSeries:
    if name == "degen-exp":
        return degen_exp(order)
    if name == "degen-log":
        return degen_log1p(order)
    if name == "harmonic-gf":
        return harmonic_gf(1, order)
    if name == "hyperharmonic-gf":
        if r is None or r < 1:
            raise UsageError("hyperharmonic-gf requires --r >= 1")
        return harmonic_gf(r, order)
    if name == "fubini-gf":
        return family_series(PolyFamily(FUBINI_DEGENERATE), order)
    if name == "rfubini-gf":
        return family_series(PolyFamily(RFUBINI_DEGENERATE, r if r else 0), order)
    raise UsageError(f"unknown series {name!r}; known: " + ", ".join(_SERIES_NAMES))


def cmd_series(args) -> int:
    lam = _parse_lambda(args.lam)
    if args.r and args.name in _SERIES_NAMES and args.name not in _R_SERIES:
        raise UsageError(f"series {args.name} does not take --r")
    s = _named_series(args.name, args.order, args.r)
    _write(args.format, lam, {"order": s.order}, "coeffs", s.coeffs)
    return 0


def _fault_tables(spec: str) -> Tables:
    parts = spec.split(":")
    if len(parts) not in (4, 5):
        raise UsageError("--fault expects FAMILY:R:N:K[:DELTA]")
    short, r_s, n_s, k_s = parts[:4]
    if short not in _STIRLING_FAMILIES:
        raise UsageError(f"unknown triangle family {short!r} in --fault")
    try:
        r, n, k = int(r_s), int(n_s), int(k_s)
        if not 0 <= k <= n:
            raise ValueError(f"entry ({n}, {k}) is outside every triangle")
        if max(r, n) > DEFAULT_CAP:
            raise ValueError(f"R and N must be at most the cap {DEFAULT_CAP}")
        delta = parse_rational(parts[4]) if len(parts) == 5 else Fraction(1)
        family = stirling.StirlingFamily(_STIRLING_FAMILIES[short], r)
    except ValueError as exc:
        raise UsageError(f"bad --fault value: {exc}") from None
    return Tables({(family.id, family.r, n, k): LambdaPoly.const(delta)})


def cmd_verify(args) -> int:
    tables = _fault_tables(args.fault) if args.fault else None
    selection = set(CHECK_IDS) if args.suite == "all" else {
        piece.strip() for piece in args.suite.split(",") if piece.strip()}
    bounds = SuiteBounds().with_cli_overrides(args.nmax, args.rmax, args.order)
    try:
        reports = run_suite(selection, bounds, args.seed, tables)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not reports:
        raise UsageError("the selected checks and bounds yield no checks")
    sys.stdout.write(suite_json(reports) + "\n")
    failed = sum(1 for rep in reports if not rep.passed)
    print(f"checks: {len(reports)} passed: {len(reports) - failed} failed: {failed}",
          file=sys.stderr)
    return 1 if failed else 0


def cmd_eval(args) -> int:
    lam = _parse_lambda(args.lam)
    x = _parse_lambda(args.x)
    try:
        value = json.load(sys.stdin)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
        raise UsageError(f"stdin is not valid JSON: {exc}") from None
    try:
        value = parse_value(value)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if x is not None:
        if not isinstance(value, XPoly):
            raise UsageError("--x needs an x-polynomial on stdin")
        value = value.eval_x(x)
    json.dump(to_json(value, lam), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


_COMMANDS = {"table": cmd_table, "series": cmd_series, "verify": cmd_verify, "eval": cmd_eval}


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes "-1/3" for an option, "=-1/3" not
        if argv[i - 1] in ("--lambda", "--x") and re.match(r"-\d", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    try:
        _check_sizes(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
