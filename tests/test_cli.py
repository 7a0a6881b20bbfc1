"""CLI contract: schemas round-trip, substitution commutes, exit codes hold."""

import csv
import hashlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as hst

from qlambda import cli
from qlambda import stirling as st
from qlambda.cli import main
from qlambda.fubini_bell import FUBINI_DEGENERATE, PolyFamily, poly_by_sum
from qlambda.harmonic import degen_harmonic
from qlambda.kernel import QL, LambdaPoly, TruncSeries
from qlambda.render import (lambda_poly_json, parse_lambda_poly, parse_rational,
                            parse_series, parse_xpoly, rational_str)
from qlambda.tables import Tables, use

CLI = [sys.executable, "-m", "qlambda"]


def run_cli(*args, stdin=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, input=stdin)


def run_in_process(argv, stdin=""):
    """(exit code, stdout, stderr) of ``main(argv)``; argparse's exit counts as its code."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_table_triangle_json_round_trip():
    proc = run_cli("table", "stirling2d", "--nmax", "4")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["family"] == "stirling2d" and payload["nmax"] == 4
    tri = st.triangle(st.StirlingFamily(st.S2_DEGENERATE), 4)
    for n, row in enumerate(payload["rows"]):
        assert len(row) == n + 1
        for k, cell in enumerate(row):
            assert parse_lambda_poly(cell) == tri.entry(n, k)


def test_table_polys_json_round_trip():
    proc = run_cli("table", "fubini-d", "--nmax", "3")
    payload = json.loads(proc.stdout)
    fam = PolyFamily(FUBINI_DEGENERATE)
    for n, body in enumerate(payload["polys"]):
        assert parse_xpoly(body) == poly_by_sum(fam, n)


def test_table_csv_examples():
    proc = run_cli("table", "stirling2d", "--nmax", "2", "--format", "csv")
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows == [["1"], ["0", "1"], ["0", "1 - l", "1"]]
    proc = run_cli("table", "harmonic", "--nmax", "3", "--lambda", "0", "--format", "csv")
    rows = [cell for row in csv.reader(io.StringIO(proc.stdout)) for cell in row]
    assert rows == ["0", "1", "3/2", "11/6"]
    proc = run_cli("table", "fubini-d", "--nmax", "0", "--format", "csv")
    assert proc.stdout.strip() == "1"


def test_lambda_substitution_commutes_with_rendering():
    lam = Fraction(2, 5)
    sym = json.loads(run_cli("table", "stirling2r", "--r", "2", "--nmax", "4").stdout)
    sub = json.loads(run_cli("table", "stirling2r", "--r", "2", "--nmax", "4",
                             "--lambda", "2/5").stdout)
    for row_s, row_v in zip(sym["rows"], sub["rows"]):
        for cell_s, cell_v in zip(row_s, row_v):
            assert parse_lambda_poly(cell_s).subs(lam) == parse_rational(cell_v)


def test_series_json_and_examples():
    proc = run_cli("series", "degen-log", "--order", "2")
    payload = json.loads(proc.stdout)
    assert payload == {"order": 2, "coeffs": [[], ["1"], ["-1/2", "1/2"]]}
    s = parse_series(payload, QL)
    assert s.coeff(1) == LambdaPoly.one()

    proc = run_cli("series", "degen-exp", "--order", "2", "--lambda", "0")
    assert json.loads(proc.stdout) == {"order": 2, "coeffs": ["1", "1", "1/2"]}

    proc = run_cli("series", "hyperharmonic-gf", "--r", "2", "--order", "2")
    payload = json.loads(proc.stdout)
    assert parse_series(payload, QL).coeff(2) == LambdaPoly([Fraction(5, 2), Fraction(-1, 2)])


def test_series_harmonic_matches_library():
    payload = json.loads(run_cli("series", "harmonic-gf", "--order", "6").stdout)
    s = parse_series(payload, QL)
    for n in range(7):
        assert s.coeff(n) == degen_harmonic(n)


def test_series_xpoly_coefficients():
    payload = json.loads(run_cli("series", "rfubini-gf", "--r", "1", "--order", "3").stdout)
    # coefficient of t^1 is (1+x) + r-part; just confirm it re-parses as XPoly rows
    from qlambda.kernel import QLX

    s = parse_series(payload, QLX)
    assert s.order == 3


def test_verify_exit_codes_and_schema():
    proc = run_cli("verify", "--suite", "thm5", "--nmax", "12", "--rmax", "4")
    assert proc.returncode == 0
    reports = json.loads(proc.stdout)
    assert len(reports) == 48 and all(r["passed"] for r in reports)
    assert "checks: 48 passed: 48 failed: 0" in proc.stderr

    proc = run_cli("verify", "--suite", "nosuch")
    assert proc.returncode == 2

    proc = run_cli("verify", "--suite", "thm4", "--nmax", "3")
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)) == 4


def test_verify_rmax_bounds_every_check():
    # thm5 starts at r = 1, so --rmax 0 leaves it no instance
    code, out, err = run_in_process(["verify", "--suite", "all", "--nmax", "3", "--rmax", "0",
                                     "--order", "6"])
    assert code == 0, err
    reports = json.loads(out)
    assert {r["check"] for r in reports} == {"thm1", "thm2", "thm3", "thm4", "thm6", "cor7",
                                             "thm8"}
    assert all(r["params"].get("r", 0) == 0 for r in reports)
    assert all(r["params"]["m"] <= 3 for r in reports if r["params"].get("kind") == "numeric")


def test_verify_fault_injection_exits_one():
    proc = run_cli("verify", "--suite", "thm5", "--nmax", "4", "--rmax", "2",
                   "--fault", "stirling1ru:1:2:1")
    assert proc.returncode == 1
    reports = json.loads(proc.stdout)
    bad = [r for r in reports if not r["passed"]]
    assert bad and all(r["counterexample"] for r in bad)
    for fault in ("stirling1ru:1:-2:1", "stirling1ru:1:2:3"):  # no such entry
        proc = run_cli("verify", "--suite", "thm5", "--nmax", "4", "--fault", fault)
        assert proc.returncode == 2 and "outside every triangle" in proc.stderr


def test_verify_rejects_a_fault_no_selected_check_reads():
    # a fault in a family no selected check reads, or in a row above every row it reads
    for suite, fault, where in (
            ("all", "stirling1c:0:3:1", "row 3 of S1-classical at r = 0"),
            ("all", "stirling1d:0:4:2", "row 4 of S1-degenerate at r = 0"),
            ("all", "stirling2c:0:5:2", "row 5 of S2-classical at r = 0"),
            ("all", "stirling1r:2:5:1", "row 5 of S1r-degenerate at r = 2"),
            ("all", "stirling2d:0:20:3", "row 20 of S2-degenerate at r = 0"),
            ("all", "stirling2r:1:12:2", "row 12 of S2r-degenerate at r = 1"),
            ("all", "stirling2r:5:3:2", "row 3 of S2r-degenerate at r = 5"),
            ("thm4", "stirling2r:1:3:2", "row 3 of S2r-degenerate at r = 1"),
            ("thm5", "stirling1du:0:14:2", "row 14 of S1-unsigned-degenerate at r = 0")):
        code, out, err = run_in_process(["verify", "--suite", suite, "--fault", fault])
        assert (code, out) == (2, ""), fault
        assert err == f"error: no selected check reads {where}, where the fault is\n", fault
    # the deepest rows each suite reads: thm4 rows n + 1 <= 16, thm5 rows n + 1 <= 13
    for suite, fault in (("thm4", "stirling2d:0:16:3"), ("thm5", "stirling1du:0:13:2"),
                         ("all", "stirling2r:4:8:8"), ("all", "stirling1ru:4:12:1")):
        code, out, _ = run_in_process(["verify", "--suite", suite, "--fault", fault])
        assert code == 1 and out, fault


def test_verify_rejects_bounds_before_any_check_runs():
    # the runners go in id order: cor7, thm1 and thm2 used to run in full before thm3 raised
    for args in (["verify", "--nmax", "64"], ["verify", "--suite", "all", "--nmax", "64",
                                              "--order", "6"]):
        start = time.monotonic()
        proc = subprocess.run(CLI + args, capture_output=True, text=True, timeout=30)
        elapsed = time.monotonic() - start
        assert proc.returncode == 2 and proc.stdout == "", args
        assert proc.stderr == "error: order must cover m (and be >= 1)\n", args
        assert elapsed < 2, (args, elapsed)


def test_fubini_series_take_no_reciprocal_or_compose(monkeypatch):
    calls = []
    for name in ("reciprocal", "compose"):
        def counting(self, *args, _name=name, _original=getattr(TruncSeries, name)):
            calls.append(_name)
            return _original(self, *args)
        monkeypatch.setattr(TruncSeries, name, counting)
    with use(Tables()):  # nothing memoized from an earlier test
        for argv in (["series", "rfubini-gf", "--order", "12", "--r", "2"],
                     ["series", "fubini-gf", "--order", "12"]):
            code, out, err = run_in_process(argv)
            assert code == 0 and err == "", argv
            assert len(json.loads(out)["coeffs"]) == 13, argv
    assert calls == []


def test_verify_determinism_bytes():
    args = ("verify", "--suite", "thm4,thm6", "--nmax", "4", "--order", "10", "--seed", "5")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout


def test_cli_import_loads_no_introspection_modules():
    # every command imports the package afresh; ``dataclasses`` alone pulls these in (~10 ms)
    code = ("import sys; before = set(sys.modules); from qlambda import cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "qlambda.identities" in loaded
    assert sorted(loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}) == []


def test_usage_errors_exit_two():
    assert run_cli("table", "nosuch").returncode == 2
    assert run_cli("table", "stirling2d", "--nmax", "100").returncode == 2
    assert run_cli("table", "hyperharmonic", "--nmax", "3").returncode == 2  # missing --r
    assert run_cli("series", "nosuch").returncode == 2
    assert run_cli("badcommand").returncode == 2
    assert run_cli("table", "stirling2d", "--lambda", "0.5").returncode == 2
    proc = run_cli("table", "bell-d", "--r", "2")  # used to raise a traceback
    assert proc.returncode == 2 and proc.stderr == "error: family bell-d does not take --r\n"
    for kind, name in (("series", "degen-exp"), ("series", "degen-log"),
                       ("series", "harmonic-gf"), ("series", "fubini-gf"),
                       ("table", "harmonic")):
        proc = run_cli(kind, name, "--r", "2")
        assert proc.returncode == 2 and proc.stdout == ""
        what = "family" if kind == "table" else "series"
        assert proc.stderr == f"error: {what} {name} does not take --r\n"
    assert run_cli("table", "harmonic", "--r", "0").stdout == run_cli("table", "harmonic").stdout
    # --x reads an x-polynomial only; anything else used to be echoed with exit 0
    series = [run_cli("series", "degen-log", "--order", "3").stdout,
              run_cli("series", "degen-exp", "--order", "3", "--lambda", "1/2").stdout,
              run_cli("series", "fubini-gf", "--order", "3").stdout]
    for body in ['"6/8"', '["1", "-1/2"]'] + series:
        proc = run_cli("eval", "--x", "2", stdin=body)
        assert proc.returncode == 2 and proc.stdout == "", body
        assert proc.stderr == "error: --x needs an x-polynomial on stdin\n"
    assert run_cli("eval", "--x", "2", stdin="[]").returncode == 0
    for fault in ("stirling2r:0:99999999999:0", "stirling2r:600:1:0"):  # no check reads them
        proc = run_cli("verify", "--fault", fault)
        assert proc.returncode == 2 and proc.stdout == "", fault
        assert proc.stderr == "error: bad --fault value: R and N must be at most the cap 64\n"


def test_cap_override_is_bounded():
    assert run_cli("table", "stirling2d", "--nmax", "70", "--cap", "80").returncode == 0
    assert run_cli("table", "stirling2d", "--nmax", "600", "--cap", "600").returncode == 2


def test_eval_round_trip():
    poly = LambdaPoly([Fraction(1, 2), Fraction(-2, 3)])
    body = json.dumps(lambda_poly_json(poly))
    proc = run_cli("eval", "--lambda", "3/4", stdin=body)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == rational_str(poly.subs(Fraction(3, 4)))

    # echo without substitution re-renders canonically
    proc = run_cli("eval", stdin=body)
    assert json.loads(proc.stdout) == lambda_poly_json(poly)

    # x-polynomial: evaluate at x then substitute
    xbody = json.dumps([["0"], ["1", "-1"]])  # (1-l) x
    proc = run_cli("eval", "--x", "2", "--lambda", "1/2", stdin=xbody)
    assert json.loads(proc.stdout) == "1"

    proc = run_cli("eval", "--lambda", "1/2", stdin="not json")
    assert proc.returncode == 2


def test_eval_series_payload():
    payload = json.loads(run_cli("series", "degen-log", "--order", "3").stdout)
    proc = run_cli("eval", "--lambda", "0", stdin=json.dumps(payload))
    got = json.loads(proc.stdout)
    assert got["coeffs"] == ["0", "1", "-1/2", "1/3"]


def test_eval_xpoly_series_payload():
    body = run_cli("series", "fubini-gf", "--order", "3").stdout
    proc = run_cli("eval", stdin=body)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == json.loads(body)

    proc = run_cli("eval", "--lambda", "1/2", stdin=body)
    assert proc.returncode == 0, proc.stderr
    expect = run_cli("series", "fubini-gf", "--order", "3", "--lambda", "1/2").stdout
    assert json.loads(proc.stdout) == json.loads(expect)


def test_hyperharmonic_large_r():
    proc = run_cli("table", "hyperharmonic", "--r", "5000", "--nmax", "2")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--r 5000 exceeds the cap 64" in proc.stderr
    proc = run_cli("table", "hyperharmonic", "--r", "512", "--nmax", "2", "--cap", "512")
    assert proc.returncode == 0, proc.stderr
    values = json.loads(proc.stdout)["values"]
    assert len(values) == 3
    assert values[2] == ["1025/2", "-1/2"]  # r + 1/2 - l/2


def test_negative_lambda_equals_form():
    proc = run_cli("table", "stirling2d", "--nmax", "2", "--lambda=-2/7", "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[2] == ["0", "9/7", "1"]  # 1 - l at l = -2/7


def test_a_negative_rational_after_its_flag_equals_the_equals_form():
    xpoly = '[["1", "2"], ["0", "1/2"], ["-1/3"]]'
    for argv, stdin in ((["table", "stirling2d", "--nmax", "3"], ""),
                        (["table", "fubini-d", "--nmax", "3", "--format", "csv"], ""),
                        (["series", "harmonic-gf", "--order", "4"], ""),
                        (["eval"], '["1", "-1/2", "1/3"]'), (["eval", "--x", "-1/2"], xpoly)):
        spaced = run_in_process(argv + ["--lambda", "-1/3"], stdin)
        joined = run_in_process(argv + ["--lambda=-1/3"], stdin)
        assert spaced == joined and spaced[0] == 0 and spaced[1], argv
    spaced = run_in_process(["eval", "--x", "-1/2", "--lambda", "-5"], xpoly)
    assert spaced == run_in_process(["eval", "--x=-1/2", "--lambda=-5"], xpoly)
    # (1 + 2l) + (l/2) x - x^2/3 at x = -1/2, l = -5: -9 + 5/4 - 1/12
    assert spaced[0] == 0 and json.loads(spaced[1]) == "-47/6"
    for argv in (["table", "stirling2d", "--lambda", "abc"], ["table", "harmonic", "--lambda"],
                 ["eval", "--lambda", "--x", "-1/2"], ["table", "stirling2d", "--lambda", "-x"]):
        code, out, _ = run_in_process(argv, xpoly)
        assert code == 2 and out == "", argv


def test_every_size_argument_is_capped():
    for args in (("verify", "--suite", "thm4", "--nmax", "65"),
                 ("verify", "--suite", "thm2", "--order", "65"),
                 ("verify", "--suite", "thm5", "--rmax", "65"),
                 ("verify", "--suite", "thm4", "--nmax", "-1"),
                 ("series", "rfubini-gf", "--r", "65"),
                 ("series", "degen-exp", "--order", "9", "--cap", "8"),
                 ("table", "stirling2r", "--r", "-1"),
                 ("table", "rbell-d", "--r", "9", "--cap", "8")):
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert proc.stdout == "" and proc.stderr.startswith("error: "), args
    assert run_cli("series", "rfubini-gf", "--r", "9", "--order", "2",
                   "--cap", "9").returncode == 0


def test_empty_check_grid_is_a_usage_error():
    for args in (("verify", "--suite", ""), ("verify", "--suite", "thm5", "--nmax", "0"),
                 ("verify", "--suite", "thm5", "--nmax", "1", "--rmax", "0")):
        proc = run_cli(*args)
        assert proc.returncode == 2, args
        assert proc.stdout == "" and "no checks" in proc.stderr, args


def test_eval_bad_payloads_exit_two_without_traceback():
    for body in ('{"order": "x", "coeffs": []}', "[1, 2]",
                 '{"order": 1, "coeffs": [["1"], [["2"]]]}', '{"order": 1}',
                 '{"order": 0, "coeffs": 5}', '"1/0"', "[" * 100000):
        proc = run_cli("eval", stdin=body)
        assert proc.returncode == 2, body[:50]
        assert proc.stdout == "" and proc.stderr.startswith("error: "), body[:50]
        assert "Traceback" not in proc.stderr, body[:50]


_JSON_LEAVES = hst.one_of(hst.none(), hst.booleans(), hst.integers(-3, 3),
                          hst.sampled_from(["0", "1", "-1/2", "3/4", "1/0", "x", ""]))
_JSON_VALUES = hst.recursive(
    _JSON_LEAVES,
    lambda inner: hst.one_of(
        hst.lists(inner, max_size=4),
        hst.fixed_dictionaries({"order": inner}, optional={"coeffs": inner})),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES, lam=hst.sampled_from([None, "1/2"]),
       x=hst.sampled_from([None, "2"]))
def test_eval_fuzz_exits_zero_or_two(value, lam, x):
    # in process: any exception other than a usage error fails the test
    argv = ["eval"] + (["--lambda", lam] if lam else []) + (["--x", x] if x else [])
    code, _, err = run_in_process(argv, json.dumps(value))
    assert code in (0, 2)
    assert (code == 2) == err.startswith("error: ")


def _flag(name, values):
    """Either no flag, or ``name`` with one of ``values`` (a value of None: the bare token)."""
    return hst.one_of(hst.just([]), hst.sampled_from(values).map(
        lambda v: [name] if v is None else [name, v]))


# Sizes stay at or below 6 and --nmax for verify at or below 4, so no example
# starts a long symbolic run; -2 and -1 exercise the usage errors.
_SIZES = [str(v) for v in range(-2, 7)]
_LAMBDA = _flag("--lambda", ["0", "1/2", "3", "abc", "1/0", "-1/3"])
_FORMAT = _flag("--format", ["json", "csv", "xml"])
_COMMON = {"--nmax": _SIZES, "--r": _SIZES, "--cap": [str(v) for v in range(-1, 9)]}
_TABLE_NAMES = sorted(cli._STIRLING_FAMILIES) + sorted(cli._POLY_FAMILIES) + [
    "harmonic", "hyperharmonic", "nosuch", ""]
_SERIES = list(cli._SERIES_NAMES) + ["nosuch"]
_FAULTS = ["stirling2r:1:3:2", "stirling1du:0:4:2", "stirling2d:0:2:1:1/3", "nosuch:0:1:1",
           "stirling2r:1:3", "stirling2r:x:3:2", "stirling2r:1:2:5", "stirling2d:0:2:1:1/0"]
_STDIN = ['"1/2"', '["1", "-1"]', '[["1"], ["0", "1"]]', "[]", "not json",
          '{"order": 1, "coeffs": ["1", "2"]}', '{"order": 1, "coeffs": [[], [["1"]]]}']


@hst.composite
def _argv(draw):
    command = draw(hst.sampled_from(["table", "series", "verify", "eval", "frobnicate"]))
    argv = [command]
    if command == "table":
        argv.append(draw(hst.sampled_from(_TABLE_NAMES)))
        flags = [_flag(f, v) for f, v in _COMMON.items()] + [_LAMBDA, _FORMAT]
    elif command == "series":
        argv.append(draw(hst.sampled_from(_SERIES)))
        flags = [_flag("--order", _SIZES), _flag("--r", _SIZES),
                 _flag("--cap", _COMMON["--cap"]), _LAMBDA, _FORMAT]
    elif command == "verify":
        argv += ["--suite", draw(hst.sampled_from(["thm4", "thm5", "cor7", "", "nosuch"])),
                 "--nmax", draw(hst.sampled_from([v for v in _SIZES if int(v) <= 4]))]
        flags = [_flag("--rmax", _SIZES), _flag("--order", _SIZES), _flag("--fault", _FAULTS),
                 _flag("--seed", ["0", "7"])]
    else:
        flags = [_LAMBDA, _flag("--x", ["2", "q"])]
    for group in flags:
        argv += draw(group)
    if draw(hst.booleans()) and command != "frobnicate":  # sometimes a stray or bare flag
        argv += draw(hst.sampled_from([["--lambda"], ["--bogus", "1"], ["extra"], ["--nmax"]]))
    return argv


@settings(max_examples=250, deadline=None)
@given(argv=_argv(), stdin=hst.sampled_from(_STDIN))
def test_argv_fuzz_keeps_the_exit_code_contract(argv, stdin):
    code, out, err = run_in_process(argv, stdin)
    assert "Traceback" not in out + err
    if code == 1:  # only a failing identity check
        assert argv[0] == "verify" and not all(rep["passed"] for rep in json.loads(out))
    else:
        assert code in (0, 2)
    if code == 2:
        assert out == ""


REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"


def test_cli_mix_menu_matches_the_benchmark_references():
    # every cli-mix command, in process: exit code and stdout sha256 as recorded
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))["cli-mix"]
    assert len(refs) == 59
    mismatches = []
    for key, ref in refs.items():
        command, _, stdin = key.partition(" <<< ")
        code, out, _ = run_in_process(command.split(" "), stdin)
        if (code, hashlib.sha256(out.encode()).hexdigest()) != (ref["exit"], ref["sha256"]):
            mismatches.append(key)
    assert mismatches == []


def test_recurrence_tables_match_the_emit_references():
    # the emit commands whose triangles the row recurrence builds, in process on fresh tables
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))["emit"]
    commands = ["table stirling1du --nmax 32", "table stirling2d --nmax 32"]
    commands += [f"table stirling1ru --nmax 32 --r {r}" for r in (1, 2, 3)]
    for command in commands:
        with use(Tables()):
            code, out, _ = run_in_process(command.split(" "))
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == (refs[command]["exit"], refs[command]["sha256"]), command
