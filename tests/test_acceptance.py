"""Acceptance gate: every criterion at its stated bound and time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  All symbolic criteria are exact in Q[l]; the only
tolerance anywhere is the certified 10^-12 tail bound of the numeric
geometric sums, and the wall-clock budgets.
"""

import csv
import io
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from qlambda import stirling as st
from qlambda.fubini_bell import (BELL_DEGENERATE, FUBINI_CLASSICAL, FUBINI_DEGENERATE,
                                 RFUBINI_DEGENERATE, PolyFamily, poly_by_sum,
                                 rfubini_numbers)
from qlambda.gfun import degen_exp, degen_log1p
from qlambda.harmonic import degen_harmonic
from qlambda.identities import run_suite
from qlambda.kernel import QL, QQ, LambdaPoly, TruncSeries, XPoly
from qlambda.render import parse_lambda_poly, parse_series, parse_xpoly

from oracles import (cycle_counts, harmonic_sum, ordered_partition_counts,
                     stirling2_counts)
from routes import row_by_basis, triangle_by_gf

CLI = [sys.executable, "-m", "qlambda"]


@contextmanager
def criterion(num: int, desc: str, budget: float):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if elapsed >= budget:
            raise AssertionError(f"exceeded budget: {elapsed:.2f}s >= {budget}s")
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc} ({elapsed:.2f}s < {budget:g}s)")


def _suite_all_passed(reports):
    assert reports, "no reports produced"
    bad = [r for r in reports if not r.passed]
    assert not bad, f"failing reports: {[r.to_json() for r in bad[:3]]}"


def test_criterion_1_operator_identity():
    with criterion(1, "operator identity, both forms, j<=10 m<=8 r<=min(m,4)", 10):
        reports = run_suite({"thm1"})
        assert len(reports) == 70
        _suite_all_passed(reports)


def test_criterion_2_two_series_identity():
    with criterion(2, "two-series identity, 100 seeded f x 3 g x r<=3, order 16", 30):
        reports = run_suite({"thm2"}, seed=0)
        assert len(reports) == 12
        assert all(dict(r.params)["trials"] == 100 for r in reports)
        _suite_all_passed(reports)


def test_criterion_3_rational_gf_and_numeric_sum():
    with criterion(3, "rational GF to order 20 + numeric sums within 1e-12", 20):
        reports = run_suite({"thm3"})
        symbolic = [r for r in reports if dict(r.params).get("kind") != "numeric"]
        numeric = [r for r in reports if dict(r.params).get("kind") == "numeric"]
        assert len(symbolic) == 9 * 4 and len(numeric) == 2 * 5 * 3
        _suite_all_passed(reports)


def test_criterion_4_differential_recurrence():
    with criterion(4, "differential recurrence for n <= 15", 5):
        reports = run_suite({"thm4"})
        assert len(reports) == 16
        _suite_all_passed(reports)


def test_criterion_5_hyperharmonic_stirling_bridge():
    with criterion(5, "hyperharmonic bridge + column split, n<=12 r<=4", 10):
        reports = run_suite({"thm5"})
        assert len(reports) == 48
        _suite_all_passed(reports)


def test_criterion_6_kth_derivative_closed_form():
    with criterion(6, "k-th derivative closed form, k<=8 order 16", 10):
        reports = run_suite({"thm6"})
        assert len(reports) == 8
        _suite_all_passed(reports)


def test_criterion_7_hyperharmonic_harmonic_relation():
    with criterion(7, "hyperharmonic/harmonic relation, n,k <= 10", 5):
        reports = run_suite({"cor7"})
        assert len(reports) == 100
        _suite_all_passed(reports)


def test_criterion_8_harmonic_weighted_series():
    with criterion(8, "harmonic-weighted series, m<=6 r<=3 order 16", 30):
        reports = run_suite({"thm8"})
        assert len(reports) == 28
        _suite_all_passed(reports)


def _all_families(rmax):
    fams = [st.StirlingFamily(fid) for fid in st.FAMILY_IDS if fid not in st.R_FAMILY_IDS]
    for fid in st.R_FAMILY_IDS:
        fams.extend(st.StirlingFamily(fid, r) for r in range(rmax + 1))
    return fams


def test_criterion_9_three_way_stirling_agreement():
    with criterion(9, "three-way Stirling agreement, all families, n<=12 r<=4", 30):
        nmax = 12
        for fam in _all_families(4):
            by_rows = st.triangle(fam, nmax)
            by_gf = triangle_by_gf(fam, nmax)
            for n in range(nmax + 1):
                by_basis = row_by_basis(fam, n)
                for k in range(n + 1):
                    assert by_basis[k] == by_gf.entry(n, k), (fam, n, k)
                    assert by_basis[k] == by_rows.entry(n, k), (fam, n, k)


def test_criterion_10_classical_limit_oracles():
    with criterion(10, "classical limits vs brute-force enumeration, n<=7", 20):
        f2d = st.triangle(st.StirlingFamily(st.S2_DEGENERATE), 7)
        f1u = st.triangle(st.StirlingFamily(st.S1_UNSIGNED_DEGENERATE), 7)
        for n in range(8):
            parts = stirling2_counts(n)
            ordered = ordered_partition_counts(n)
            cycles = cycle_counts(n)
            bell = poly_by_sum(PolyFamily(BELL_DEGENERATE), n)
            fubini = poly_by_sum(PolyFamily(FUBINI_DEGENERATE), n)
            classical = poly_by_sum(PolyFamily(FUBINI_CLASSICAL), n)
            for k in range(n + 1):
                assert f2d.entry(n, k).subs(0) == parts.get(k, 0)
                assert f1u.entry(n, k).subs(0) == cycles.get(k, 0)
                assert bell.coeff(k).subs(0) == parts.get(k, 0)
                assert fubini.coeff(k).subs(0) == ordered.get(k, 0)
                assert classical.coeff(k) == LambdaPoly.const(ordered.get(k, 0))
            assert degen_harmonic(n).subs(0) == harmonic_sum(n)


def test_criterion_11_kernel_laws():
    with criterion(11, ">=1000 ring/series cases, reciprocal, compositional inverse", 20):
        rng = random.Random(1_2026)
        cases = 0

        def frac():
            return Fraction(rng.randint(-12, 12), rng.randint(1, 10))

        def lpoly():
            return LambdaPoly([frac() for _ in range(rng.randint(0, 4))])

        for _ in range(400):
            a, b, c = frac(), frac(), frac()
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            cases += 1
        for _ in range(350):
            a, b, c = lpoly(), lpoly(), lpoly()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            cases += 1
        for _ in range(200):
            a = XPoly([lpoly() for _ in range(rng.randint(0, 3))])
            b = XPoly([lpoly() for _ in range(rng.randint(0, 3))])
            c = XPoly([lpoly() for _ in range(rng.randint(0, 3))])
            assert (a + b) * c == a * c + b * c
            m = rng.randint(-5, 5)
            assert (a * b).eval_x(m) == a.eval_x(m) * b.eval_x(m)
            cases += 1
        for _ in range(100):
            s = TruncSeries(QQ, [frac() for _ in range(7)])
            t = TruncSeries(QQ, [frac() for _ in range(7)])
            u = TruncSeries(QQ, [frac() for _ in range(7)])
            assert (s + t) * u == s * u + t * u
            cases += 1
        assert cases >= 1000

        for _ in range(60):
            coeffs = [Fraction(rng.randint(1, 9))] + [frac() for _ in range(8)]
            s = TruncSeries(QQ, coeffs)
            assert s * s.reciprocal() == TruncSeries.one(QQ, 8)

        order = 16
        e = degen_exp(order)
        log = degen_log1p(order)
        assert e.compose(log) == TruncSeries.one(QL, order) + TruncSeries.var(QL, order)


def _run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def test_criterion_12_cli_contract():
    with criterion(12, "CLI schemas re-parse; verify all exits 0; fault exits 1", 120):
        proc = _run_cli("table", "stirling2r", "--r", "1", "--nmax", "5")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        tri = st.triangle(st.StirlingFamily(st.S2R_DEGENERATE, 1), 5)
        for n, row in enumerate(payload["rows"]):
            for k, cell in enumerate(row):
                assert parse_lambda_poly(cell) == tri.entry(n, k)

        proc = _run_cli("table", "bell-d", "--nmax", "4")
        payload = json.loads(proc.stdout)
        for n, body in enumerate(payload["polys"]):
            assert parse_xpoly(body) == poly_by_sum(PolyFamily(BELL_DEGENERATE), n)

        proc = _run_cli("series", "degen-log", "--order", "6")
        series = parse_series(json.loads(proc.stdout), QL)
        assert series == degen_log1p(6)

        proc = _run_cli("table", "fubini-d", "--nmax", "3", "--format", "csv")
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert len(rows) == 4 and len(rows[3]) == 4

        proc = _run_cli("verify", "--suite", "all")
        assert proc.returncode == 0, proc.stderr
        reports = json.loads(proc.stdout)
        assert reports and all(r["passed"] for r in reports)
        assert {r["check"] for r in reports} == {"thm1", "thm2", "thm3", "thm4",
                                                 "thm5", "thm6", "cor7", "thm8"}

        proc = _run_cli("verify", "--suite", "all", "--nmax", "5", "--rmax", "2",
                        "--order", "10", "--fault", "stirling2r:0:3:1")
        assert proc.returncode == 1
        reports = json.loads(proc.stdout)
        assert any(not r["passed"] for r in reports)

        assert _run_cli("verify", "--suite", "nosuch").returncode == 2
