"""Bell/Fubini polynomial families: the sums, their series, the GF oracle, limits, numeric sums."""

import math
from fractions import Fraction

import pytest

from qlambda import fubini_bell, stirling
from qlambda.fubini_bell import (BELL_DEGENERATE, FUBINI_CLASSICAL, FUBINI_DEGENERATE,
                                 POLY_FAMILY_IDS, RBELL_DEGENERATE, RFUBINI_DEGENERATE,
                                 PolyFamily, family_series, poly_by_sum, rfubini_numbers)
from qlambda.factorials import degen_falling
from qlambda.gfun import classical_exp
from qlambda.kernel import QL, LambdaPoly, TruncSeries, XPoly
from qlambda.tables import run

from oracles import ordered_partition_counts, stirling2_counts
from routes import poly_by_gf, series_by_gf

FD = PolyFamily(FUBINI_DEGENERATE)
BD = PolyFamily(BELL_DEGENERATE)
FC = PolyFamily(FUBINI_CLASSICAL)


def test_sum_examples():
    assert poly_by_sum(FD, 2) == XPoly([0, LambdaPoly([1, -1]), LambdaPoly.const(2)])
    assert poly_by_sum(PolyFamily(RFUBINI_DEGENERATE, 1), 1) == XPoly([1, 1])
    assert poly_by_sum(BD, 0) == XPoly.one()


def test_gf_examples():
    assert poly_by_gf(FD, 2, 4) == poly_by_sum(FD, 2)
    f3 = poly_by_gf(FC, 3, 5)
    assert f3.eval_x(1) == LambdaPoly.const(13)
    with pytest.raises(ValueError):
        poly_by_gf(FD, 5, 4)


def test_sum_gf_agreement_all_families():
    # the package's series (from the triangle) against the composition/reciprocal route; the
    # polynomials read rows of one triangle, the run's
    order = 12
    for fid in POLY_FAMILY_IDS:
        for r in range(4) if fid in (RBELL_DEGENERATE, RFUBINI_DEGENERATE) else (0,):
            fam = PolyFamily(fid, r)
            by_gf = series_by_gf(fam, order)
            assert family_series(fam, order) == by_gf, (fid, r)
            tri = fubini_bell._triangle_family(fam)
            with run([(("triangle", *tri), stirling.triangle, tri, order)]):
                polys = [poly_by_sum(fam, n) for n in range(order + 1)]
            for n in range(order + 1):
                assert polys[n] == by_gf.coeff(n) * math.factorial(n), (fid, r, n)


def test_r_zero_reduction():
    for n in range(9):
        assert poly_by_sum(PolyFamily(RFUBINI_DEGENERATE, 0), n) == poly_by_sum(FD, n)
    assert series_by_gf(PolyFamily(RFUBINI_DEGENERATE, 0), 9) == series_by_gf(FD, 9)


def test_classical_limits_against_enumeration():
    for n in range(8):
        ordered = ordered_partition_counts(n)
        blocks = stirling2_counts(n)
        fub = poly_by_sum(FD, n)
        bell = poly_by_sum(BD, n)
        for k in range(n + 1):
            assert fub.coeff(k).subs(0) == ordered.get(k, 0), (n, k)
            assert bell.coeff(k).subs(0) == blocks.get(k, 0), (n, k)
        classical = poly_by_sum(FC, n)
        for k in range(n + 1):
            assert classical.coeff(k) == LambdaPoly.const(ordered.get(k, 0))


def test_rbell_exponential_identity_order_16():
    # sum_n (n+r)_{m,l} x^n / n! equals the degree-m polynomial times e^x
    order = 16
    exp_series = classical_exp(order, QL)
    for r in range(4):
        for m in range(9):
            poly = poly_by_sum(PolyFamily(RBELL_DEGENERATE, r), m)
            lifted = TruncSeries(QL, [poly.coeff(n) for n in range(order + 1)])
            lhs = lifted * exp_series
            rhs = TruncSeries(QL, [degen_falling(n + r, m) / math.factorial(n)
                                   for n in range(order + 1)])
            assert lhs == rhs, (r, m)


def test_degrees_and_leading_coefficients():
    for n in range(13):
        fub = poly_by_sum(FD, n)
        bell = poly_by_sum(BD, n)
        assert fub.degree == n and fub.coeff(n) == LambdaPoly.const(math.factorial(n))
        assert bell.degree == n and bell.coeff(n) == LambdaPoly.one()


def test_rfubini_numeric_examples():
    tol = Fraction(1, 10 ** 12)
    for r in range(3):
        assert abs(rfubini_numbers(0, r, Fraction(1, 3), 12) - 1) <= tol
    # the probe that pins the summation constant: value 1 = F_1(1), not 2
    assert abs(rfubini_numbers(1, 0, Fraction(0), 12) - 1) <= tol
    assert abs(rfubini_numbers(2, 0, Fraction(0), 12) - 3) <= tol


def test_rfubini_numeric_matches_polynomial_at_one():
    tol = Fraction(1, 10 ** 12)
    for lam in (Fraction(1, 3), Fraction(1, 2)):
        for m in range(5):
            for r in range(3):
                total = rfubini_numbers(m, r, lam, 12)
                exact = poly_by_sum(PolyFamily(RFUBINI_DEGENERATE, r), m).eval_x(1).subs(lam)
                assert abs(total - exact) <= tol, (lam, m, r)


def test_family_validation():
    with pytest.raises(ValueError):
        PolyFamily("nope")
    with pytest.raises(ValueError):
        PolyFamily(FUBINI_DEGENERATE, 1)
