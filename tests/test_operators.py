"""Degenerate Euler operator, the transform, and the two-series identity."""

import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qlambda.factorials import degen_falling, degen_falling_table
from qlambda.fubini_bell import RFUBINI_DEGENERATE, PolyFamily, poly_by_sum
from qlambda import stirling as st
from qlambda.gfun import classical_exp, degen_log_one_minus, inv_one_minus
from qlambda import identities
from qlambda.identities import SuiteBounds, check_thm8
from qlambda.kernel import QL, LambdaPoly, TruncSeries, XPoly
from qlambda.operators import (OperatorSpec, l_points, theorem1_check, theorem2_blocks,
                               theorem2_check)
from qlambda.report import make_report
from qlambda.tables import Tables, run, use

from routes import (degen_transform, degen_transform_value, derivative, derive, euler_apply,
                    rhs_theorem1, s2r_entry, s2r_triangle, series_mismatch, shift,
                    shifted_tables_by_sums, theorem2_sides, theorem2_tables, xpoly_mismatch)

X = XPoly.x()


def test_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec(1, 2, "shifted")
    with pytest.raises(ValueError):
        OperatorSpec(-1)
    with pytest.raises(ValueError):
        OperatorSpec(1, 0, "sideways")
    OperatorSpec(2, 2, "shifted")
    with pytest.raises(ValueError):  # the check validates its spec
        theorem1_check(1, 2, "shifted", 6)


def test_euler_apply_examples():
    out = euler_apply(OperatorSpec(2, 0), XPoly.monomial(1, 3))
    assert out == XPoly.monomial(LambdaPoly([9, -3]), 3)  # 3(3-l) x^3
    p = XPoly([1, 2, 3])
    assert euler_apply(OperatorSpec(0, 2), p) == XPoly.monomial(1, 2) * p
    assert euler_apply(OperatorSpec(1, 0), XPoly.one()) == XPoly.zero()


def test_rhs_examples():
    # length-1 operator is x d/dx
    rng = random.Random(1)
    for _ in range(20):
        f = XPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                   for _ in range(rng.randint(1, 6))])
        assert rhs_theorem1(OperatorSpec(1, 0), f) == X * derivative(f)
        assert rhs_theorem1(OperatorSpec(3, 0), XPoly.const(5)) == XPoly.zero()


def test_operator_identity_on_monomials_both_modes():
    for m in range(6):
        for r in range(min(m, 3) + 1):
            for mode in ("plain", "shifted"):
                rep = theorem1_check(m, r, mode, jmax=8)
                assert rep.passed, rep.to_json()


def _theorem1_oracle(m, r, mode, jmax):
    """theorem1_check's report, from applying the operator and summing derivatives."""
    spec = OperatorSpec(m, r, mode)
    params = {"m": m, "r": r, "mode": mode, "jmax": jmax}
    tri = s2r_triangle(spec)
    for j in range(jmax + 1):
        f = XPoly.monomial(1, j)
        bad = xpoly_mismatch(euler_apply(spec, f), rhs_theorem1(spec, f, tri), f"operand x^{j}")
        if bad is not None:
            return make_report("thm1", params, bad)
    return make_report("thm1", params, None)


@pytest.mark.parametrize("faulted", [False, True])
def test_theorem1_check_agrees_with_the_operator_oracle(faulted):
    jmax, mmax = 10, 8
    faults = {(st.S2R_DEGENERATE, r, n, k): LambdaPoly([k, -1])
              for r in range(5) for n, k in ((3, 1), (7, 5))} if faulted else {}
    failed = 0
    with use(Tables(faults)):
        for m in range(mmax + 1):
            for r in range(min(m, 4) + 1):
                for mode in ("plain", "shifted"):
                    expected = _theorem1_oracle(m, r, mode, jmax).to_json()
                    assert theorem1_check(m, r, mode, jmax).to_json() == expected
                    failed += not expected["passed"]
    assert (failed > 0) == faulted


def test_operator_identity_on_series():
    geo = inv_one_minus(10)
    for m in range(4):
        for r in range(min(m, 2) + 1):
            for mode in ("plain", "shifted"):
                spec = OperatorSpec(m, r, mode)
                assert euler_apply(spec, geo) == rhs_theorem1(spec, geo), (m, r, mode)


def test_linearity_randomized():
    rng = random.Random(12)
    spec = OperatorSpec(3, 1)
    for _ in range(30):
        f = XPoly([LambdaPoly([Fraction(rng.randint(-4, 4))]) for _ in range(5)])
        g = XPoly([LambdaPoly([Fraction(rng.randint(-4, 4))]) for _ in range(5)])
        c = LambdaPoly([rng.randint(-3, 3), rng.randint(-3, 3)])
        lhs = euler_apply(spec, f * c + g)
        rhs = euler_apply(spec, f) * c + euler_apply(spec, g)
        assert lhs == rhs
        lhs2 = rhs_theorem1(spec, f * c + g)
        rhs2 = rhs_theorem1(spec, f) * c + rhs_theorem1(spec, g)
        assert lhs2 == rhs2


def test_degen_transform_examples():
    for m in range(7):
        assert degen_transform(XPoly.monomial(1, m)) == degen_falling(X, m)
    assert degen_transform(XPoly.one()) == XPoly.one()
    assert degen_transform_value(XPoly.monomial(1, 2), 3).subs(1) == 6


def test_shifted_mode_series_expansion():
    # shifted euler on a series equals the binomial-weighted coefficient map
    g = classical_exp(12, QL)
    for m in range(2, 5):
        for r in range(1, min(m, 3) + 1):
            spec = OperatorSpec(m, r, "shifted")
            out = euler_apply(spec, g)
            expect = [LambdaPoly.zero()] * (g.order + 1)
            for n in range(r, g.order + 1):
                w = math.comb(n, r) * math.factorial(r)
                expect[n] = g.coeff(n) * degen_falling(n, m - r) * w
            assert out == TruncSeries(QL, expect), (m, r)


def _g_for(name, order):
    if name == "geometric":
        return inv_one_minus(order)
    if name == "exp":
        return classical_exp(order, QL)
    return (-degen_log_one_minus(order)) * inv_one_minus(order)


def _rhs_rederiving(spec, f, tri):
    """``rhs_theorem1`` as it was first written: each term derives again from f."""
    if spec.mode == "plain":
        terms = [(tri.entry(spec.m, l), l, l + spec.r) for l in range(spec.m + 1)]
    else:
        terms = [(tri.entry(spec.m - spec.r, l - spec.r), l, l)
                 for l in range(spec.r, spec.m + 1)]
    poly = isinstance(f, XPoly)
    out = XPoly.zero() if poly else TruncSeries.zero(
        QL, f.order + (spec.r if spec.mode == "plain" else 0))
    for weight, l, at in terms:
        d = f
        for _ in range(l):
            d = derivative(d) if poly else derive(d)
        out = out + (XPoly.monomial(weight, at) * d if poly else shift(d.scale(weight), at))
    return out


def test_rhs_theorem1_matches_rederiving_from_f():
    rng = random.Random(11)
    polys = [XPoly([LambdaPoly([Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                                rng.randint(-3, 3)]) for _ in range(rng.randint(0, 8))])
             for _ in range(6)]
    operands = polys + [XPoly.one(), classical_exp(12, QL), _g_for("harmonic", 12)]
    for m in range(7):
        for r in range(min(m, 3) + 1):
            for mode in ("plain", "shifted"):
                spec = OperatorSpec(m, r, mode)
                tri = s2r_triangle(spec)
                for f in operands:
                    assert rhs_theorem1(spec, f, tri) == _rhs_rederiving(spec, f, tri), \
                        (m, r, mode, f)


def test_theorem2_examples():
    order = 12
    rep = theorem2_check(XPoly.one(), _g_for("geometric", order), 0, order)
    assert rep.passed
    rep = theorem2_check(X, _g_for("exp", order + 1), 0, order)
    assert rep.passed
    rep = theorem2_check(XPoly.monomial(1, 4), _g_for("geometric", order + 4), 3, order)
    assert rep.passed


def test_theorem2_random_polynomials_all_gs():
    rng = random.Random(77)
    order = 12
    for name in ("geometric", "exp", "harmonic"):
        g = _g_for(name, order + 5)
        for r in range(3):
            for _ in range(6):
                f = XPoly([LambdaPoly([Fraction(rng.randint(-6, 6), rng.randint(1, 4))])
                           for _ in range(rng.randint(1, 6))])
                rep = theorem2_check(f, g, r, order)
                assert rep.passed, rep.to_json()


def test_theorem2_insufficient_order_is_error():
    message = r"g must be tracked to >= 10 \(got 9\)"
    with pytest.raises(ValueError, match=message):
        theorem2_check(XPoly.monomial(1, 3), inv_one_minus(9), 0, 10)
    # the tables read g_0..g_order only
    assert theorem2_check(XPoly.monomial(1, 3), inv_one_minus(10), 0, 10).passed


def test_theorem2_blocks_shapes():
    at = 3
    blocks = theorem2_blocks(2, 6, 3, at)
    tables = blocks.main + blocks.shifted
    assert all(len(t) == 4 and all(len(row) == 7 for row in t) for t in tables)
    # f with m < r contributes nothing to the shifted form
    zero = (0,) * 7
    assert all(t[0] == t[1] == zero for t in blocks.shifted)
    assert blocks.main[1][2][5] == degen_falling(5 + 2, 2).subs(at)
    assert blocks.shifted[1][3][5] == degen_falling(5, 1).subs(at) * 20
    assert blocks.main is blocks.main
    twin = pickle.loads(pickle.dumps(blocks))  # carries both forms
    assert twin == blocks and twin.main == blocks.main and twin.shifted == blocks.shifted


def _at(table, at):
    """A table of ``LambdaPoly`` entries with the number ``at`` substituted for l."""
    return tuple(tuple(entry.subs(at) for entry in row) for row in table)


@pytest.mark.parametrize("fault", [None, (1, 3, 2), (2, 6, 4), (4, 8, 0), (0, 10, 10)], ids=str)
def test_shifted_tables_equal_the_term_by_term_sums(fault):
    # each shifted entry is j(j-1)...(j-r+1) times a main one; the route sums its terms, in
    # Q[l], and the point tables must equal it at l = 0..D, which fix each entry
    faults = {} if fault is None else {(st.S2R_DEGENERATE, *fault): LambdaPoly([1, 1])}
    with use(Tables(faults)):
        for r in range(5):
            for order, degmax in ((20, 10), (r - 1, 10), (20, r)):
                if order >= 0:
                    expected = shifted_tables_by_sums(r, order, degmax)
                    for at in l_points(degmax):
                        assert theorem2_blocks(r, order, degmax, at).shifted == tuple(
                            _at(t, at) for t in expected), (r, order, at)


_DELTAS = hst.lists(hst.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=4)


@settings(max_examples=60, deadline=None)
@given(r=hst.integers(0, 4), n=hst.integers(0, 8), at=hst.integers(-3, 10),
       fault=hst.tuples(hst.integers(0, 8), hst.integers(0, 8), _DELTAS))
def test_point_tables_equal_the_q_l_tables_there(r, n, at, fault):
    # each table at a number for l is the oracle's Q[l] table, from the basis route with the
    # faults added, with that number substituted
    row, k, coeffs = fault
    order = n + 2
    with use(Tables({(st.S2R_DEGENERATE, r, row, k): LambdaPoly(coeffs)})):
        basis = [[s2r_entry(r, i, j) for j in range(i + 1)] for i in range(n + 1)]
        assert st.rows_at(st.StirlingFamily(st.S2R_DEGENERATE, r), n, at) == _at(basis, at)
        assert degen_falling_table(order + r, n, at) == _at(
            [[degen_falling(a, m) for m in range(n + 1)] for a in range(order + r + 1)], at)
        points, blocks = theorem2_blocks(r, order, n, at), theorem2_tables(r, order, n)
        for form in ("main", "shifted"):
            assert getattr(points, form) == tuple(_at(t, at) for t in getattr(blocks, form))
        # thm3's coefficient j, sum_k c_k C(j, k) from the r-Fubini polynomial, is entry [n][j]
        fpoly = poly_by_sum(PolyFamily(RFUBINI_DEGENERATE, r), n)
        assert points.main[0][n] == tuple(
            sum((c * math.comb(j, i) for i, c in enumerate(fpoly.coeffs)), LambdaPoly.zero())
            .subs(at) for j in range(order + 1))


def _x_derivs(g, kmax, order):
    """x^k g^(k) for k <= kmax, each from the previous derivative, tracked to ``order``."""
    out, d = [], g
    for k in range(kmax + 1):
        out.append(shift(d, k).truncate(order))
        d = derive(d)
    return out


@pytest.mark.parametrize("faulted", [False, True])
def test_theorem2_blocks_mix_matches_scaled_derivatives(faulted):
    # g_j times each entry, at l = 0..D, against the Stirling-weighted x^k g^(k) there
    order, degmax = 10, 6
    faults = {(st.S2R_DEGENERATE, r, n, k): LambdaPoly([1, -2])
              for r in range(4) for n, k in ((3, 1), (5, 4))} if faulted else {}
    with use(Tables(faults)):
        for r in range(4):
            tri = st.triangle(st.StirlingFamily(st.S2R_DEGENERATE, r), degmax)
            for name in ("exp", "geometric", "harmonic"):
                g = _g_for(name, order + degmax)
                derivs = _x_derivs(g, degmax, order)

                def mix(weights):
                    out = TruncSeries.zero(QL, order)
                    for k, w in weights:
                        out = out + derivs[k].scale(w)
                    return out
                mixes = [(mix((k, tri.entry(n, k)) for k in range(n + 1)),
                          mix((k, tri.entry(n - r, k - r)) for k in range(r, n + 1)))
                         for n in range(degmax + 1)]
                for at in l_points(degmax):
                    blocks = theorem2_blocks(r, order, degmax, at)
                    gs = [c.subs(at) for c in g.coeffs]
                    for n, series in enumerate(mixes):
                        for (table, _), want in zip((blocks.main, blocks.shifted), series):
                            assert [gj * v for gj, v in zip(gs, table[n])] == [
                                c.subs(at) for c in want.coeffs], (r, name, n, at)
                if faulted:
                    assert not theorem2_check(XPoly.monomial(1, 5), g, r, order).passed
            for at in l_points(degmax):
                blocks = theorem2_blocks(r, order, degmax, at)
                (_, main_rhs), (_, shifted_rhs) = blocks.main, blocks.shifted
                for n in range(degmax + 1):
                    assert main_rhs[n] == tuple(degen_falling(j + r, n).subs(at)
                                                for j in range(order + 1))
                    assert shifted_rhs[n] == tuple(
                        degen_falling(j, n - r).subs(at) * math.perm(j, r) if n >= r else 0
                        for j in range(order + 1))


def _random_rational_series(rng, order):
    return TruncSeries(QL, (LambdaPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                        for _ in range(rng.randint(0, 2))])
                            for _ in range(order + 1)))


def _oracle_report(f, g, r, order):
    params = {"r": r, "order": order, "deg_f": f.degree}
    for label, (lhs, rhs) in zip(("main form", "shifted form"), theorem2_sides(f, g, r, order)):
        bad = series_mismatch(lhs, rhs, label)
        if bad is not None:
            return make_report("thm2", params, bad)
    return make_report("thm2", params, None)


@pytest.mark.parametrize("faulted", [False, True])
def test_theorem2_check_agrees_with_the_derivative_oracle(faulted):
    rng = random.Random(2024)
    order, degmax = 8, 6
    faults = {(st.S2R_DEGENERATE, r, 4, 2): LambdaPoly([0, 3]) for r in range(4)} if faulted else {}
    failed = 0
    with use(Tables(faults)):
        for r in range(4):
            for _ in range(6):
                g = _random_rational_series(rng, order + degmax)
                f = XPoly([LambdaPoly([Fraction(rng.randint(-6, 6), rng.randint(1, 4))])
                           for _ in range(rng.randint(1, degmax + 1))])
                expected = _oracle_report(f, g, r, order)
                assert theorem2_check(f, g, r, order) == expected, (r, f, g)
                failed += not expected.passed
            # g with zero coefficients: the fault changes coefficients j >= 2 only
            f = XPoly.monomial(3, 4) + X
            for support in ((), (0, 1), (0, 1, order - 1)):
                g = TruncSeries(QL, (LambdaPoly([Fraction(rng.randint(1, 9), rng.randint(1, 9))])
                                     if j in support else LambdaPoly.zero()
                                     for j in range(order + degmax + 1)))
                expected = _oracle_report(f, g, r, order)
                assert theorem2_check(f, g, r, order) == expected, (r, support)
                assert expected.passed == (not faulted or len(support) < 3), (r, support)
    assert (failed > 0) == faulted


def test_checks_on_prebuilt_blocks_take_no_product(monkeypatch):
    bounds = SuiteBounds(thm1_jmax=10, thm1_mmax=6, thm1_rmax=3, thm2_degmax=6, thm2_rmax=3,
                         thm2_order=10, thm8_mmax=6, thm8_rmax=3, thm8_order=10)
    monomials = [XPoly.monomial(1, n) for n in range(7)]
    gs = [_g_for(name, 10) for name in ("geometric", "exp", "harmonic")]
    calls = []
    # the run's plan prebuilds the blocks and thm8's terms before any check
    with use(Tables()), run(identities._plan(("thm1", "thm2", "thm8"), bounds)):
        for name in ("__mul__", "__rmul__"):  # counted from the first check on
            def counting(self, other, _original=getattr(LambdaPoly, name)):
                calls.append(other)
                return _original(self, other)
            monkeypatch.setattr(LambdaPoly, name, counting)
        reports = [theorem1_check(m, r, mode, 10) for m in range(7)
                   for r in range(min(m, 3) + 1) for mode in ("plain", "shifted")]
        reports += [theorem2_check(f, g, r, 10) for f in monomials for g in gs for r in range(4)]
        reports += [check_thm8(m, r, 10) for m in range(7) for r in range(4)]
    assert reports and all(rep.passed for rep in reports)
    assert calls == []


def test_theorem2_degree_above_order():
    # x^k g^(k) vanishes mod x^(order+1) once k > order; the identity still holds
    for r in range(3):
        rep = theorem2_check(XPoly([1, 2, 0, 0, 0, 3]), _g_for("harmonic", 8), r, 3)
        assert rep.passed, rep.to_json()


def test_shifted_mode_requires_enough_length():
    with pytest.raises(ValueError):
        euler_apply(OperatorSpec(1, 2, "shifted"), X)
