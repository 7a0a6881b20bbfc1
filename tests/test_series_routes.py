"""The verify path's running sums and integer sums against the routes they replaced.

A product by (1-t)^-(k+1) is taken as k + 1 running sums, a weight
C(k - l, k) on them as one factor (k - l)/k per sum, thm4's left side from
its coefficients, and the numeric r-Fubini sum runs in integers;
``routes`` keeps the series products, the convolution, the binomial
products, the ``XPoly`` derivatives and the ``Fraction`` loop they
replaced, and each must agree exactly.  The harmonic values thm5, thm6,
cor7 and thm8 decide with are taken at integer l only, scaled to ints; each
must equal the route's Q[l] value there times the scale, at l = 0..D, which
fix a value of degree <= D in l, and thm4 and thm5 must give the reports of
their Q[l] routes.  The series shift and
derivatives the routes take are plain functions there, tested here.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qlambda import identities, stirling, tables
from qlambda.fubini_bell import rfubini_numbers
from qlambda.gfun import classical_exp, degen_exp, degen_log1p, degen_log_one_minus, inv_one_minus
from qlambda.harmonic import (degen_hyperharmonic, harmonic_gf, harmonic_row, hyperharmonic_row,
                              running_sums)
from qlambda.identities import (CHECK_IDS, SuiteBounds, check_cor7, check_thm4, check_thm5,
                                check_thm6, harmonic_terms, run_suite)
from qlambda.kernel import QL, QQ, LambdaPoly, SeriesOrderError, TruncSeries, XPoly
from qlambda.tables import Tables, use

import routes

def test_series_derive_examples():
    s = TruncSeries(QQ, [1, 1, 1])
    assert routes.derive(s).coeffs == (1, 2)
    assert routes.derive(TruncSeries(QQ, [1, 0])).coeffs == (0,)
    assert routes.derive(inv_one_minus(5, 1, QQ)).coeffs == (1, 2, 3, 4, 5)
    with pytest.raises(SeriesOrderError):
        routes.derive(TruncSeries(QQ, [1]))


def test_series_shift_tracks_order():
    s = TruncSeries(QQ, [1, 2, 3])
    assert routes.shift(s, 2).order == 4
    assert routes.shift(s, 2).coeffs == (0, 0, 1, 2, 3)
    assert routes.shift(s, 0) == s
    with pytest.raises(SeriesOrderError):
        routes.shift(s, -1)
    assert routes.derivative(XPoly([1, 2, 3])) == XPoly([2, 6])
    assert routes.derivative(XPoly.const(4)) == XPoly.zero()


_LAMBDAS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(-2, 5), Fraction(3), Fraction(-1))


def test_running_sums_give_the_binomial_series():
    assert running_sums([1, 0, 0, 0, 0], 3) == [math.comb(n + 2, 2) for n in range(5)]
    assert running_sums((c for c in (1, 2, 3)), 0) == [1, 2, 3]
    assert running_sums([], 2) == []


def test_degen_log1p_equals_the_products_from_scratch():
    for order in range(25):
        assert degen_log1p(order) == routes.degen_log1p_by_falling(order), order


def test_harmonic_gf_equals_the_series_product():
    for r in range(1, 5):
        for order in range(25):
            assert harmonic_gf(r, order) == routes.harmonic_gf_by_product(r, order), (r, order)


def _scaled(values, at, scale):
    """Rows of ``LambdaPoly`` values, each at the number ``at`` for l times ``scale``."""
    return [tuple(v.subs(at) * scale for v in row) for row in values]


def test_harmonic_terms_equal_the_series_products():
    # [t^n] T_k is of degree <= n - 1 <= order - 1 in l, so l = 0..order - 1 fix it
    for order in range(17):
        products = [p.coeffs for p in routes.harmonic_terms_by_product(order, order)]
        for at in range(max(order, 1)):
            values = _scaled(products, at, 1)
            for kmax in range(order + 1):
                scale = math.lcm(*range(1, order + kmax + 1))
                assert harmonic_terms(order, kmax, at) == [
                    tuple(v * scale for v in row) for row in values[:kmax + 1]], (order, kmax, at)
        for kmax in range(order + 1):
            assert identities._open_terms(order, kmax) is None, (order, kmax)  # closed form


@functools.lru_cache(maxsize=None)
def _harmonic_routes() -> tuple:
    """The routes' cor7 sums, summed brackets and thm8 terms to order and k 16; at a lower
    order each row is a prefix of its row here."""
    return (routes.harmonic_sums_by_product(16, 16), routes.summed_brackets_by_product(16, 16),
            [p.coeffs for p in routes.harmonic_terms_by_product(16, 16)])


@settings(max_examples=60, deadline=None)
@given(at=hst.integers(-3, 10), order=hst.integers(0, 16), data=hst.data())
def test_point_harmonic_values_equal_the_q_l_ones_there(at, order, data):
    # at a number for l each is the route's Q[l] value there times lcm(1..N), N = order + kmax
    # the top index of the row they are read from, and an int
    kmax = data.draw(hst.integers(0, order))
    scale = math.lcm(*range(1, order + kmax + 1))
    sums, brackets, terms = ([row[:order + 1] for row in table[:kmax + 1]]
                             for table in _harmonic_routes())

    def flat(values):
        return [x for v in values for x in (flat(v) if isinstance(v, (list, tuple)) else [v])]

    row = harmonic_row(order + kmax, at)
    (sums_row, sums_at), (brackets_row, brackets_at) = (build(order, kmax, at) for build in (
        identities._harmonic_sums, identities._summed_brackets))
    assert sums_row == brackets_row == row  # each returns the row it reads, for its checks
    for points, values in ((row, harmonic_row(order + kmax)), (sums_at, sums),
                           (brackets_at, brackets), (harmonic_terms(order, kmax, at), terms)):
        assert len(points) == len(values)
        assert flat(points) == [v.subs(at) * scale for v in flat(values)], (order, kmax)
        assert all(type(v) is int for v in flat(points))


def test_point_binomials_equal_the_generalized_binomial():
    # C(k - at, k) on k running sums of [1], by one exact step (k - at) // k per sum
    for at in range(-3, 11):
        sums = identities._binomial_sums([1], 12, at)
        assert [row[0] for row in sums] == [routes.gen_binomial(k - at, k) for k in range(13)]


def test_thm6_closed_form_equals_the_convolution():
    # a passing check_thm6 means its running-sum closed form equals the k-th derivative
    for order in (1, 2, 3, 5, 8, 16):
        g = harmonic_gf(1, 2 * order)
        for k in range(1, order + 1):
            derived = g.truncate(order + k)
            for _ in range(k):
                derived = routes.derive(derived)
            assert routes.thm6_closed_by_convolution(k, order) == derived, (k, order)
            assert check_thm6(k, order).passed, (k, order)


@pytest.mark.parametrize("lam", _LAMBDAS, ids=str)
def test_rfubini_numbers_equal_the_fraction_sum(lam):
    for m, r, tol in itertools.product(range(7), range(4), (0, 3, 12)):
        expected = routes.rfubini_numbers_by_fractions(m, r, lam, tol)
        assert rfubini_numbers(m, r, lam, tol) == expected, (m, r, tol)


@pytest.mark.parametrize("fn, args, error", [
    (degen_log1p, (-1,), SeriesOrderError),
    (degen_log_one_minus, (-1,), SeriesOrderError),
    (degen_exp, (-1,), SeriesOrderError),
    (inv_one_minus, (-1,), SeriesOrderError),
    (classical_exp, (-1,), SeriesOrderError),
    (harmonic_gf, (1, -1), SeriesOrderError),
    (harmonic_gf, (3, -2), SeriesOrderError),
    (hyperharmonic_row, (-1, 1), ValueError),
    (hyperharmonic_row, (-1, 3), ValueError),
    (degen_hyperharmonic, (-1, 1), ValueError),
    # kmax > order, at the points l = 0 and 2; the ids name (order, kmax)
    pytest.param(harmonic_terms, (3, 5, 0), ValueError, id="harmonic_terms-(3, 5)-ValueError"),
    pytest.param(harmonic_terms, (0, 1, 2), ValueError, id="harmonic_terms-(0, 1)-ValueError"),
    (inv_one_minus, (-3, 0), SeriesOrderError),
    pytest.param(TruncSeries.one, (QL, -1), SeriesOrderError, id="one-(-1)"),
    pytest.param(TruncSeries.const, (QL, QL.one, -2), SeriesOrderError, id="const-(-2)"),
    pytest.param(inv_one_minus(5).truncate, (-2,), SeriesOrderError, id="truncate-(-2)"),
    pytest.param(inv_one_minus(5).truncate, (-6,), SeriesOrderError, id="truncate-(-6)"),
], ids=lambda value: getattr(value, "__name__", None) or repr(value))
def test_bad_orders_raise(fn, args, error):
    with pytest.raises(error):
        fn(*args)


def test_order_zero_is_the_constant_term():
    for series in (degen_log1p(0), degen_log_one_minus(0), harmonic_gf(2, 0)):
        assert series.order == 0 and series.coeffs[0].is_zero()
    assert hyperharmonic_row(0, 1) == [degen_hyperharmonic(0, 1)]
    assert harmonic_terms(0, 0, 5) == [(0,)]


def test_verify_all_takes_no_series_product(monkeypatch):
    calls = []

    def counting(self, other, _original=TruncSeries.__mul__):
        calls.append(other)
        return _original(self, other)

    monkeypatch.setattr(TruncSeries, "__mul__", counting)
    reports = run_suite(CHECK_IDS, tables=Tables())
    assert len(reports) == 348 and all(rep.passed for rep in reports)
    assert calls == []


def test_each_run_builds_each_shifted_binomial_once(monkeypatch):
    # the weights C(k - l, k) come with the binomial sums, one set for the brackets and one
    # for cor7, each once per point of l to its degree in l
    calls = []
    binomial_sums = identities._binomial_sums

    def counting(base, kmax, at):
        calls.append((len(base), kmax, at))
        return binomial_sums(base, kmax, at)

    monkeypatch.setattr(identities, "_binomial_sums", counting)
    b = SuiteBounds()
    kmax = max(b.thm6_kmax, b.thm8_mmax)
    for _ in range(2):  # nothing a run builds outlives it
        calls.clear()
        reports = run_suite({"cor7", "thm6", "thm8"}, b, tables=Tables())
        assert reports and all(rep.passed for rep in reports)
        assert sorted(calls, key=str) == sorted(
            [(b.cor7_nmax + 1, b.cor7_kmax, at) for at in range(b.cor7_nmax + b.cor7_kmax)]
            + [(b.thm6_order + 1, kmax, at) for at in range(b.thm6_order + kmax)], key=str)
    assert tables._RUN.get() is None
    calls.clear()
    check_thm6(2, 6)
    check_thm6(2, 6)
    check_cor7(3, 2)
    # outside a run nothing is kept: each check builds its own at l = 0..D
    assert calls == [(7, 2, at) for at in range(8)] * 2 + [(4, 2, at) for at in range(5)]


def _at_points(degree: int, values, build, *args) -> None:
    """The table ``build(*args, at)`` returns with its row equals ``values`` at each
    l = 0..degree times the scale lcm(1..N) of that row, N = the sum of ``args``; values of
    degree <= ``degree`` in l are fixed there."""
    scale = math.lcm(*range(1, sum(args) + 1))
    for at in range(degree + 1):
        table = build(*args, at)[1]
        assert [tuple(row) for row in table] == _scaled(values, at, scale), (args, at)


def test_summed_brackets_equal_the_binomial_products():
    # coefficient n of bracket k is of degree <= n + k - 1 in l
    for order in (0, 1, 2, 3, 8, 16, 20):
        products = routes.summed_brackets_by_product(order, 10)
        _at_points(order + 9, products, identities._summed_brackets, order, 10)
        for kmax in (0, 1, order // 2):
            _at_points(order + kmax, products[:kmax + 1], identities._summed_brackets, order,
                       kmax)


def test_harmonic_sums_equal_the_binomial_products():
    products = routes.harmonic_sums_by_product(20, 10)
    _at_points(29, products, identities._harmonic_sums, 20, 10)
    for nmax, kmax in ((0, 0), (0, 10), (1, 3), (7, 10), (20, 0)):
        _at_points(nmax + kmax, [row[:nmax + 1] for row in products[:kmax + 1]],
                   identities._harmonic_sums, nmax, kmax)


def _random_lambda_xpoly(rng: random.Random, degmax: int) -> XPoly:
    return XPoly([LambdaPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                              for _ in range(rng.randint(0, 3))])
                  for _ in range(rng.randint(0, degmax) + 1)])


def test_thm4_lhs_equals_the_derivative_route():
    # rows n and n + 1 of S2d faulted to f / i! and to the route's x f' + x (x f)' - l n f over
    # i!: thm4 passes there, at the points the faults' degree adds, and fails where one moves
    rng = random.Random(20)
    fam = stirling.StirlingFamily(stirling.S2_DEGENERATE)
    clean = stirling.triangle(fam, 21)
    for n in range(21):
        for _ in range(3):
            f = _random_lambda_xpoly(rng, n)
            polys = {n: f, n + 1: routes.thm4_lhs_by_derivatives(f, n)}
            faults = {(fam.id, 0, m, i): p.coeff(i) / math.factorial(i) - clean.entry(m, i)
                      for m, p in polys.items() for i in range(m + 1)}
            with use(Tables(faults)):
                assert check_thm4(n).passed, (n, f)
            i = rng.randint(0, n + 1)
            faults[fam.id, 0, n + 1, i] += LambdaPoly([0, 1])
            with use(Tables(faults)):
                bad = check_thm4(n).counterexample
            assert bad.location == f"polynomials: coefficient of x^{i}", (n, f, i)


@pytest.mark.parametrize("fault", [None, (0, 1, 0), (0, 4, 2), (0, 9, 9), (0, 15, 0)], ids=str)
def test_thm4_reports_equal_the_derivative_route(fault):
    # at S2d(1, 0) the delta 1 + l makes coefficient 0 of thm4's left side at n = 1, -l (1 + l),
    # of degree n + 1, the most the check's l = 0..D allow for
    faults = {} if fault is None else {(stirling.S2_DEGENERATE, *fault): LambdaPoly([1, 1])}
    with use(Tables(faults)):  # the Fubini polynomials sum_k k! S(n, k) x^k, off one triangle
        expected = routes.thm4_reports(20)
        for n in range(21):
            assert check_thm4(n).to_json() == expected[n].to_json(), n
            assert expected[n].passed or fault[1] in (n, n + 1)


_S1RU, _S1U = stirling.S1R_UNSIGNED_DEGENERATE, stirling.S1_UNSIGNED_DEGENERATE


@pytest.mark.parametrize("fault", [None, (_S1RU, 1, 5, 2), (_S1RU, 3, 7, 1), (_S1RU, 1, 9, 1),
                                   (_S1U, 0, 10, 2)], ids=str)
def test_thm5_reports_equal_the_q_l_route(fault):
    # n! H^(r)_n from running sums of the scaled row at points of l, against the binomial
    # convolution in Q[l]; each failing report names the same comparison with the same values
    faults = {} if fault is None else {fault: LambdaPoly([Fraction(1, 3), 1])}
    with use(Tables(faults)):
        for n in range(1, 10):
            for r in range(1, 4):
                expected = routes.thm5_report(n, r)
                assert check_thm5(n, r).to_json() == expected.to_json(), (n, r)
                assert expected.passed or fault[2] in (n, n + 1)
