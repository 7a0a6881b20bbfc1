"""The verify path's running sums and integer sums against the routes they replaced.

A product by (1-t)^-(k+1) is taken as k + 1 running sums, and the numeric
r-Fubini sum runs in integers; ``routes`` keeps the series products, the
convolution and the ``Fraction`` loop they replaced, and each must agree
exactly.
"""

import itertools
import math
from fractions import Fraction

import pytest

from qlambda import identities, tables
from qlambda.fubini_bell import rfubini_numbers
from qlambda.gfun import classical_exp, degen_exp, degen_log1p, degen_log_one_minus, inv_one_minus
from qlambda.harmonic import degen_hyperharmonic, harmonic_gf, hyperharmonic_row, running_sums
from qlambda.identities import CHECK_IDS, SuiteBounds, check_thm6, harmonic_terms, run_suite
from qlambda.kernel import QL, SeriesOrderError, TruncSeries
from qlambda.tables import Tables

import routes

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


def test_harmonic_terms_equal_the_series_products():
    for order in range(17):
        products = tuple(routes.harmonic_terms_by_product(order, order))
        for kmax in range(order + 1):
            terms = harmonic_terms(order, kmax)
            assert terms.series == products[:kmax + 1], (order, kmax)
            assert terms.closed_form, (order, kmax)


def test_thm6_closed_form_equals_the_convolution():
    # a passing check_thm6 means its running-sum closed form equals the k-th derivative
    for order in (1, 2, 3, 5, 8, 16):
        g = harmonic_gf(1, 2 * order)
        for k in range(1, order + 1):
            derived = g.truncate(order + k)
            for _ in range(k):
                derived = derived.derive()
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
    (harmonic_terms, (3, 5), ValueError),
    (harmonic_terms, (0, 1), ValueError),
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
    assert len(harmonic_terms(0, 0).series) == 1


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
    calls = []
    gen_binomial = identities.gen_binomial

    def counting(top, k):
        calls.append(k)
        return gen_binomial(top, k)

    monkeypatch.setattr(identities, "gen_binomial", counting)
    bounds = SuiteBounds()
    for _ in range(2):  # nothing a run builds outlives it
        calls.clear()
        reports = run_suite({"cor7", "thm6", "thm8"}, bounds, tables=Tables())
        assert reports and all(rep.passed for rep in reports)
        ks = range(max(bounds.cor7_kmax, bounds.thm6_kmax, bounds.thm8_mmax) + 1)
        assert sorted(calls) == list(ks)  # thm8 reads k = 0 too
    assert tables._RUN.get() is None
    calls.clear()
    check_thm6(2, 6)
    check_thm6(2, 6)
    assert calls == [2, 2]  # outside a run nothing is kept
