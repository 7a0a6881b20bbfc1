"""Kernel contracts: exact rationals, polynomial rings, truncated series."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qlambda.kernel import QL, QLX, QQ, LambdaPoly, SeriesOrderError, TruncSeries, XPoly
from qlambda.gfun import degen_exp, degen_log1p, inv_one_minus

from oracles import convolve


def one_minus_var(order, ring):
    """The polynomial 1 - t as a series of the given order (1 at order 0)."""
    return TruncSeries(ring, ([1, -1] + [0] * order)[: order + 1])


def _random_fraction(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 15))


def _random_lp(rng, degmax=4):
    return LambdaPoly([_random_fraction(rng) for _ in range(rng.randint(0, degmax) + 1)])


def _random_xp(rng, degmax=3):
    return XPoly([_random_lp(rng, 3) for _ in range(rng.randint(0, degmax) + 1)])


def _random_series(rng, ring, order):
    if ring is QQ:
        return TruncSeries(ring, [_random_fraction(rng) for _ in range(order + 1)])
    if ring is QL:
        return TruncSeries(ring, [_random_lp(rng, 3) for _ in range(order + 1)])
    return TruncSeries(ring, [_random_xp(rng, 2) for _ in range(order + 1)])


def test_ring_laws_randomized():
    # >= 1000 exact cases across the four value kinds
    rng = random.Random(20240811)
    for _ in range(300):
        a, b, c = (_random_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
    for _ in range(300):
        a, b, c = (_random_lp(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * LambdaPoly.one() == a
        assert (a + LambdaPoly.zero()) == a
    for _ in range(250):
        a, b, c = (_random_xp(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * XPoly.one() == a
    for _ in range(200):
        a, b, c = (_random_series(rng, QL, 5) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_series_mul_examples():
    one_plus = TruncSeries(QQ, [1, 1, 0])
    assert (one_plus * one_minus_var(2, QQ)).coeffs == (1, 0, -1)
    s = TruncSeries(QQ, [1, 1, 1])
    assert (s * TruncSeries.one(QQ, 2)) == s
    geo = inv_one_minus(4, 1, QQ)
    assert (geo * one_minus_var(4, QQ)).coeffs == (1, 0, 0, 0, 0)


def test_series_mul_matches_convolution_oracle():
    rng = random.Random(7)
    for _ in range(50):
        a = [_random_fraction(rng) for _ in range(6)]
        b = [_random_fraction(rng) for _ in range(6)]
        got = TruncSeries(QQ, a) * TruncSeries(QQ, b)
        assert list(got.coeffs) == convolve(a, b, 5)


def test_series_order_mismatch_is_error():
    with pytest.raises(SeriesOrderError):
        TruncSeries(QQ, [1, 2]) * TruncSeries(QQ, [1, 2, 3])
    with pytest.raises(SeriesOrderError):
        TruncSeries(QQ, [1, 2]) + TruncSeries(QQ, [1, 2, 3])
    with pytest.raises(SeriesOrderError):
        TruncSeries(QQ, [1, 2]).compose(TruncSeries(QQ, [0, 1, 0]))


def test_series_compose_examples():
    outer = TruncSeries(QQ, [1, 1, 0, 0])  # 1 + t
    inner = TruncSeries(QQ, [0, 0, 1, 0])  # t^2
    assert outer.compose(inner).coeffs == (1, 0, 1, 0)
    # 1/(1-t) at t/(1-t) gives (1-t)/(1-2t)
    comp = inv_one_minus(4, 1, QQ).compose(TruncSeries(QQ, [0, 1, 1, 1, 1]))  # t/(1-t)
    assert comp.coeffs == (1, 1, 2, 4, 8)


def test_series_compose_requires_zero_constant_term():
    with pytest.raises(SeriesOrderError):
        TruncSeries(QQ, [1, 1]).compose(TruncSeries(QQ, [1, 1]))


def test_series_reciprocal_examples():
    assert inv_one_minus(3, 1, QQ).coeffs == (1, 1, 1, 1)
    two = TruncSeries.const(QQ, 2, 2)
    assert two.reciprocal().coeffs == (Fraction(1, 2), 0, 0)
    assert inv_one_minus(2, 2, QQ).coeffs == (1, 2, 3)


@pytest.mark.parametrize("ring", [QQ, QL])
def test_inv_one_minus_is_the_reciprocal_power(ring):
    # the written-down binomials against a series power and its reciprocal
    for order in range(21):
        for power in range(9):
            expect = one_minus_var(order, ring).pow(power).reciprocal()
            assert inv_one_minus(order, power, ring) == expect, (order, power)


def test_series_reciprocal_requires_unit():
    with pytest.raises(ZeroDivisionError):
        TruncSeries(QQ, [0, 1]).reciprocal()
    with pytest.raises(ZeroDivisionError):
        TruncSeries(QL, [LambdaPoly.param(), LambdaPoly.one()]).reciprocal()


def test_reciprocal_mul_is_identity_randomized():
    rng = random.Random(99)
    for _ in range(60):
        coeffs = [Fraction(rng.randint(1, 9))] + [_random_fraction(rng) for _ in range(6)]
        s = TruncSeries(QQ, coeffs)
        assert s * s.reciprocal() == TruncSeries.one(QQ, 6)
    for _ in range(40):
        coeffs = [LambdaPoly.const(rng.randint(1, 5))] + [_random_lp(rng, 3) for _ in range(5)]
        s = TruncSeries(QL, coeffs)
        assert s * s.reciprocal() == TruncSeries.one(QL, 5)


def test_degenerate_exp_log_inverse_order_16():
    order = 16
    e = degen_exp(order)
    log = degen_log1p(order)
    assert e.compose(log) == TruncSeries.one(QL, order) + TruncSeries.var(QL, order)
    assert log.compose(e - TruncSeries.one(QL, order)) == TruncSeries.var(QL, order)


def test_xpoly_evaluation_homomorphism():
    rng = random.Random(5)
    for _ in range(100):
        p, q = _random_xp(rng), _random_xp(rng)
        m = rng.randint(-6, 6)
        assert (p * q).eval_x(m) == p.eval_x(m) * q.eval_x(m)


def test_lambda_poly_canonical_form():
    assert LambdaPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert LambdaPoly([0, 0]).coeffs == ()
    assert LambdaPoly([0]).is_zero()
    assert (LambdaPoly([1, 1]) - LambdaPoly([1, 1])).coeffs == ()


def test_xpoly_canonical_and_eval():
    p = XPoly([LambdaPoly([0]), LambdaPoly([1])])  # x
    assert p.degree == 1
    assert p.eval_x(3) == LambdaPoly.const(3)
    assert p.subs_lambda(Fraction(1, 2)) == (Fraction(0), Fraction(1))


def test_values_are_immutable_and_hashable():
    p = LambdaPoly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = ()
    s = TruncSeries(QL, [p, p])
    with pytest.raises(AttributeError):
        s.coeffs = ()
    assert len({p, LambdaPoly([1, 2]), XPoly([p]), s}) == 3


@pytest.mark.parametrize("ring", [QQ, QL, QLX], ids=lambda ring: ring.name)
def test_values_pickle_and_copy(ring):
    series = _random_series(random.Random(7), ring, 4)
    for value in (series, *series.coeffs):
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert twin == value and type(twin) is type(value) and hash(twin) == hash(value)
    # the rings are singletons: series arithmetic and rendering test ``ring is QL``
    for twin in (pickle.loads(pickle.dumps(ring)), copy.copy(ring), copy.deepcopy(ring)):
        assert twin is ring
    assert pickle.loads(pickle.dumps(series)).ring is ring
    assert copy.deepcopy(series) * series == series * series


def test_series_truncate_tracks_order():
    s = TruncSeries(QQ, [1, 2, 3])
    assert s.truncate(1).coeffs == (1, 2)
    with pytest.raises(SeriesOrderError):
        s.truncate(5)
    with pytest.raises(SeriesOrderError):
        s.truncate(3)


# Contracts the two dense polynomial classes share: coercion errors, mixed
# products, scalar equality, bad divisors and powers, immutability.

def test_bad_coefficients_raise_type_error():
    with pytest.raises(TypeError):
        LambdaPoly(["1"])
    with pytest.raises(TypeError):
        XPoly([object()])
    with pytest.raises(TypeError):
        XPoly.monomial("x", 2)
    with pytest.raises(TypeError):
        XPoly.x().eval_x("x")
    with pytest.raises(TypeError):
        LambdaPoly.one() + "a"
    with pytest.raises(TypeError):
        XPoly.one() * "a"


def test_mixed_products_take_the_larger_ring():
    lp = LambdaPoly([1, 2])
    xp = XPoly([LambdaPoly([0, 1]), 1])  # l + x
    for prod in (lp * xp, xp * lp):
        assert type(prod) is XPoly
        assert prod == XPoly([LambdaPoly([0, 1, 2]), lp])
    for prod in (2 * xp, xp * 2):
        assert type(prod) is XPoly
        assert prod == XPoly([LambdaPoly([0, 2]), 2])
    for prod in (Fraction(1, 3) * lp, lp * Fraction(1, 3)):
        assert type(prod) is LambdaPoly
        assert prod == LambdaPoly([Fraction(1, 3), Fraction(2, 3)])
    assert type(lp + xp) is XPoly and lp + xp == xp + lp
    assert type(1 - xp) is XPoly and 1 - xp == -(xp - 1)
    assert type(0 * lp) is LambdaPoly and (0 * lp).is_zero()
    assert type(xp * 0) is XPoly and (xp * 0).is_zero()


def test_scalar_equality():
    assert LambdaPoly.const(3) == 3
    assert 3 == LambdaPoly.const(3)
    assert LambdaPoly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert LambdaPoly.zero() == 0
    assert LambdaPoly.const(3) != 4
    assert LambdaPoly.param() != 0
    assert XPoly.const(2) == LambdaPoly.const(2)
    assert LambdaPoly.const(2) == XPoly.const(2)
    assert XPoly.const(2) == 2
    assert XPoly.zero() == 0 and XPoly.zero() == LambdaPoly.zero()
    assert XPoly.x() != LambdaPoly.param()
    assert LambdaPoly.one() != "1" and XPoly.one() != "1"


def test_equal_values_hash_equal():
    assert hash(LambdaPoly([1, 2])) == hash(LambdaPoly((Fraction(1), Fraction(4, 2), 0)))
    assert hash(XPoly([LambdaPoly([1]), 2])) == hash(XPoly([1, LambdaPoly([2]), 0]))
    assert hash(LambdaPoly([1, 1]) - LambdaPoly([1, 1])) == hash(LambdaPoly.zero())


def test_bad_divisor_and_power_raise():
    for p in (LambdaPoly([1, 2]), XPoly([1, LambdaPoly([0, 1])])):
        with pytest.raises(ZeroDivisionError):
            p / 0
        with pytest.raises(ZeroDivisionError):
            p / Fraction(0)
        with pytest.raises(ValueError):
            p ** -1
        assert p / 2 == p * Fraction(1, 2)
        assert p ** 0 == 1 and p ** 3 == p * p * p


def test_xpoly_is_immutable():
    p = XPoly([1, LambdaPoly([0, 1])])
    with pytest.raises(AttributeError):
        p.coeffs = ()
    with pytest.raises(AttributeError):
        p.other = 1
    assert p.coeffs == (LambdaPoly.one(), LambdaPoly.param())


def test_products_by_a_zero_scalar_are_the_zero_polynomial():
    for zero in (0, Fraction(0), LambdaPoly.zero()):
        for p in (LambdaPoly([1, 2]), XPoly([1, LambdaPoly([0, 1])])):
            for prod in (p * zero, zero * p):
                assert type(prod) is type(p)
                assert prod.coeffs == () and hash(prod) == hash(type(p).zero())


_FRACTIONS = hst.fractions(min_value=-20, max_value=20, max_denominator=12)
_SCALARS = hst.one_of(hst.integers(-20, 20), _FRACTIONS)
_LAMBDA_POLYS = hst.lists(_FRACTIONS, max_size=5).map(LambdaPoly)
_X_POLYS = hst.lists(_LAMBDA_POLYS, max_size=4).map(XPoly)


@settings(max_examples=100, deadline=None)
@given(p=_LAMBDA_POLYS, scalar=_SCALARS)
def test_lambda_poly_scalar_product_is_the_constant_product(p, scalar):
    expected = p * LambdaPoly.const(scalar)
    for prod in (p * scalar, scalar * p):
        assert prod.coeffs == expected.coeffs and hash(prod) == hash(expected)


@settings(max_examples=100, deadline=None)
@given(p=_X_POLYS, scalar=hst.one_of(_SCALARS, _LAMBDA_POLYS))
def test_xpoly_scalar_product_is_the_constant_product(p, scalar):
    expected = p * XPoly.const(scalar)
    for prod in (p * scalar, scalar * p):
        assert type(prod) is XPoly
        assert prod.coeffs == expected.coeffs and hash(prod) == hash(expected)


@settings(max_examples=100, deadline=None)
@given(p=_LAMBDA_POLYS, extra=hst.integers(0, 3), scale=hst.integers(1, 30))
def test_interpolate_recovers_a_polynomial_from_its_scaled_values(p, extra, scale):
    # the values at l = 0..D, any D >= deg p, each times the scale, fix p
    points = range(max(p.degree, 0) + extra + 1)
    assert LambdaPoly.interpolate([p.subs(i) * scale for i in points], scale) == p
    assert LambdaPoly.interpolate([]) == LambdaPoly.zero()
