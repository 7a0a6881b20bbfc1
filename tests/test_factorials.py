"""Factorial products, generalized binomials, and basis conversion."""

import math
import random
from fractions import Fraction

import pytest

from qlambda.factorials import (BasisId, basis_poly, classical_falling, degen_falling,
                                degen_falling_table, to_basis)
from qlambda.kernel import LambdaPoly, XPoly

from routes import (RISING_KINDS, RisingBasis, basis_id, classical_rising, coeffs_in_basis,
                    degen_rising, from_basis, gen_binomial)

LAM = LambdaPoly.param()
X = XPoly.x()


def test_product_examples():
    assert degen_falling(X, 2) == X * X - X * LAM
    assert degen_falling(X, 0) == XPoly.one()
    assert degen_falling(3, 2).subs(1) == 6  # classical falling 3*2
    assert degen_rising(X, 2) == X * X + X * LAM
    assert classical_rising(1, 3) == LambdaPoly.const(6)
    assert classical_falling(X, 2) == X * X - X


def test_degen_falling_table_matches_degen_falling():
    # at l = 0..9, which fix each entry, of degree <= 8 in l, and at two negative numbers
    falling = [[degen_falling(a, m) for m in range(10)] for a in range(25)]
    for at in (-3, -1, *range(10)):
        table = degen_falling_table(24, 9, at)
        assert len(table) == 25 and all(len(row) == 10 for row in table)
        for a, row in enumerate(table):
            for m, entry in enumerate(row):
                assert entry == falling[a][m].subs(at) and type(entry) is int, (a, m, at)
        assert table[0][0] == 1 and table[0][1] == 0 and table[24][0] == 1


def test_gen_binomial_examples():
    assert gen_binomial(LAM, 2) == (LAM * LAM - LAM) / 2
    assert gen_binomial(LambdaPoly([1, -1]), 1) == LambdaPoly([1, -1])
    assert gen_binomial(LAM, 0) == LambdaPoly.one()
    with pytest.raises(ValueError):
        gen_binomial(LAM, -1)


def test_gen_binomial_times_factorial_is_falling_product():
    for k in range(8):
        lhs = gen_binomial(LAM, k) * math.factorial(k)
        rhs = LambdaPoly.one()
        for j in range(k):
            rhs = rhs * (LAM - j)
        assert lhs == rhs


def test_to_basis_examples():
    assert to_basis(X * X, BasisId("falling")) == [LambdaPoly.zero(), LambdaPoly.one(),
                                                   LambdaPoly.one()]
    got = to_basis(degen_falling(X, 2), BasisId("falling"))
    assert got == [LambdaPoly.zero(), LambdaPoly([1, -1]), LambdaPoly.one()]
    assert coeffs_in_basis(XPoly.one(), RisingBasis("degen-rising")) == [LambdaPoly.one()]
    with pytest.raises(ValueError):  # the rising kinds are the oracles' alone
        BasisId("rising")
    assert to_basis(XPoly.zero(), BasisId("falling")) == []


def _random_xpoly(rng, degmax):
    return XPoly([LambdaPoly([Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                              for _ in range(rng.randint(1, 3))])
                  for _ in range(rng.randint(1, degmax + 1))])


@pytest.mark.parametrize("kind", ["monomial", "falling", "rising", "degen-falling",
                                  "degen-rising"])
@pytest.mark.parametrize("shift", [0, 2])
def test_round_trip_every_basis(kind, shift):
    # the package's to_basis for its kinds, the oracles' expansion for the rising ones
    rng = random.Random(hash((kind, shift)) & 0xFFFF)
    basis, expand = basis_id(kind, shift), coeffs_in_basis if kind in RISING_KINDS else to_basis
    for _ in range(20):
        p = _random_xpoly(rng, 10)
        coeffs = expand(p, basis)
        assert from_basis(coeffs, basis) == p
        # triangularity: exactly deg+1 coefficients, monic-preserving top
        assert len(coeffs) == p.degree + 1
        if not p.is_zero():
            assert coeffs[-1] == p.coeffs[-1]


def test_shifted_basis_polys():
    assert basis_poly(BasisId("falling", 2), 1) == X + XPoly.const(2)
    assert basis_poly(BasisId("degen-falling", 1), 2) == degen_falling(X + XPoly.one(), 2)


def test_degenerate_limits():
    for n in range(7):
        p = degen_falling(X, n)
        # parameter -> 0 gives the monomial
        at0 = XPoly([LambdaPoly.const(c.subs(0)) for c in p.coeffs])
        assert at0 == XPoly.monomial(1, n)
        # parameter -> 1 gives the classical falling factorial
        at1 = XPoly([LambdaPoly.const(c.subs(1)) for c in p.coeffs])
        assert at1 == classical_falling(X, n)


def test_integer_arguments_lift_into_the_ring():
    v = degen_falling(Fraction(5, 2), 3)
    assert isinstance(v, LambdaPoly)
    assert v.subs(0) == Fraction(125, 8)
