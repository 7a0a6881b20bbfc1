"""Factorial-type building blocks and basis conversion for Q[l][x].

Falling factorials in their classical and degenerate forms, and conversion
of an ``XPoly`` from the monomial basis into the monic bases the Stirling
families built by basis conversion take: monomials, falling and degenerate
falling factorials.  Shifted bases like (x+r)_n are obtained by
substituting x -> x+r before expanding, so one conversion engine serves
those five families.  The rising bases live in ``tests/routes.py``, with
the basis expansions of the three families built by recurrence.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .kernel import QL, LambdaPoly, XPoly

BASIS_KINDS = ("monomial", "falling", "degen-falling")

PolyArg = Union[int, Fraction, LambdaPoly, XPoly]


class BasisId(namedtuple("BasisId", "kind shift")):
    """A factorial basis of Q[l][x], optionally shifted by x -> x + shift."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, kind: str, shift: int = 0):
        if kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {kind!r}")
        if shift < 0:
            raise ValueError("basis shift must be >= 0")
        return super().__new__(cls, kind, shift)


def _falling_product(x: PolyArg, n: int, step):
    """Product x (x - step) (x - 2 step) ... with n factors."""
    if n < 0:
        raise ValueError("factorial length must be >= 0")
    base = x if isinstance(x, XPoly) else QL.coerce(x)
    step_el = type(base)._coerce(step)
    out = type(base).one()
    for j in range(n):
        out = out * (base + step_el * -j)
    return out


def classical_falling(x: PolyArg, n: int):
    """x(x-1)...(x-n+1); the empty product is 1."""
    return _falling_product(x, n, 1)


def degen_falling(x: PolyArg, n: int):
    """x(x-l)(x-2l)...(x-(n-1)l), the degenerate falling factorial."""
    return _falling_product(x, n, LambdaPoly.param())


def degen_falling_table(amax: int, mmax: int, at) -> tuple[tuple, ...]:
    """Entry [a][m] is the value of (a)_{m,l} at the number ``at`` for l, for 0 <= a <= amax,
    0 <= m <= mmax; one product each."""
    rows = []
    for a in range(amax + 1):
        row = [1]
        for m in range(mmax):
            row.append(row[-1] * (a - m * at))
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=4096)
def basis_poly(basis: BasisId, k: int) -> XPoly:
    """The k-th basis polynomial (monic of degree k in x)."""
    arg = XPoly.x() + XPoly.const(basis.shift) if basis.shift else XPoly.x()
    if basis.kind == "monomial":
        return XPoly.monomial(1, k) if basis.shift == 0 else arg ** k
    if basis.kind == "falling":
        return classical_falling(arg, k)
    return degen_falling(arg, k)


def to_basis(p: XPoly, basis: BasisId) -> list[LambdaPoly]:
    """Coefficients of p in the given basis, by monic back-substitution.

    Returns exactly deg(p)+1 coefficients (the empty list for p = 0);
    every supported basis is monic in x, so this never fails.
    """
    work = p
    coeffs = [LambdaPoly.zero()] * (p.degree + 1)
    for k in range(p.degree, -1, -1):
        c = work.coeff(k)
        coeffs[k] = c
        if not c.is_zero():
            work = work - basis_poly(basis, k) * c
        if work.degree >= k:
            raise AssertionError("basis back-substitution failed to lower the degree")
    if not work.is_zero():
        raise AssertionError("basis back-substitution left a remainder")
    return coeffs
