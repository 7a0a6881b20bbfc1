"""Named truncated series used throughout the package.

Each series is written down coefficient by coefficient, from the
factorial products or a binomial; coefficients live in Q[l] unless a
ring is asked for.  The Bell/Fubini series in Q[l][x] come from their
triangles (``fubini_bell.family_series``), not from these.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .factorials import degen_falling
from .kernel import QL, LambdaPoly, TruncSeries


def degen_exp(order: int, exponent=1) -> TruncSeries:
    """Degenerate exponential with the given (integer/rational/poly) exponent.

    Coefficient of t^n is the degenerate falling factorial of the exponent
    of length n, divided by n!.  Exponent 1 gives the plain degenerate
    exponential; the limit l -> 0 is the classical exponential.
    """
    return TruncSeries(QL, (degen_falling(exponent, n) / math.factorial(n)
                            for n in range(order + 1)))


def degen_log1p(order: int) -> TruncSeries:
    """Degenerate logarithm of 1 + t (the compositional inverse series).

    Coefficient of t^n, n >= 1, is (l-1)(l-2)...(l-n+1)/n!; the constant
    term is 0.  Each falling product is the one before times l - n + 1.
    """
    coeffs, top = [LambdaPoly.zero()], LambdaPoly.one()
    for n in range(1, order + 1):
        coeffs.append(top / math.factorial(n))
        top = top * LambdaPoly((-n, 1))
    return TruncSeries(QL, coeffs[:order + 1])  # no terms at all for order < 0


def degen_log_one_minus(order: int) -> TruncSeries:
    """Degenerate logarithm of 1 - t (substitute -t into :func:`degen_log1p`)."""
    base = degen_log1p(order)
    return TruncSeries(QL, tuple(-c if n % 2 else c for n, c in enumerate(base.coeffs)))


def classical_exp(order: int, ring=QL) -> TruncSeries:
    """The ordinary exponential series over the requested coefficient ring."""
    return TruncSeries(ring, (ring.coerce(Fraction(1, math.factorial(n)))
                              for n in range(order + 1)))


def inv_one_minus(order: int, power: int = 1, ring=QL) -> TruncSeries:
    """(1 - t)^(-power), written down: the coefficient of t^n is C(n + power - 1, n)."""
    if power < 0:
        raise ValueError("power must be >= 0")
    if power == 0:
        return TruncSeries.one(ring, order)
    return TruncSeries(ring, (math.comb(n + power - 1, n) for n in range(order + 1)))
