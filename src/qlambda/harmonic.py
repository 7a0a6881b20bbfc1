"""Degenerate harmonic and hyperharmonic numbers.

The degenerate harmonic number of index n is a polynomial of degree n-1
in the degeneracy parameter; each summand is kept in the polynomial form
(-1)^(k-1) (l-1)(l-2)...(l-k+1) / k!, so no formal division by the
parameter ever happens and the classical value is a plain substitution
at 0.  Hyperharmonic numbers are the iterated partial sums; their
generating function is the independent cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .factorials import classical_falling
from .gfun import degen_log_one_minus, inv_one_minus
from .kernel import LambdaPoly, TruncSeries
from .tables import MAX_KEYS, current


def degen_harmonic(n: int) -> LambdaPoly:
    """Degenerate harmonic number; 0 at n = 0."""
    if n < 0:
        raise ValueError("harmonic index must be >= 0")
    tables = current()
    with tables.lock:
        row = tables.harmonic
        while len(row) <= n:
            k = len(row)
            summand = classical_falling(LambdaPoly.param() - 1, k - 1) / math.factorial(k)
            summand = summand * ((-1) ** (k - 1))
            row.append(row[k - 1] + summand)
        return row[n]


def degen_hyperharmonic(n: int, r: int) -> LambdaPoly:
    """Degenerate hyperharmonic number of order r >= 1 (iterated partial sums).

    Each row of order 2..r is extended to index n from the row below it,
    so a large r needs no recursion.  The current ``Tables`` keeps the rows
    of order up to ``MAX_KEYS``; higher ones are built for this call only.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    if r < 1:
        raise ValueError("order must be >= 1")
    tables = current()
    with tables.lock:
        degen_harmonic(n)  # extends the order-1 row to index n
        row = tables.harmonic
        for q in range(2, r + 1):
            fresh = [LambdaPoly.zero()]
            lower, row = row, (tables.hyper.setdefault(q, fresh) if q <= MAX_KEYS else fresh)
            for m in range(len(row), n + 1):
                row.append(row[m - 1] + lower[m])
        return row[n]


def harmonic_gf(r: int, order: int) -> TruncSeries:
    """Generating series of the order-r hyperharmonic numbers.

    Assembled from kernel operations as the degenerate logarithm against
    the r-th reciprocal power of 1 - t; the constant term is 0.
    """
    if r < 1:
        raise ValueError("order must be >= 1")
    return (-degen_log_one_minus(order)) * inv_one_minus(order, r)


def classical_harmonic(n: int) -> Fraction:
    """Exact rational harmonic number (0 at n = 0)."""
    if n < 0:
        raise ValueError("harmonic index must be >= 0")
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))
