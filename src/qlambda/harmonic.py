"""Degenerate harmonic and hyperharmonic numbers.

The degenerate harmonic number of index n is a polynomial of degree n-1
in the degeneracy parameter; each summand is kept in the polynomial form
(-1)^(k-1) (l-1)(l-2)...(l-k+1) / k!, so no formal division by the
parameter ever happens and the classical value is a plain substitution
at 0.  Hyperharmonic numbers are the iterated partial sums, read off the
stored harmonic row: one value as one binomial convolution, a row of
them as r - 1 prefix sums.  Their generating function, -log_l(1-t)
summed r times, is the independent cross-check.
"""

from __future__ import annotations

import itertools
import math

from .gfun import degen_log_one_minus
from .kernel import QL, LambdaPoly, TruncSeries
from .tables import current


def degen_harmonic(n: int) -> LambdaPoly:
    """Degenerate harmonic number; 0 at n = 0."""
    if n < 0:
        raise ValueError("harmonic index must be >= 0")
    tables = current()
    with tables.lock:
        row = tables.harmonic
        while len(row) <= n:  # summand k is summand k - 1 times (k - 1 - l) / k
            k = len(row)
            summand = (row[k - 1] - row[k - 2]) * LambdaPoly((k - 1, -1)) / k if k > 1 else 1
            row.append(row[k - 1] + summand)
        return row[n]


def degen_hyperharmonic(n: int, r: int) -> LambdaPoly:
    """Degenerate hyperharmonic number of order r >= 1.

    Order r sums the harmonic row r - 1 times, which for r >= 2 is the
    binomial convolution sum_{j=1..n} C(n - j + r - 2, r - 2) H_j.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    if r < 1:
        raise ValueError("order must be >= 1")
    top = degen_harmonic(n)  # extends the stored row to index n
    if r == 1:
        return top
    row = current().harmonic
    return sum((row[j] * math.comb(n - j + r - 2, r - 2) for j in range(1, n + 1)),
               LambdaPoly.zero())


def running_sums(values, times: int) -> list:
    """``values`` prefix-summed ``times`` times: their series' coefficients over (1-t)^times."""
    for _ in range(times):
        values = itertools.accumulate(values)
    return list(values)


def hyperharmonic_row(nmax: int, r: int) -> list[LambdaPoly]:
    """Order-r hyperharmonic numbers of index 0..nmax: the harmonic row prefix-summed
    r - 1 times, or one convolution per value where 2r > nmax makes that faster."""
    if r < 1:
        raise ValueError("order must be >= 1")
    degen_harmonic(nmax)  # raises for nmax < 0; extends the stored row to index nmax
    if 2 * r > nmax:
        return [degen_hyperharmonic(n, r) for n in range(nmax + 1)]
    return running_sums(current().harmonic[:nmax + 1], r - 1)


def harmonic_gf(r: int, order: int) -> TruncSeries:
    """Generating series of the order-r hyperharmonic numbers: -log_l(1-t) summed r times."""
    if r < 1:
        raise ValueError("order must be >= 1")
    return TruncSeries(QL, running_sums((-c for c in degen_log_one_minus(order).coeffs), r))
