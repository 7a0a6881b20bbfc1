"""Degenerate harmonic and hyperharmonic numbers.

The degenerate harmonic number of index n is a polynomial of degree n-1
in the degeneracy parameter; each summand is kept in the polynomial form
(-1)^(k-1) (l-1)(l-2)...(l-k+1) / k!, so no formal division by the
parameter ever happens and the classical value is a plain substitution
at 0.  Hyperharmonic numbers are the iterated partial sums of the
harmonic row: one value as one binomial convolution, a row of them as
r - 1 prefix sums.  Nothing is stored: a row is built per call, except
that ``degen_hyperharmonic`` reads the run's row inside a suite run
(``tables.shared``).  Their generating function, -log_l(1-t)
summed r times, is the independent cross-check.  At an integer l the
same summands, scaled by lcm(1..n), give the row in ints.
"""

from __future__ import annotations

import itertools
import math

from .gfun import degen_log_one_minus
from .kernel import QL, LambdaPoly, TruncSeries
from .tables import shared


def degen_harmonic(n: int) -> LambdaPoly:
    """Degenerate harmonic number; 0 at n = 0."""
    return harmonic_row(n)[n]


def harmonic_row(nmax: int, at=None) -> list:
    """H_0..H_nmax, summand k of H_n being summand k - 1 times (k - 1 - l)/k: in Q[l]; at the
    number ``at`` for l, each times lcm(1..nmax), in ints, where each step is an exact ``//``."""
    if nmax < 0:
        raise ValueError("harmonic index must be >= 0")
    row = ([LambdaPoly.zero(), LambdaPoly.one()] if at is None
           else [0, math.lcm(*range(1, nmax + 1))])
    while len(row) <= nmax:
        k, summand = len(row), row[-1] - row[-2]
        row.append(row[-1] + (summand * LambdaPoly((k - 1, -1)) / k if at is None
                              else summand * (k - 1 - at) // k))
    return row[:nmax + 1]


def degen_hyperharmonic(n: int, r: int) -> LambdaPoly:
    """Degenerate hyperharmonic number of order r >= 1.

    Order r sums the harmonic row r - 1 times, which for r >= 2 is the
    binomial convolution sum_{j=1..n} C(n - j + r - 2, r - 2) H_j.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    if r < 1:
        raise ValueError("order must be >= 1")
    row = shared(("harmonic", None), harmonic_row, n)
    if r == 1:
        return row[n]
    return sum((row[j] * math.comb(n - j + r - 2, r - 2) for j in range(1, n + 1)),
               LambdaPoly.zero())


def running_sums(values, times: int) -> list:
    """``values`` prefix-summed ``times`` times: their series' coefficients over (1-t)^times."""
    for _ in range(times):
        values = itertools.accumulate(values)
    return list(values)


def hyperharmonic_row(nmax: int, r: int) -> list[LambdaPoly]:
    """Order-r hyperharmonic numbers of index 0..nmax: the harmonic row prefix-summed r - 1
    times."""
    if r < 1:
        raise ValueError("order must be >= 1")
    return running_sums(harmonic_row(nmax), r - 1)  # raises for nmax < 0


def harmonic_gf(r: int, order: int) -> TruncSeries:
    """Generating series of the order-r hyperharmonic numbers: -log_l(1-t) summed r times."""
    if r < 1:
        raise ValueError("order must be >= 1")
    return TruncSeries(QL, running_sums((-c for c in degen_log_one_minus(order).coeffs), r))
