"""Bell- and Fubini-type polynomial families over Q[l][x].

Each family is a finite weighted sum over a Stirling triangle (Bell
families unweighted, Fubini families with the k! weight), and its
generating series in t has that sum over n! as its t^n coefficient.  Both
read one triangle; a polynomial reads the run's inside a suite run
(``tables.shared``).  The generating-function route (a series reciprocal
or a Bell composition) is a test oracle only.

``rfubini_numbers`` is the package's only numeric (non-symbolic)
computation: a partial sum with a certified geometric tail bound,
summed in integers and returned as an exact rational, never floating point.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from . import stirling
from .kernel import QLX, TruncSeries, XPoly
from .tables import shared

BELL_DEGENERATE = "bell-degenerate"
RBELL_DEGENERATE = "rbell-degenerate"
FUBINI_CLASSICAL = "fubini-classical"
FUBINI_DEGENERATE = "fubini-degenerate"
RFUBINI_DEGENERATE = "rfubini-degenerate"

POLY_FAMILY_IDS = (
    BELL_DEGENERATE,
    RBELL_DEGENERATE,
    FUBINI_CLASSICAL,
    FUBINI_DEGENERATE,
    RFUBINI_DEGENERATE,
)
_R_POLY_FAMILIES = (RBELL_DEGENERATE, RFUBINI_DEGENERATE)


class PolyFamily(namedtuple("PolyFamily", "id r")):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, id: str, r: int = 0):
        if id not in POLY_FAMILY_IDS:
            raise ValueError(f"unknown polynomial family {id!r}")
        if r < 0:
            raise ValueError("r must be >= 0")
        if r and id not in _R_POLY_FAMILIES:
            raise ValueError(f"family {id} does not take r != 0")
        return super().__new__(cls, id, r)


def _triangle_family(family: PolyFamily) -> stirling.StirlingFamily:
    if family.id == FUBINI_CLASSICAL:
        return stirling.StirlingFamily(stirling.S2_CLASSICAL)
    if family.id in (BELL_DEGENERATE, FUBINI_DEGENERATE):
        return stirling.StirlingFamily(stirling.S2_DEGENERATE)
    return stirling.StirlingFamily(stirling.S2R_DEGENERATE, family.r)


def _row_poly(family: PolyFamily, row) -> XPoly:
    """A row of the family's triangle as a polynomial in x; Fubini families carry k!."""
    weighted = family.id in (FUBINI_CLASSICAL, FUBINI_DEGENERATE, RFUBINI_DEGENERATE)
    return XPoly(c * math.factorial(k) if weighted else c for k, c in enumerate(row))


def poly_by_sum(family: PolyFamily, n: int) -> XPoly:
    """Finite Stirling-weighted sum; Fubini families carry the k! weight."""
    if n < 0:
        raise ValueError("index must be >= 0")
    fam = _triangle_family(family)
    return _row_poly(family, shared(("triangle", *fam), stirling.triangle, fam, n).rows[n])


def family_series(family: PolyFamily, order: int) -> TruncSeries:
    """The family's generating series in t: coefficient n is ``poly_by_sum(family, n) / n!``."""
    rows = stirling.triangle(_triangle_family(family), order).rows
    return TruncSeries(QLX, (_row_poly(family, row) / math.factorial(n)
                             for n, row in enumerate(rows)))


def rfubini_numbers(m: int, r: int, lam: Fraction, tol_exponent: int) -> Fraction:
    """Certified partial sum of the weighted geometric series at a rational lam.

    Sums (n+r)_{m,lam} / 2^(n+1) until the remaining tail is provably below
    10^(-tol_exponent); the tail uses |(n+r)_{m,lam}| <= (n+r+|lam|m)^m
    against the geometric factor.  With lam = p/q the sum to n is A_n / (q^m 2^(n+1)),
    A_n = 2 A_{n-1} + prod_j (q(n+r) - j p); the tail test is cleared of denominators too.
    """
    if m < 0 or r < 0:
        raise ValueError("indices must be >= 0")
    if tol_exponent < 0:
        raise ValueError("tolerance exponent must be >= 0")
    p, q = Fraction(lam).as_integer_ratio()
    qm, target, acc = q ** m, 10 ** tol_exponent, 0
    for n in itertools.count():
        acc = 2 * acc + math.prod(q * (n + r) - j * p for j in range(m))
        base = q * (n + 1 + r) + abs(p) * m  # B; the tail past n is below
        slack = 2 * base ** m - (base + q) ** m  # B^(2m) / (q^m 2^(n+1) slack) if slack > 0
        if base ** (2 * m) * target <= qm * slack << (n + 1):  # never true for slack <= 0
            return Fraction(acc, qm << (n + 1))
