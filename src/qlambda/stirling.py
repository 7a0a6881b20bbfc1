"""Stirling-number families over Q[l]: eight triangles, one route each.

Every family is defined by a basis expansion.  Five are built that way;
three by Carlitz's row recurrence S(n+1, k) = S(n, k-1) + (a k + b n + r)
S(n, k), with (a, b) = (1, -l) for S2-degenerate and (-l, 1) for S1- and
S1r-unsigned-degenerate.  The basis expansions of those three and the
generating-function route live in ``tests/routes.py`` as independent
oracles.  Values are polynomials in l; the classical families are
degree-0 polynomials.

``triangle`` builds a whole triangle each call, a pure function of its
arguments and the current ``tables.Tables``' faults, which it adds to the
rows it builds, so the identity suite can prove it notices a corrupted
table without touching anyone else's.  ``stirling_value`` reads the run's
triangle inside a suite run (``tables.shared``).  ``s2r_rows`` takes the
S2r recurrence at a number for l, faults included, for the checks that
decide at points of l.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .factorials import BasisId, basis_poly, to_basis
from .kernel import LambdaPoly
from .tables import current, shared

S1_CLASSICAL = "S1-classical"
S2_CLASSICAL = "S2-classical"
S1_DEGENERATE = "S1-degenerate"
S2_DEGENERATE = "S2-degenerate"
S1R_DEGENERATE = "S1r-degenerate"
S2R_DEGENERATE = "S2r-degenerate"
S1R_UNSIGNED_DEGENERATE = "S1r-unsigned-degenerate"
S1_UNSIGNED_DEGENERATE = "S1-unsigned-degenerate"

FAMILY_IDS = (
    S1_CLASSICAL,
    S2_CLASSICAL,
    S1_DEGENERATE,
    S2_DEGENERATE,
    S1R_DEGENERATE,
    S2R_DEGENERATE,
    S1R_UNSIGNED_DEGENERATE,
    S1_UNSIGNED_DEGENERATE,
)
R_FAMILY_IDS = (S1R_DEGENERATE, S2R_DEGENERATE, S1R_UNSIGNED_DEGENERATE)


class StirlingFamily(namedtuple("StirlingFamily", "id r")):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, id: str, r: int = 0):
        if id not in FAMILY_IDS:
            raise ValueError(f"unknown Stirling family {id!r}")
        if r < 0:
            raise ValueError("r must be >= 0")
        if r and id not in R_FAMILY_IDS:
            raise ValueError(f"family {id} does not take r != 0")
        return super().__new__(cls, id, r)


# (basis of the degree-n polynomial being expanded, basis expanded into) of the five
# families built by basis conversion; the shift r lands on the source, matching the
# defining expansions.
_BASIS_ROUTES = {
    S1_CLASSICAL: ("falling", "monomial"),
    S2_CLASSICAL: ("monomial", "falling"),
    S1_DEGENERATE: ("falling", "degen-falling"),
    S1R_DEGENERATE: ("falling", "degen-falling"),
    S2R_DEGENERATE: ("degen-falling", "falling"),
}


# (a, b) of the row recurrence, each as (c0, c1) for c0 + c1 l.
_RECURRENCES = {
    S2_DEGENERATE: ((1, 0), (0, -1)),
    S1R_UNSIGNED_DEGENERATE: ((0, -1), (1, 0)),
    S1_UNSIGNED_DEGENERATE: ((0, -1), (1, 0)),
}


class Triangle(NamedTuple):
    """Lower-triangular table of one family; absent (k > n) entries are zero."""

    family: StirlingFamily
    nmax: int
    rows: tuple[tuple[LambdaPoly, ...], ...]

    def entry(self, n: int, k: int) -> LambdaPoly:
        if n < 0 or n > self.nmax:
            raise ValueError(f"row {n} outside triangle (nmax={self.nmax})")
        if k < 0 or k > n:
            return LambdaPoly.zero()
        return self.rows[n][k]


def _row_by_basis(family: StirlingFamily, n: int) -> tuple[LambdaPoly, ...]:
    source_kind, target_kind = _BASIS_ROUTES[family.id]
    source = basis_poly(BasisId(source_kind, family.r), n)
    coeffs = to_basis(source, BasisId(target_kind))
    row = list(coeffs) + [LambdaPoly.zero()] * (n + 1 - len(coeffs))
    return tuple(row)


def _rows_by_recurrence(family_id: str, r: int, nmax: int, at=None) -> tuple:
    """Rows 0..nmax from S(n+1, k) = S(n, k-1) + (a k + b n + r) S(n, k), S(0, 0) = 1, in Q[l]
    or at the number ``at`` for l."""
    (a0, a1), (b0, b1) = _RECURRENCES[family_id]
    rows = [(LambdaPoly.one() if at is None else 1,)]
    for n in range(nmax):
        prev = rows[n]
        scaled = [(LambdaPoly((a0 * k + b0 * n + r, a1 * k + b1 * n)) if at is None
                   else a0 * k + b0 * n + r + (a1 * k + b1 * n) * at) * s
                  for k, s in enumerate(prev)]
        rows.append((scaled[0], *(prev[k - 1] + scaled[k] for k in range(1, n + 1)), prev[n]))
    return tuple(rows)


def unsigned_first_kind(n: int, k: int) -> LambdaPoly:
    """Unsigned degenerate first kind: the rising factorial in the degenerate rising basis."""
    return stirling_value(StirlingFamily(S1_UNSIGNED_DEGENERATE), n, k)


def _build_rows(family: StirlingFamily, nmax: int) -> tuple[tuple[LambdaPoly, ...], ...]:
    if family.id in _RECURRENCES:
        return _rows_by_recurrence(family.id, family.r, nmax)
    return tuple(_row_by_basis(family, n) for n in range(nmax + 1))


def _faulted(rows, key, at=None) -> tuple:
    """``rows`` of triangle ``key`` with each fault of the current ``Tables`` in them added,
    at the number ``at`` for l when given."""
    rows = [list(row) for row in rows]
    for (fid, fr, n, k), delta in current().faults.items():
        if (fid, fr) == key and n < len(rows) and 0 <= k <= n:
            rows[n][k] = rows[n][k] + (delta if at is None else delta.subs(at))
    return tuple(map(tuple, rows))


def s2r_rows(r: int, nmax: int, at) -> tuple:
    """Rows 0..nmax of the S2r triangle at the number ``at`` for l, by Carlitz's recurrence
    S(n+1, k) = S(n, k-1) + (k - l n + r) S(n, k), S2-degenerate's with r; faults are added
    once every row is built, as ``triangle`` adds them, so none is carried into later rows."""
    return _faulted(_rows_by_recurrence(S2_DEGENERATE, r, nmax, at), (S2R_DEGENERATE, r), at)


def triangle(family: StirlingFamily, nmax: int) -> Triangle:
    """All entries 0 <= k <= n <= nmax by the family's route, the current faults added."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    return Triangle(family, nmax, _faulted(_build_rows(family, nmax), (family.id, family.r)))


def stirling_value(family: StirlingFamily, n: int, k: int) -> LambdaPoly:
    """Triangle entry, off the run's triangle inside a suite run, else off one to row n."""
    if n < 0:
        raise ValueError("negative index")
    if k < 0 or k > n:
        return LambdaPoly.zero()
    return shared(("triangle", *family), triangle, family, n).entry(n, k)
