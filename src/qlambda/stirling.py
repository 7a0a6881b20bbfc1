"""Stirling-number families over Q[l]: triangles by three independent routes.

Every family is defined by a basis expansion (its defining route); the
degenerate second kind also has an additive recurrence, and every family
can be cross-checked against coefficient extraction from its exponential
generating function.  Values are polynomials in the degeneracy parameter;
the classical families come out as degree-0 polynomials.

``triangle`` memoizes whole triangles per (family id, r) in the current
``tables.Tables``; completed triangles are immutable, so concurrent
readers share one object.  A ``Tables`` built with faults adds each fault
to its own triangles only, so the identity suite can prove it notices a
corrupted table without touching anyone else's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .factorials import BasisId, basis_poly, to_basis
from .gfun import classical_exp, classical_log1p, degen_exp, degen_log1p, degen_log_one_minus, inv_one_minus
from .kernel import QL, LambdaPoly, TruncSeries
from .tables import current

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


@dataclass(frozen=True)
class StirlingFamily:
    id: str
    r: int = 0

    def __post_init__(self):
        if self.id not in FAMILY_IDS:
            raise ValueError(f"unknown Stirling family {self.id!r}")
        if self.r < 0:
            raise ValueError("r must be >= 0")
        if self.r and self.id not in R_FAMILY_IDS:
            raise ValueError(f"family {self.id} does not take r != 0")


# (basis of the degree-n polynomial being expanded, basis expanded into).
# The shift r lands on the source, matching the defining expansions.
_BASIS_ROUTES = {
    S1_CLASSICAL: ("falling", "monomial"),
    S2_CLASSICAL: ("monomial", "falling"),
    S1_DEGENERATE: ("falling", "degen-falling"),
    S2_DEGENERATE: ("degen-falling", "falling"),
    S1R_DEGENERATE: ("falling", "degen-falling"),
    S2R_DEGENERATE: ("degen-falling", "falling"),
    S1R_UNSIGNED_DEGENERATE: ("rising", "degen-rising"),
    S1_UNSIGNED_DEGENERATE: ("rising", "degen-rising"),
}


@dataclass(frozen=True)
class Triangle:
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


def _recurrence_rows(nmax: int) -> tuple[tuple[LambdaPoly, ...], ...]:
    """Second-kind degenerate triangle from its additive recurrence."""
    lam = LambdaPoly.param()
    rows: list[tuple[LambdaPoly, ...]] = [(LambdaPoly.one(),)]
    for n in range(nmax):
        prev = rows[n]
        nxt = []
        for k in range(n + 2):
            acc = LambdaPoly.zero()
            if 1 <= k <= n + 1:
                acc = acc + prev[k - 1]
            if k <= n:
                acc = acc + (LambdaPoly.const(k) - lam * n) * prev[k]
            nxt.append(acc)
        rows.append(tuple(nxt))
    return tuple(rows)


def stirling2_by_recurrence(n: int, k: int) -> LambdaPoly:
    """Degenerate second kind via the row recurrence (seed 1 at (0,0))."""
    if n < 0 or k < 0:
        raise ValueError("negative index in recurrence")
    if k > n:
        return LambdaPoly.zero()
    return _recurrence_rows(n)[n][k]


def stirling_by_basis(family: StirlingFamily, n: int, k: int) -> LambdaPoly:
    """Entry via the family's defining basis expansion."""
    if n < 0:
        raise ValueError("negative index")
    if k > n or k < 0:
        return LambdaPoly.zero()
    return _row_by_basis(family, n)[k]


def _gf_parts(family: StirlingFamily, order: int):
    """(base, extra) with column k generated by (1/k!) base^k * extra."""
    fid, r = family.id, family.r
    if fid == S1_CLASSICAL:
        return classical_log1p(order), None
    if fid == S2_CLASSICAL:
        return classical_exp(order) - TruncSeries.one(QL, order), None
    if fid == S1_DEGENERATE:
        return degen_log1p(order), None
    if fid == S2_DEGENERATE:
        return degen_exp(order) - TruncSeries.one(QL, order), None
    if fid == S1R_DEGENERATE:
        one_plus_t = TruncSeries.one(QL, order) + TruncSeries.var(QL, order)
        return degen_log1p(order), one_plus_t.pow(r)
    if fid == S2R_DEGENERATE:
        return degen_exp(order) - TruncSeries.one(QL, order), degen_exp(order, r)
    # unsigned first kind, with or without r
    base = -degen_log_one_minus(order)
    extra = inv_one_minus(order, r) if r else None
    return base, extra


def triangle_by_gf(family: StirlingFamily, nmax: int) -> Triangle:
    """Whole triangle from the generating functions (cross-check route)."""
    base, extra = _gf_parts(family, nmax)
    rows = [[LambdaPoly.zero()] * (n + 1) for n in range(nmax + 1)]
    power = TruncSeries.one(QL, nmax) if extra is None else extra
    for k in range(nmax + 1):
        if k:
            power = power * base
        for n in range(k, nmax + 1):
            rows[n][k] = power.coeff(n) * Fraction(math.factorial(n), math.factorial(k))
    return Triangle(family, nmax, tuple(tuple(r) for r in rows))


def unsigned_first_kind(n: int, k: int) -> LambdaPoly:
    """Unsigned degenerate first kind: the rising factorial in the degenerate rising basis."""
    return stirling_value(StirlingFamily(S1_UNSIGNED_DEGENERATE), n, k)


def _build_rows(family: StirlingFamily, nmax: int) -> tuple[tuple[LambdaPoly, ...], ...]:
    if family.id == S2_DEGENERATE:
        return _recurrence_rows(nmax)
    return tuple(_row_by_basis(family, n) for n in range(nmax + 1))


def triangle(family: StirlingFamily, nmax: int) -> Triangle:
    """All entries 0 <= k <= n <= nmax by the family's cheapest route (memoized)."""
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    tables = current()
    key = (family.id, family.r)
    with tables.lock:
        cached = tables.triangles.get(key)
        if cached is None or cached.nmax < nmax:
            rows = [list(row) for row in _build_rows(family, nmax)]
            for (fid, fr, n, k), delta in tables.faults.items():
                if (fid, fr) == key and n <= nmax and 0 <= k <= n:
                    rows[n][k] = rows[n][k] + delta
            built = Triangle(family, nmax, tuple(map(tuple, rows)))
            cached = tables.remember(tables.triangles, key, built)
    if cached.nmax == nmax:
        return cached
    return Triangle(family, nmax, cached.rows[: nmax + 1])


def stirling_value(family: StirlingFamily, n: int, k: int) -> LambdaPoly:
    """Triangle entry through the memoized triangle (the route other modules use)."""
    if n < 0:
        raise ValueError("negative index")
    if k < 0 or k > n:
        return LambdaPoly.zero()
    return triangle(family, n).entry(n, k)
