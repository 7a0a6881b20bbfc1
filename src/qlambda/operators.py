"""The two-power-series identity and the checks that read its g-free tables.

At f = x^n the paper's general identity for two power series says, per
coefficient j, that a sum_k S_r(n, k) j(j-1)...(j-k+1) of degenerate
r-Stirling entries with integer weights equals the degenerate falling
factorial (j+r)_{n,l} (the main form), and likewise for a shifted form
through the r-th derivative.  ``theorem2_blocks`` tabulates both sides
of both forms once per r, free of any g, and three checks compare their
entries instead of weighted products:

* ``theorem1_check``: the degenerate Euler operator and its derivative
  expansion (both in ``tests/routes.py``, as its oracle) send x^j to one
  monomial, whose coefficients are entry ``[m][j]`` of the main (plain
  mode) or shifted tables.
* ``theorem2_check``: coefficient j of each side is g_j times
  sum_n a_n entry ``[n][j]``.  Q[l] has no zero divisors, so the sides
  agree exactly when g_j = 0 or the two sums agree; g_j multiplies only a
  counterexample.
* ``identities.check_thm8``: its coefficient n is H_n times a main entry.

Whatever the triangle holds, entry ``[n][j]`` is of degree <= n in j, and
a nonzero polynomial of degree <= m has at most m roots, so each check
compares only the first m + 1 indices it would read (all when fewer exist).
The checks read a suite run's tables (``tables.shared``), else build
their own; nothing is memoized, so a fault is always seen by the next check.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import stirling
from .factorials import degen_falling_table
from .kernel import LambdaPoly, TruncSeries, XPoly
from .report import CheckReport, first_mismatch, make_report
from .tables import shared

Table = tuple[tuple[LambdaPoly, ...], ...]
_ZERO = LambdaPoly.zero()

_MODES = ("plain", "shifted")


class OperatorSpec(namedtuple("OperatorSpec", "m r mode")):
    """Degenerate-factorial length m, power-of-x prefactor r, and mode."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    def __new__(cls, m: int, r: int = 0, mode: str = "plain"):
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if m < 0 or r < 0:
            raise ValueError("m and r must be >= 0")
        if mode == "shifted" and m < r:
            raise ValueError("shifted mode requires m >= r")
        return super().__new__(cls, m, r, mode)


class Theorem2Blocks(namedtuple("Theorem2Blocks", "r order degmax main shifted")):
    """The g-free tables of the two-series identity for one r, to index ``order``.

    At f = x^n, coefficient j of each side of each form is g_j times an
    entry ``[n][j]`` of a (lhs, rhs) pair of tables, n <= ``degmax`` and
    j <= ``order``.  ``main``: sum_k {n+r over k+r}_r j(j-1)...(j-k+1)
    against (j+r)_{n,l}.  ``shifted``: sum_{k >= r} {n over k}_r
    j(j-1)...(j-k+1) against (j)_{n-r,l} j(j-1)...(j-r+1), both zero for
    n < r or j < r.  Since (j)_k = (j)_r (j-r)_{k-r}, each shifted entry is
    j(j-1)...(j-r+1) times the main entry ``[n-r][j-r]``.
    """

    __slots__ = ()

    def __repr__(self):
        return f"Theorem2Blocks(r={self.r!r}, order={self.order!r}, degmax={self.degmax!r})"


def theorem2_blocks(r: int, order: int, degmax: int) -> Theorem2Blocks:
    """The tables ``theorem2_check`` reads besides f and g, for every f of degree <= degmax,
    on the run's falling table inside a run."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if degmax < 0:
        raise ValueError("degmax must be >= 0")
    tri = stirling.triangle(stirling.StirlingFamily(stirling.S2R_DEGENERATE, r), degmax)
    falling = shared("falling", degen_falling_table, order + r, degmax)
    js, ns = range(order + 1), range(degmax + 1)
    main = (tuple(tuple(sum((tri.entry(n, k) * math.perm(j, k) for k in range(min(n, j) + 1)),
                            _ZERO) for j in js) for n in ns),
            tuple(tuple(falling[j + r][n] for j in js) for n in ns))

    def shift(table: Table) -> Table:  # j(j-1)...(j-r+1) times main entry [n - r][j - r]
        return tuple(tuple(_ZERO if n < r or j < r else table[n - r][j - r] * math.perm(j, r)
                           for j in js) for n in ns)
    return Theorem2Blocks(r, order, degmax, main, tuple(map(shift, main)))


def theorem1_check(m: int, r: int, mode: str, jmax: int = 10) -> CheckReport:
    """Operator equality on the monomial basis x^j, j <= jmax, one (m, r, mode).

    Plain mode applies the length-m operator to x^r x^j, giving
    (j+r)_{m,l} x^{j+r}; shifted mode applies the length-(m-r) operator to
    x^r times the r-th derivative of x^j, giving (j)_{m-r,l} j(j-1)...(j-r+1)
    x^j.  The Stirling-weighted derivative expansion gives the same
    monomial with the table's other entry ``[m][j]``; j <= min(m, jmax)
    certify every j.
    """
    OperatorSpec(m, r, mode)
    top = min(m, jmax)
    params = {"m": m, "r": r, "mode": mode, "jmax": jmax}
    blocks = shared(("blocks", r), theorem2_blocks, r, top, m)
    mix, falling = blocks.main if mode == "plain" else blocks.shifted
    shift = r if mode == "plain" else 0
    for j in range(top + 1):
        bad = first_mismatch(falling[m][j], mix[m][j],
                             f"operand x^{j}: coefficient of x^{j + shift}")
        if bad is not None:
            return make_report("thm1", params, bad)
    return make_report("thm1", params, None)


def _times(w: LambdaPoly, v: LambdaPoly) -> LambdaPoly:
    """w * v, with a weight 1 taking v as it is."""
    return v if w == 1 else w * v


def theorem2_check(f: XPoly, g: TruncSeries, r: int, order: int) -> CheckReport:
    """Both forms of the two-series identity, coefficientwise to ``order``.

    Requires g tracked to at least ``order``.  The first deg f + 1 indices
    with g_j != 0 certify every j.
    """
    if g.order < order:
        raise ValueError(f"g must be tracked to >= {order} (got {g.order})")
    js = [j for j, gj in enumerate(g.coeffs[:order + 1]) if not gj.is_zero()][:f.degree + 1]
    blocks = shared(("blocks", r), theorem2_blocks, r, js[-1] if js else 0, max(f.degree, 0))
    params = {"r": r, "order": order, "deg_f": f.degree}
    terms = [(n, f.coeff(n)) for n in range(f.degree + 1) if not f.coeff(n).is_zero()]

    def weighted(table, j):  # sum_n a_n table[n][j]; one term is read as it is
        parts = [_times(a, table[n][j]) for n, a in terms]
        return parts[0] if len(parts) == 1 else sum(parts, _ZERO)
    for label, (lhs, rhs) in (("main form", blocks.main), ("shifted form", blocks.shifted)):
        for j in js:
            left, right = weighted(lhs, j), weighted(rhs, j)
            if left != right:
                gj = g.coeffs[j]
                bad = first_mismatch(_times(gj, left), _times(gj, right),
                                     f"{label}: coefficient of t^{j}")
                return make_report("thm2", params, bad)
    return make_report("thm2", params, None)
