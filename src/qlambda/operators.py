"""The two-power-series identity and the checks that read its g-free tables.

At f = x^n the paper's general identity for two power series says, per
coefficient j, that a sum_k S_r(n, k) j(j-1)...(j-k+1) of degenerate
r-Stirling entries with integer weights equals the degenerate falling
factorial (j+r)_{n,l} (the main form), and likewise for a shifted form
through the r-th derivative.  ``theorem2_blocks`` tabulates both sides
of both forms once per r, free of any g, and four checks compare their
entries instead of weighted products:

* ``theorem1_check``: the degenerate Euler operator and its derivative
  expansion (both in ``tests/routes.py``, as its oracle) send x^j to one
  monomial, whose coefficients are entry ``[m][j]`` of the main (plain
  mode) or shifted tables.
* ``theorem2_check``: coefficient j of each side is g_j times
  sum_n a_n entry ``[n][j]``.  Q[l] has no zero divisors, so the sides
  agree exactly when g_j = 0 or the two sums agree; g_j multiplies only a
  counterexample.
* ``identities.check_thm8``: its coefficient n is H_n times a main entry,
  and ``identities.check_thm3``'s is a main entry.

Whatever the triangle holds, entry ``[n][j]`` is of degree <= n in j, and
a nonzero polynomial of degree <= m has at most m roots, so each check
compares only the first m + 1 indices it would read (all when fewer exist).
The same argument holds in l: entry ``[n][j]`` is of degree <= n in l, or
the degree of an S2r fault if higher, so the checks compare the tables at the
numbers l = 0..D (``l_points``), in Python ints.  Each side, not only their
difference, is of degree <= D, so its values there fix it: the first
divergent coefficient is named by interpolating both sides into Q[l] from
the values already compared (``first_difference``).  The checks read a
suite run's tables (``tables.shared``), else build their own; nothing is
memoized, so a fault is always seen by the next check.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import stirling
from .factorials import degen_falling_table
from .kernel import LambdaPoly, TruncSeries, XPoly
from .report import CheckReport, first_mismatch, make_report
from .tables import current, shared

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
    j(j-1)...(j-r+1) times the main entry ``[n-r][j-r]``.  Entries are the
    values at one number for l.
    """

    __slots__ = ()

    def __repr__(self):
        return f"Theorem2Blocks(r={self.r!r}, order={self.order!r}, degmax={self.degmax!r})"


def theorem2_blocks(r: int, order: int, degmax: int, at) -> Theorem2Blocks:
    """The tables ``theorem2_check`` reads besides f and g, for every f of degree <= degmax, at
    the number ``at`` for l: from the S2r recurrence taken there (``stirling.s2r_rows``), on the
    run's falling table inside a run."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if degmax < 0:
        raise ValueError("degmax must be >= 0")
    rows = stirling.s2r_rows(r, degmax, at)
    falling = shared(("falling", at), degen_falling_table, order + r, degmax, at)
    js, ns = range(order + 1), range(degmax + 1)
    main = (tuple(tuple(sum(rows[n][k] * math.perm(j, k) for k in range(min(n, j) + 1))
                        for j in js) for n in ns),
            tuple(tuple(falling[j + r][n] for j in js) for n in ns))

    def shift(table):  # j(j-1)...(j-r+1) times main entry [n - r][j - r]
        return tuple(tuple(0 if n < r or j < r else table[n - r][j - r] * math.perm(j, r)
                           for j in js) for n in ns)
    return Theorem2Blocks(r, order, degmax, main, tuple(map(shift, main)))


def l_points(degree: int, extra: int = 0, family: str | None = None) -> range:
    """l = 0..D, D = max(``degree``, the degree of each fault the current ``Tables`` adds to the
    triangles of ``family``) + ``extra``: values of degree <= D in l agree in Q[l] when they
    agree at these D + 1 points, and are fixed by their values there.  Values that read no
    triangle name no ``family``, so no fault raises their D."""
    degrees = [delta.degree for (fid, *_), delta in current().faults.items() if fid == family]
    return range(max([degree, *degrees]) + extra + 1)


def first_difference(sides, degree: int, extra: int = 0, family: str | None = None):
    """None if the value lists ``sides(at)`` = (lhs, rhs) agree at each l of ``l_points(degree,
    extra, family)``; else (i, lhs_i, rhs_i) at the first index where they differ, each
    interpolated into Q[l] from its values there: exact where each side, not only their
    difference, has degree <= D."""
    points = [sides(at) for at in l_points(degree, extra, family)]
    for i, pairs in enumerate(zip(*(zip(*point) for point in points))):
        if any(left != right for left, right in pairs):
            return i, *(LambdaPoly.interpolate(values) for values in zip(*pairs))
    return None


def entry_difference(r: int, order: int, m: int, js, form: str = "main"):
    """``first_difference`` of the two tables of ``form`` (mix, falling) at entries [m][j], j in
    ``js``, of degree <= m in l, or an S2r fault's: None, or (j, mix entry, falling entry)."""
    found = first_difference(lambda at: [[t[m][j] for j in js] for t in getattr(
        shared(("blocks", r, at), theorem2_blocks, r, order, m, at), form)], m,
        family=stirling.S2R_DEGENERATE)
    return found and (js[found[0]], *found[1:])


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
    found = entry_difference(r, top, m, range(top + 1), "main" if mode == "plain" else "shifted")
    j, shift = found and found[0], r if mode == "plain" else 0
    bad = found and first_mismatch(found[2], found[1],
                                   f"operand x^{j}: coefficient of x^{j + shift}")
    return make_report("thm1", {"m": m, "r": r, "mode": mode, "jmax": jmax}, bad)


def _times(w, v):
    """w * v, with a weight 1 taking v as it is."""
    return v if w == 1 else w * v


def theorem2_check(f: XPoly, g: TruncSeries, r: int, order: int) -> CheckReport:
    """Both forms of the two-series identity, coefficientwise to ``order``.

    Requires g tracked to at least ``order``.  The first deg f + 1 indices
    with g_j != 0 certify every j.  The sums compared are of degree <= deg f
    in l, faults aside, plus the largest degree of f's coefficients.
    """
    if g.order < order:
        raise ValueError(f"g must be tracked to >= {order} (got {g.order})")
    js = [j for j, gj in enumerate(g.coeffs[:order + 1]) if not gj.is_zero()][:f.degree + 1]
    width, degmax = js[-1] if js else 0, max(f.degree, 0)
    params = {"r": r, "order": order, "deg_f": f.degree}
    terms = [(n, f.coeff(n)) for n in range(f.degree + 1) if not f.coeff(n).is_zero()]

    def sums(table, coeffs):  # sum_n a_n table[n][j] for j in js; a lone weight 1 reads a row
        if len(coeffs) == 1 and coeffs[0][1] == 1:
            return [table[coeffs[0][0]][j] for j in js]
        return [sum(_times(a, table[n][j]) for n, a in coeffs) for j in js]

    def sides(at):  # the sums of each side at l = at, for j in js, main form then shifted
        blocks = shared(("blocks", r, at), theorem2_blocks, r, width, degmax, at)
        coeffs = [(n, a.subs(at)) for n, a in terms]
        return [[v for form in (blocks.main, blocks.shifted) for v in sums(form[side], coeffs)]
                for side in (0, 1)]
    found = first_difference(sides, degmax, max((a.degree for _, a in terms), default=0),
                             stirling.S2R_DEGENERATE)
    if found is None:
        return make_report("thm2", params, None)
    i, left, right = found
    label, j = ("main form", "shifted form")[i // len(js)], js[i % len(js)]
    gj = g.coeffs[j]
    bad = first_mismatch(_times(gj, left), _times(gj, right), f"{label}: coefficient of t^{j}")
    return make_report("thm2", params, bad)
