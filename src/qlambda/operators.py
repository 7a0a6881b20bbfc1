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
the degree of a fault if higher, so the checks compare the tables at the
numbers l = 0..D (``l_points``), in Python ints, and build them in Q[l]
only to name the first divergent coefficient (``ql_blocks``).  The checks
read a suite run's tables (``tables.shared``), else build their own;
nothing is memoized, so a fault is always seen by the next check.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import stirling
from .factorials import degen_falling_table
from .kernel import LambdaPoly, TruncSeries, XPoly
from .report import CheckReport, first_mismatch, make_report
from .tables import current, run, shared

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
    j(j-1)...(j-r+1) times the main entry ``[n-r][j-r]``.  Entries are in
    Q[l], or the values at one number for l.
    """

    __slots__ = ()

    def __repr__(self):
        return f"Theorem2Blocks(r={self.r!r}, order={self.order!r}, degmax={self.degmax!r})"


def theorem2_blocks(r: int, order: int, degmax: int, at=None) -> Theorem2Blocks:
    """The tables ``theorem2_check`` reads besides f and g, for every f of degree <= degmax,
    on the run's falling table inside a run; at the number ``at`` for l when given, from the
    S2r recurrence taken there (``stirling.s2r_rows``)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if degmax < 0:
        raise ValueError("degmax must be >= 0")
    if at is None:
        rows = stirling.triangle(stirling.StirlingFamily(stirling.S2R_DEGENERATE, r), degmax).rows
    else:
        rows = stirling.s2r_rows(r, degmax, at)
    zero = _ZERO if at is None else 0
    falling = shared(("falling", at), degen_falling_table, order + r, degmax, at)
    js, ns = range(order + 1), range(degmax + 1)
    main = (tuple(tuple(sum((rows[n][k] * math.perm(j, k) for k in range(min(n, j) + 1)), zero)
                        for j in js) for n in ns),
            tuple(tuple(falling[j + r][n] for j in js) for n in ns))

    def shift(table: Table) -> Table:  # j(j-1)...(j-r+1) times main entry [n - r][j - r]
        return tuple(tuple(zero if n < r or j < r else table[n - r][j - r] * math.perm(j, r)
                           for j in js) for n in ns)
    return Theorem2Blocks(r, order, degmax, main, tuple(map(shift, main)))


def l_points(degree: int, extra: int = 0) -> range:
    """l = 0..D, D = max(``degree``, the degree of each fault of the current ``Tables``) +
    ``extra``: tables whose compared values are of degree <= D in l agree in Q[l] when they
    agree at these D + 1 points."""
    faults = current().faults.values()
    return range(max([degree, *(delta.degree for delta in faults)]) + extra + 1)


def point_blocks(r: int, order: int, degmax: int, extra: int = 0) -> list:
    """``theorem2_blocks`` of r at each l of ``l_points(degmax, extra)``, the run's inside a run."""
    return [shared(("blocks", r, at), theorem2_blocks, r, order, degmax, at)
            for at in l_points(degmax, extra)]


def ql_blocks(r: int, order: int, degmax: int) -> Theorem2Blocks:
    """``theorem2_blocks`` of r in Q[l], built in a one-check plan: they name a counterexample."""
    plan = [(("falling", None), degen_falling_table, order + r, degmax, None),
            (("blocks", r, None), theorem2_blocks, r, order, degmax, None)]
    with run(plan):
        return shared(("blocks", r, None), theorem2_blocks, r, order, degmax, None)


def entries_agree(r: int, order: int, m: int, js, form: str = "main") -> bool:
    """Whether the two tables of ``form`` agree at entries ``[m][j]``, j in ``js``, at every
    point of ``l_points(m)``: of degree <= m in l, faults aside, they then agree in Q[l]."""
    return all(lhs[m][j] == rhs[m][j] for lhs, rhs in (getattr(blocks, form)
               for blocks in point_blocks(r, order, m)) for j in js)


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
    form = "main" if mode == "plain" else "shifted"
    if entries_agree(r, top, m, range(top + 1), form):
        return make_report("thm1", params, None)
    mix, falling = getattr(ql_blocks(r, top, m), form)
    shift = r if mode == "plain" else 0
    bad = next(filter(None, (first_mismatch(falling[m][j], mix[m][j],
                                            f"operand x^{j}: coefficient of x^{j + shift}")
                             for j in range(top + 1))), None)
    return make_report("thm1", params, bad)


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

    def first_difference(blocks, coeffs):  # (label, j, lhs, rhs) of the first sums that differ
        for label, (lhs, rhs) in (("main form", blocks.main), ("shifted form", blocks.shifted)):
            for j, left, right in zip(js, sums(lhs, coeffs), sums(rhs, coeffs)):
                if left != right:
                    return label, j, left, right
        return None
    extra = max((a.degree for _, a in terms), default=0)
    points = point_blocks(r, width, degmax, extra)
    if all(first_difference(blocks, [(n, a.subs(at)) for n, a in terms]) is None
           for at, blocks in enumerate(points)):
        return make_report("thm2", params, None)
    found = first_difference(ql_blocks(r, width, degmax), terms)
    if found is None:
        return make_report("thm2", params, None)
    label, j, left, right = found
    gj = g.coeffs[j]
    bad = first_mismatch(_times(gj, left), _times(gj, right), f"{label}: coefficient of t^{j}")
    return make_report("thm2", params, bad)
