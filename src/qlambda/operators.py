"""The degenerate Euler operator and the two-power-series identity.

The operator acts diagonally on monomials: in plain mode it sends the
x^k term of f to (k+r)_{m,l} x^(k+r) (the operand being x^r f); shifted
mode first takes the r-fold derivative.  ``rhs_theorem1`` assembles the
equivalent expansion through second-kind r-Stirling triangles and
repeated differentiation (one derivative per term), so the two must agree
coefficientwise -- that equality is the first operator identity the suite
verifies.  The values (a)_{m,l} come from one ``degen_falling_table``,
which a caller may pass to every check it runs.

``theorem2_check`` verifies the general two-series identity (both
forms) for a polynomial f against a truncated series g; f is restricted
to polynomials so both sides are finite-order computable.  At f = x^n,
coefficient j of each side of each form is g_j times a value that does
not depend on g: a sum_k S_r(n, k) j(j-1)...(j-k+1) of triangle entries
with integer weights, or a degenerate falling factorial.
``theorem2_blocks`` tabulates those values once per (r, order), so a
caller checking many f against many g builds them once per r; a check
weights them by the a_n of f and then by g_j.  Nothing is memoized, so
a triangle fault is always seen by the next check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from . import stirling
from .factorials import degen_falling_table
from .kernel import QL, LambdaPoly, TruncSeries, XPoly
from .report import CheckReport, first_mismatch, make_report

Operand = Union[XPoly, TruncSeries]
Table = tuple[tuple[LambdaPoly, ...], ...]

_MODES = ("plain", "shifted")


@dataclass(frozen=True)
class OperatorSpec:
    """Degenerate-factorial length m, power-of-x prefactor r, and mode."""

    m: int
    r: int = 0
    mode: str = "plain"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.m < 0 or self.r < 0:
            raise ValueError("m and r must be >= 0")
        if self.mode == "shifted" and self.m < self.r:
            raise ValueError("shifted mode requires m >= r")


def euler_apply(spec: OperatorSpec, f: Operand, falling=None) -> Operand:
    """Apply the operator to f (polynomial, or series in x over Q[l]).

    Plain mode realizes the action on x^r f; shifted mode realizes the
    length-(m-r) operator on x^r times the r-th derivative of f.  On a
    series input the tracked order rises by r (plain) or is kept (shifted).
    ``falling`` is ``degen_falling_table(>= r + deg, >= m)``; built when not given.
    """
    if spec.mode == "shifted":
        g = f
        for _ in range(spec.r):
            g = g.derivative() if isinstance(g, XPoly) else g.derive()
        length = spec.m - spec.r
    else:
        g = f
        length = spec.m
    falling = falling or degen_falling_table(len(g.coeffs) - 1 + spec.r, length)
    # x^r times the diagonal action; zero coefficients skip their factorial.
    coeffs = [QL.zero] * spec.r + [c if c.is_zero() else c * falling[k + spec.r][length]
                                   for k, c in enumerate(g.coeffs)]
    return XPoly(coeffs) if isinstance(g, XPoly) else TruncSeries(QL, coeffs)


def rhs_theorem1(spec: OperatorSpec, f: Operand) -> Operand:
    """The Stirling-weighted derivative expansion equal to ``euler_apply``.

    The l-th term reads the l-th derivative of f, taken from the (l-1)-th.
    """
    fam = stirling.StirlingFamily(stirling.S2R_DEGENERATE, spec.r)
    poly = isinstance(f, XPoly)
    out = XPoly.zero() if poly else TruncSeries.zero(
        QL, f.order + (spec.r if spec.mode == "plain" else 0))
    d = f
    for l in range(spec.m + 1):
        if l:
            d = d.derivative() if poly else d.derive()
        if spec.mode == "plain":
            weight, shift = stirling.stirling_value(fam, spec.m, l), l + spec.r
        elif l >= spec.r:
            weight, shift = stirling.stirling_value(fam, spec.m - spec.r, l - spec.r), l
        else:
            continue
        out = out + (XPoly((QL.zero,) * shift + (d * weight).coeffs) if poly
                     else d.scale(weight).shift(shift))
    return out


def theorem1_check(m: int, r: int, mode: str, jmax: int = 10, falling=None) -> CheckReport:
    """Operator equality on the monomial basis x^j, j <= jmax, one (m, r, mode).

    ``falling`` is ``degen_falling_table(>= jmax + r, >= m)``; built when not given.
    """
    spec = OperatorSpec(m, r, mode)
    params = {"m": m, "r": r, "mode": mode, "jmax": jmax}
    falling = falling or degen_falling_table(jmax + r, m)
    for j in range(jmax + 1):
        f = XPoly.monomial(1, j)
        lhs = euler_apply(spec, f, falling)
        rhs = rhs_theorem1(spec, f)
        bad = first_mismatch(lhs, rhs, f"operand x^{j}")
        if bad is not None:
            return make_report("thm1", params, bad)
    return make_report("thm1", params, None)


@dataclass(frozen=True)
class Theorem2Blocks:
    """The g-free tables of the two-series identity for one (r, order).

    At f = x^n, coefficient j of each side of each form is g_j times an
    entry ``[n][j]`` of a (lhs, rhs) pair of tables, n <= ``degmax`` and
    j <= ``order``.  ``main``: sum_k {n+r over k+r}_r j(j-1)...(j-k+1)
    against (j+r)_{n,l}.  ``shifted``: sum_{k >= r} {n over k}_r
    j(j-1)...(j-k+1) against (j)_{n-r,l} j(j-1)...(j-r+1), both zero for
    n < r.
    """

    r: int
    order: int
    degmax: int
    main: tuple[Table, Table]
    shifted: tuple[Table, Table]


def theorem2_blocks(r: int, order: int, degmax: int, falling=None) -> Theorem2Blocks:
    """Everything ``theorem2_check`` needs besides f and g, for every f of degree <= degmax.

    ``falling`` is ``degen_falling_table(>= order + r, >= degmax)``; built when not given.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if degmax < 0:
        raise ValueError("degmax must be >= 0")
    tri = stirling.triangle(stirling.StirlingFamily(stirling.S2R_DEGENERATE, r), degmax)
    falling = falling or degen_falling_table(order + r, degmax)
    js, zero = range(order + 1), LambdaPoly.zero()

    def mix(n, low):  # sum_{k >= low} S_r(n - low, k - low) j(j-1)...(j-k+1), per j
        return tuple(sum((tri.entry(n - low, k - low) * math.perm(j, k)
                          for k in range(low, min(n, j) + 1)), zero) for j in js)
    main = (tuple(mix(n, 0) for n in range(degmax + 1)),
            tuple(tuple(falling[j + r][n] for j in js) for n in range(degmax + 1)))
    shifted = (tuple(mix(n, r) for n in range(degmax + 1)),
               tuple(tuple(falling[j][n - r] * math.perm(j, r) if n >= r else zero for j in js)
                     for n in range(degmax + 1)))
    return Theorem2Blocks(r, order, degmax, main, shifted)


def _times(w: LambdaPoly, v: LambdaPoly) -> LambdaPoly:
    """w * v, with a weight 1 taking v as it is."""
    return v if w == 1 else w * v


def theorem2_check(f: XPoly, g: TruncSeries, r: int, order: int,
                   blocks: Theorem2Blocks | None = None) -> CheckReport:
    """Both forms of the two-series identity, coefficientwise to ``order``.

    Requires g tracked to at least order + deg f, so that every g^(k) the
    identity reads is itself tracked to ``order``.  ``blocks`` is
    ``theorem2_blocks(r, order, degmax)`` for some degmax >= deg f; it is
    built here when not given.
    """
    degree = max(f.degree, 0)
    if g.order < order + degree:
        raise ValueError(f"g must be tracked to >= {order + degree} (got {g.order})")
    if blocks is None:
        blocks = theorem2_blocks(r, order, degree)
    elif (blocks.r, blocks.order) != (r, order):
        raise ValueError("blocks were built for a different r or order")
    if f.degree > blocks.degmax:
        raise ValueError(f"blocks cover degree <= {blocks.degmax}, f has degree {f.degree}")
    params = {"r": r, "order": order, "deg_f": f.degree}
    terms = [(n, f.coeff(n)) for n in range(f.degree + 1) if not f.coeff(n).is_zero()]
    zero = LambdaPoly.zero()

    def side(table):  # coefficient j is g_j sum_n a_n table[n][j]
        return TruncSeries(QL, (_times(g.coeffs[j], sum((_times(a, table[n][j]) for n, a in terms),
                                                         zero)) for j in range(order + 1)))
    for label, (lhs, rhs) in (("main form", blocks.main), ("shifted form", blocks.shifted)):
        bad = first_mismatch(side(lhs), side(rhs), label)
        if bad is not None:
            return make_report("thm2", params, bad)
    return make_report("thm2", params, None)
