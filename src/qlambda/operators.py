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
to polynomials so both sides are finite-order computable.  The g-side
work (shifted derivatives, Stirling mixes, falling-factorial values)
depends only on (g, r, order); ``theorem2_blocks`` builds it once so a
caller checking many f against one g can pass it to every check.  A mix's
coefficient j is g_j times sum_k S_r(n, k) j(j-1)...(j-k+1): integer
multiples of the triangle entries first, then one product with g_j.
Nothing is memoized, so a triangle fault is always seen by the next check.
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
    """The g-side work of the two-series identity for one (g, r, order).

    ``derivs[k]`` is x^k g^(k), ``main[n]`` is sum_k {n+r over k+r}_r x^k g^(k)
    and ``shifted[m]`` is sum_{k >= r} {m over k}_r x^k g^(k) (zero for
    m < r); all are tracked to ``order`` and cover polynomials f of degree
    <= ``degmax``.  ``falling[a][m]`` is the degenerate falling factorial
    (a)_{m,l} for a <= order + r.
    """

    g: TruncSeries
    r: int
    order: int
    degmax: int
    derivs: tuple[TruncSeries, ...]
    main: tuple[TruncSeries, ...]
    shifted: tuple[TruncSeries, ...]
    falling: tuple[tuple[LambdaPoly, ...], ...]


def theorem2_blocks(g: TruncSeries, r: int, order: int, degmax: int,
                    falling=None) -> Theorem2Blocks:
    """Everything ``theorem2_check`` needs from g, for every f of degree <= degmax.

    Requires g tracked to at least order + degmax, so that every g^(k)
    it uses is itself tracked to ``order``.  ``falling`` is
    ``degen_falling_table(>= order + r, degmax)``; built when not given.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if degmax < 0:
        raise ValueError("degmax must be >= 0")
    if g.order < order + degmax:
        raise ValueError(f"g must be tracked to >= {order + degmax} (got {g.order})")
    # The x^n coefficient of x^k g^(k) is n(n-1)...(n-k+1) g_n, zero for k > n.
    derivs = tuple(TruncSeries(QL, (g.coeffs[n] * math.perm(n, k) for n in range(order + 1)))
                   for k in range(degmax + 1))
    tri = stirling.triangle(stirling.StirlingFamily(stirling.S2R_DEGENERATE, r), degmax)

    def mix(weights):  # sum_k w_k x^k g^(k): coefficient j is g_j sum_k w_k perm(j, k)
        return TruncSeries(QL, (g.coeffs[j] * sum((w * math.perm(j, k) for k, w in weights
                                                   if k <= j), QL.zero)
                                for j in range(order + 1)))
    main = tuple(mix([(k, tri.entry(n, k)) for k in range(n + 1)]) for n in range(degmax + 1))
    shifted = tuple(mix([(k, tri.entry(m - r, k - r)) for k in range(r, m + 1)])
                    for m in range(degmax + 1))
    falling = (falling or degen_falling_table(order + r, degmax))[: order + r + 1]
    return Theorem2Blocks(g, r, order, degmax, derivs, main, shifted, falling)


def theorem2_check(f: XPoly, g: TruncSeries, r: int, order: int,
                   blocks: Theorem2Blocks | None = None) -> CheckReport:
    """Both forms of the two-series identity, coefficientwise to ``order``.

    ``blocks`` is ``theorem2_blocks(g, r, order, degmax)`` for some
    degmax >= deg f; it is built here when not given.
    """
    if blocks is None:
        blocks = theorem2_blocks(g, r, order, max(f.degree, 0))
    elif (blocks.r, blocks.order) != (r, order) or blocks.g != g:
        raise ValueError("blocks were built for a different g, r or order")
    if f.degree > blocks.degmax:
        raise ValueError(f"blocks cover degree <= {blocks.degmax}, f has degree {f.degree}")
    params = {"r": r, "order": order, "deg_f": f.degree}
    falling = blocks.falling

    # Main form: sum_n a_n (sum_k {...} x^k g^(k)) == sum_n b_n f_l(n+r) x^n.
    lhs = TruncSeries.zero(QL, order)
    for n in range(f.degree + 1):
        a = f.coeff(n)
        if not a.is_zero():  # a monomial's coefficient 1 takes the block as it is
            lhs = lhs + (blocks.main[n] if a == 1 else blocks.main[n].scale(a))
    rhs_coeffs = []
    for n in range(order + 1):
        value = LambdaPoly.zero()
        for m_ in range(f.degree + 1):
            a = f.coeff(m_)
            if not a.is_zero():
                value = value + (falling[n + r][m_] if a == 1 else a * falling[n + r][m_])
        rhs_coeffs.append(g.coeffs[n] * value)
    rhs = TruncSeries(QL, rhs_coeffs)
    bad = first_mismatch(lhs, rhs, "main form")
    if bad is not None:
        return make_report("thm2", params, bad)

    # Shifted form: only the a_m with m >= r participate.
    lhs2 = TruncSeries.zero(QL, order)
    for m_ in range(r, f.degree + 1):
        a = f.coeff(m_)
        if not a.is_zero():
            lhs2 = lhs2 + (blocks.shifted[m_] if a == 1 else blocks.shifted[m_].scale(a))
    rhs2_coeffs = [QL.zero] * (order + 1)
    for n in range(r, order + 1):
        value = LambdaPoly.zero()
        for m_ in range(r, f.degree + 1):
            a = f.coeff(m_)
            if not a.is_zero():
                value = value + (falling[n][m_ - r] if a == 1 else a * falling[n][m_ - r])
        rhs2_coeffs[n] = g.coeffs[n] * value * math.perm(n, r)
    rhs2 = TruncSeries(QL, rhs2_coeffs)
    bad = first_mismatch(lhs2, rhs2, "shifted form")
    return make_report("thm2", params, bad)
