"""Second routes to values the package computes, kept as test oracles.

The package has one route per job.  Each function here reaches one of
those values another way: the Bell/Fubini series and polynomials and the
Stirling triangles through their generating functions (a series
reciprocal, a Bell composition or powers of a series), a polynomial back
from its coefficients in a factorial basis, and the degenerate transform
of a polynomial one monomial at a time, and both sides of the
two-series identity from the derivatives of g.  The binomial series
(1-t)^-(k+1) is multiplied out as a product or a convolution, where the
package takes running sums; the weight C(k - l, k) multiplies each
summed value, where the package takes one factor (k - l)/k per sum; the
shifted two-series tables are summed term by term, where the package
scales the main ones; thm4's left side is taken by ``XPoly`` products and
derivatives, where the package writes its coefficients; and the numeric
r-Fubini sum runs over ``Fraction``s, where the package sums integers.  ``every_index_reports``
runs thm1, thm2, thm3 and thm8 comparing every index to the order, where
the package compares the first m + 1.  They use the kernel's
arithmetic and the named series of ``gfun``, never ``fubini_bell``'s
sums, and no triangle except through single ``stirling_value`` entries
(so a faulted ``Tables`` reaches both routes), so agreement with the
package is a cross-check.  No command shifts or differentiates a series
or a polynomial, so ``shift``, ``derive`` and ``derivative``, which the
oracles take, are plain functions here rather than kernel methods.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from qlambda import identities, stirling
from qlambda.factorials import BasisId, basis_poly, classical_falling, degen_falling
from qlambda.fubini_bell import (BELL_DEGENERATE, FUBINI_CLASSICAL, RBELL_DEGENERATE,
                                 PolyFamily)
from qlambda.gfun import classical_exp, degen_exp, degen_log1p, degen_log_one_minus, inv_one_minus
from qlambda.harmonic import degen_harmonic, degen_hyperharmonic, harmonic_gf
from qlambda.kernel import QL, QLX, LambdaPoly, SeriesOrderError, TruncSeries, XPoly
from qlambda.operators import OperatorSpec, theorem2_blocks
from qlambda.report import Counterexample, first_mismatch, make_report


def shift(series: TruncSeries, k: int) -> TruncSeries:
    """``series`` times t^k; the tracked order rises by k."""
    if k < 0:
        raise SeriesOrderError("negative shift")
    return TruncSeries(series.ring, (series.ring.zero,) * k + series.coeffs)


def derive(series: TruncSeries) -> TruncSeries:
    """Termwise derivative; the tracked order drops by exactly one."""
    if series.order < 1:
        raise SeriesOrderError("cannot differentiate an order-0 series")
    return TruncSeries(series.ring, (series.coeffs[n] * n for n in range(1, series.order + 1)))


def derivative(f: XPoly) -> XPoly:
    """Formal d/dx."""
    return XPoly(f.coeffs[k] * k for k in range(1, len(f.coeffs)))


def _lift(series: TruncSeries) -> TruncSeries:
    """A Q[l]-coefficient series read inside Q[l][x]."""
    return TruncSeries(QLX, (XPoly.const(c) for c in series.coeffs))


def series_by_gf(family: PolyFamily, order: int) -> TruncSeries:
    """The family's generating series by composition or reciprocal, not from a triangle.

    Bell families: exp(x (e_l(t) - 1)); Fubini families: 1 / (1 - x (e_l(t) - 1));
    the r-families times e_l^r(t).  The classical family uses e^t for e_l(t).
    """
    x = XPoly.x()
    one = TruncSeries.one(QLX, order)
    if family.id == FUBINI_CLASSICAL:
        e_minus_1 = classical_exp(order, QLX) - one
    else:
        e_minus_1 = _lift(degen_exp(order)) - one
    if family.id in (BELL_DEGENERATE, RBELL_DEGENERATE):
        series = classical_exp(order, QLX).compose(e_minus_1.scale(x))
    else:
        series = (one - e_minus_1.scale(x)).reciprocal()
    if family.r:
        series = series * _lift(degen_exp(order, family.r))
    return series


def poly_by_gf(family: PolyFamily, n: int, order: int) -> XPoly:
    """n! times the t^n coefficient of the family's generating series."""
    if n < 0:
        raise ValueError("index must be >= 0")
    if order < n:
        raise ValueError(f"order {order} < n {n}")
    return series_by_gf(family, order).coeff(n) * math.factorial(n)


def classical_log1p(order: int) -> TruncSeries:
    """log(1+t) with rational coefficients embedded in Q[l]."""
    coeffs = [LambdaPoly.zero()]
    for n in range(1, order + 1):
        coeffs.append(LambdaPoly.const(Fraction((-1) ** (n - 1), n)))
    return TruncSeries(QL, coeffs)


def _gf_parts(family: stirling.StirlingFamily, order: int):
    """(base, extra) with column k generated by (1/k!) base^k * extra."""
    fid, r = family.id, family.r
    if fid == stirling.S1_CLASSICAL:
        return classical_log1p(order), None
    if fid == stirling.S2_CLASSICAL:
        return classical_exp(order) - TruncSeries.one(QL, order), None
    if fid == stirling.S1_DEGENERATE:
        return degen_log1p(order), None
    if fid == stirling.S2_DEGENERATE:
        return degen_exp(order) - TruncSeries.one(QL, order), None
    if fid == stirling.S1R_DEGENERATE:
        one_plus_t = TruncSeries.one(QL, order) + TruncSeries.var(QL, order)
        return degen_log1p(order), one_plus_t.pow(r)
    if fid == stirling.S2R_DEGENERATE:
        return degen_exp(order) - TruncSeries.one(QL, order), degen_exp(order, r)
    # unsigned first kind, with or without r
    base = -degen_log_one_minus(order)
    extra = inv_one_minus(order, r) if r else None
    return base, extra


def triangle_by_gf(family: stirling.StirlingFamily, nmax: int) -> stirling.Triangle:
    """Whole triangle from the generating functions."""
    base, extra = _gf_parts(family, nmax)
    rows = [[LambdaPoly.zero()] * (n + 1) for n in range(nmax + 1)]
    power = TruncSeries.one(QL, nmax) if extra is None else extra
    for k in range(nmax + 1):
        if k:
            power = power * base
        for n in range(k, nmax + 1):
            rows[n][k] = power.coeff(n) * Fraction(math.factorial(n), math.factorial(k))
    return stirling.Triangle(family, nmax, tuple(tuple(r) for r in rows))


def from_basis(coeffs, basis: BasisId) -> XPoly:
    """Evaluate the linear combination sum(c_k * basis_k)."""
    out = XPoly.zero()
    for k, c in enumerate(coeffs):
        lp = c if isinstance(c, LambdaPoly) else LambdaPoly.const(c)
        if not lp.is_zero():
            out = out + basis_poly(basis, k) * lp
    return out


def degen_transform(f: XPoly) -> XPoly:
    """Replace each monomial a_n x^n by a_n times the degenerate falling factorial."""
    out = XPoly.zero()
    for n in range(f.degree + 1):
        a = f.coeff(n)
        if not a.is_zero():
            out = out + degen_falling(XPoly.x(), n) * a
    return out


def degen_transform_value(f: XPoly, arg: int) -> LambdaPoly:
    """The transformed polynomial evaluated at an integer argument."""
    out = LambdaPoly.zero()
    for n in range(f.degree + 1):
        a = f.coeff(n)
        if not a.is_zero():
            out = out + a * degen_falling(arg, n)
    return out


def theorem2_sides(f: XPoly, g: TruncSeries, r: int, order: int):
    """((lhs, rhs) of the main form, (lhs, rhs) of the shifted form), tracked to ``order``.

    The left sides sum the Stirling-weighted x^k g^(k), each derivative
    taken from the previous one; the right sides weight g_j by the
    degenerate transform of f, the shifted one through x^r times an r-th
    derivative.  Requires g tracked to at least order + deg f.
    """
    fam = stirling.StirlingFamily(stirling.S2R_DEGENERATE, r)
    zero = TruncSeries.zero(QL, order)
    d, xg = g, []  # xg[k] is x^k g^(k)
    for k in range(f.degree + 1):
        if k:
            d = derive(d)
        xg.append(shift(d, k).truncate(order))
    terms = [(n, f.coeff(n)) for n in range(f.degree + 1) if not f.coeff(n).is_zero()]
    lhs, lhs2 = zero, zero
    for n, a in terms:
        for k in range(n + 1):
            lhs = lhs + xg[k].scale(stirling.stirling_value(fam, n, k) * a)
            if n >= r and k >= r:
                lhs2 = lhs2 + xg[k].scale(stirling.stirling_value(fam, n - r, k - r) * a)
    rhs = TruncSeries(QL, (g.coeffs[j] * sum((a * degen_falling(j + r, n) for n, a in terms),
                                             LambdaPoly.zero()) for j in range(order + 1)))
    rhs2 = zero
    if f.degree >= r:
        h = TruncSeries(QL, (g.coeffs[j] * sum((a * degen_falling(j, n - r) for n, a in terms
                                                if n >= r), LambdaPoly.zero())
                             for j in range(order + r + 1)))
        for _ in range(r):
            h = derive(h)
        rhs2 = shift(h, r).truncate(order)
    return (lhs, rhs), (lhs2, rhs2)


def shifted_tables_by_sums(r: int, order: int, degmax: int):
    """``theorem2_blocks(r, order, degmax).shifted`` entry by entry: [n][j] is
    sum_{k >= r} S_r(n - r, k - r) j(j-1)...(j-k+1) on the left and (j)_{n-r,l}
    j(j-1)...(j-r+1) on the right, both zero for n < r."""
    fam = stirling.StirlingFamily(stirling.S2R_DEGENERATE, r)
    js, ns, zero = range(order + 1), range(degmax + 1), LambdaPoly.zero()
    lhs = tuple(tuple(sum((stirling.stirling_value(fam, n - r, k - r) * math.perm(j, k)
                           for k in range(r, min(n, j) + 1)), zero) for j in js) for n in ns)
    rhs = tuple(tuple(zero if n < r else degen_falling(j, n - r) * math.perm(j, r) for j in js)
                for n in ns)
    return lhs, rhs


def euler_apply(spec: OperatorSpec, f):
    """The degenerate Euler operator on f (polynomial, or series in x over Q[l]).

    Plain mode sends the x^k term of f to (k+r)_{m,l} x^(k+r), the action
    on x^r f; shifted mode applies the length-(m-r) operator to x^r times
    the r-th derivative of f.  On a series the tracked order rises by r
    (plain) or is kept (shifted).
    """
    poly, g, length = isinstance(f, XPoly), f, spec.m
    if spec.mode == "shifted":
        for _ in range(spec.r):
            g = derivative(g) if poly else derive(g)
        length = spec.m - spec.r
    coeffs = [QL.zero] * spec.r + [c if c.is_zero() else c * degen_falling(k + spec.r, length)
                                   for k, c in enumerate(g.coeffs)]
    return XPoly(coeffs) if poly else TruncSeries(QL, coeffs)


def rhs_theorem1(spec: OperatorSpec, f):
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
            d = derivative(d) if poly else derive(d)
        if spec.mode == "plain":
            weight, shift_by = stirling.stirling_value(fam, spec.m, l), l + spec.r
        elif l >= spec.r:
            weight, shift_by = stirling.stirling_value(fam, spec.m - spec.r, l - spec.r), l
        else:
            continue
        out = out + (XPoly((QL.zero,) * shift_by + (d * weight).coeffs) if poly
                     else shift(d.scale(weight), shift_by))
    return out


def degen_log1p_by_falling(order: int) -> TruncSeries:
    """log_l(1+t) with each coefficient's falling product (l-1)...(l-n+1) taken from scratch."""
    coeffs = [LambdaPoly.zero()]
    for n in range(1, order + 1):
        coeffs.append(classical_falling(LambdaPoly.param() - 1, n - 1) / math.factorial(n))
    return TruncSeries(QL, coeffs)


def harmonic_gf_by_product(r: int, order: int) -> TruncSeries:
    """-log_l(1-t) times the series of (1-t)^-r, as one series product."""
    return (-degen_log_one_minus(order)) * inv_one_minus(order, r)


def gen_binomial(top, k: int) -> LambdaPoly:
    """Binomial coefficient with a polynomial top: top(top-1)...(top-k+1)/k!."""
    if k < 0:
        raise ValueError("binomial lower index must be >= 0")
    return classical_falling(top, k) / math.factorial(k)


def shifted_binomial(k: int) -> LambdaPoly:
    """C(k - l, k), as a generalized binomial."""
    return gen_binomial(LambdaPoly([k, -1]), k)


def _bracket(k: int, log: TruncSeries) -> TruncSeries:
    """H_k - C(k - l, k) log_l(1-t), at the order of ``log``."""
    return TruncSeries.const(QL, degen_harmonic(k), log.order) - log.scale(shifted_binomial(k))


def summed_brackets_by_product(order: int, kmax: int) -> list:
    """thm6's and thm8's summed brackets H_k C(n + k, k) - C(k - l, k) L_{k+1}(n), k <= kmax,
    to ``order``: L_{k+1} is log_l(1-t) summed k + 1 times, -``harmonic_gf(k + 1, order)``,
    and C(k - l, k) multiplies each of its coefficients."""
    return [tuple(degen_harmonic(k) * math.comb(n + k, k) + shifted_binomial(k) * c
                  for n, c in enumerate(harmonic_gf(k + 1, order).coeffs))
            for k in range(kmax + 1)]


def harmonic_sums_by_product(nmax: int, kmax: int) -> list:
    """cor7's left sides: [k][n] = C(k - l, k) H^(k+1)_n, n <= nmax, k <= kmax, each the
    binomial times one hyperharmonic number."""
    return [[shifted_binomial(k) * degen_hyperharmonic(n, k + 1) for n in range(nmax + 1)]
            for k in range(kmax + 1)]


def thm4_lhs_by_derivatives(f: XPoly, n: int) -> XPoly:
    """thm4's left side x f' + x (x f)' - l n f, by ``XPoly`` products and derivatives."""
    x = XPoly.x()
    return x * derivative(f) + x * derivative(x * f) - f * (LambdaPoly.param() * n)


def harmonic_terms_by_product(order: int, kmax: int) -> list[TruncSeries]:
    """thm8's T_k = t^k (1-t)^-(k+1) bracket_k, k = 0..kmax, each as one series product."""
    log = degen_log_one_minus(order)
    return [shift(inv_one_minus(order - k, k + 1), k) * _bracket(k, log)
            for k in range(kmax + 1)]


def thm6_closed_by_convolution(k: int, order: int) -> TruncSeries:
    """Theorem 6's closed form k! bracket_k (1-t)^-(k+1), convolved with C(i + k, k)."""
    bracket, fact = _bracket(k, degen_log_one_minus(order)).coeffs, math.factorial(k)
    return TruncSeries(QL, (sum((bracket[n - i] * (fact * math.comb(i + k, k))
                                 for i in range(n + 1)), QL.zero) for n in range(order + 1)))


def rfubini_numbers_by_fractions(m: int, r: int, lam, tol_exponent: int) -> Fraction:
    """The certified partial sum of (n+r)_{m,lam} / 2^(n+1), summed and bounded in ``Fraction``s.

    The tail past n is below base^m (1/2)^(n+2) / (1 - ratio), base = n + 1 + r + |lam| m and
    ratio = ((base + 1) / base)^m / 2, once ratio < 1.
    """
    lam = Fraction(lam)
    target, slack = Fraction(1, 10 ** tol_exponent), abs(lam) * m
    partial, half_pow, n = Fraction(0), Fraction(1, 2), 0  # half_pow = (1/2)^(n+1)
    while True:
        term = Fraction(1)
        for j in range(m):
            term *= n + r - j * lam
        partial += term * half_pow
        base = n + 1 + r + slack
        ratio = ((base + 1) / base) ** m / 2
        if ratio < 1 and base ** m * (half_pow / 2) / (1 - ratio) <= target:
            return partial
        n += 1
        half_pow /= 2


def _thm2_every_index(f: XPoly, g: TruncSeries, order: int, blocks):
    """Theorem 2's first counterexample for f over every j <= order with g_j != 0."""
    terms = [(n, f.coeff(n)) for n in range(f.degree + 1) if not f.coeff(n).is_zero()]
    for label, tables in (("main form", blocks.main), ("shifted form", blocks.shifted)):
        for j, gj in enumerate(g.coeffs[:order + 1]):
            left, right = (sum((a * t[n][j] for n, a in terms), LambdaPoly.zero())
                           for t in tables)
            if not gj.is_zero() and left != right:
                return first_mismatch(gj * left, gj * right, f"{label}: coefficient of t^{j}")
    return None


def _thm2_first_failure(fs, label: str, g: TruncSeries, order: int, blocks):
    for i, f in enumerate(fs):
        bad = _thm2_every_index(f, g, order, blocks)
        if bad is not None:
            return Counterexample(f"{label.format(i)}: {bad.location}", bad.lhs, bad.rhs)
    return None


def every_index_reports(ids, bounds, seed: int) -> list:
    """The thm1, thm2, thm3 (no numeric sums) and thm8 reports of ``run_suite`` in the current
    ``Tables``, comparing every index to jmax or the order, sorted as ``run_suite`` sorts.

    thm1 and thm2 read full-width ``theorem2_blocks``; thm3 and thm8 take their series from
    single triangle values and ``degen_falling``, thm8's terms as series products.
    """
    b, out = bounds, []
    if "thm1" in ids:
        for r in range(min(b.thm1_mmax, b.thm1_rmax) + 1):
            blocks = theorem2_blocks(r, b.thm1_jmax, b.thm1_mmax)
            for m in range(r, b.thm1_mmax + 1):
                for mode in ("plain", "shifted"):
                    mix, falling = blocks.main if mode == "plain" else blocks.shifted
                    shift = r if mode == "plain" else 0
                    bad = next(filter(None, (
                        first_mismatch(falling[m][j], mix[m][j],
                                       f"operand x^{j}: coefficient of x^{j + shift}")
                        for j in range(b.thm1_jmax + 1))), None)
                    out.append(make_report("thm1", {"m": m, "r": r, "mode": mode,
                                                    "jmax": b.thm1_jmax}, bad))
    if "thm2" in ids:
        rng = random.Random(seed)
        polys = [identities._random_poly(rng, b.thm2_degmax) for _ in range(b.thm2_trials)]
        blocks = [theorem2_blocks(r, b.thm2_order, b.thm2_degmax) for r in range(b.thm2_rmax + 1)]
        monomials = [XPoly.monomial(1, n) for n in range(b.thm2_degmax + 1)]
        for name in ("exp", "geometric", "harmonic"):
            g = identities._named_g(name, b.thm2_order)
            for r, block in enumerate(blocks):
                bad = _thm2_first_failure(monomials, "monomial x^{}", g, b.thm2_order, block)
                if bad is not None:
                    bad = _thm2_first_failure(polys, "trial {}", g, b.thm2_order, block) or bad
                out.append(make_report("thm2", {"g": name, "r": r, "order": b.thm2_order,
                                                "trials": b.thm2_trials, "seed": seed}, bad))
    if "thm3" in ids:
        ns = range(b.thm3_order + 1)
        for m in range(b.thm3_mmax + 1):
            for r in range(b.thm3_rmax + 1):
                fam = stirling.StirlingFamily(stirling.S2R_DEGENERATE, r)
                lhs = TruncSeries(QL, (sum((stirling.stirling_value(fam, m, k) * math.perm(n, k)
                                            for k in range(min(m, n) + 1)), LambdaPoly.zero())
                                       for n in ns))
                rhs = TruncSeries(QL, (degen_falling(n + r, m) for n in ns))
                out.append(make_report("thm3", {"m": m, "r": r, "order": b.thm3_order},
                                       first_mismatch(lhs, rhs, "series")))
    if "thm8" in ids:
        ns = range(b.thm8_order + 1)
        terms = harmonic_terms_by_product(b.thm8_order, b.thm8_mmax)
        for m in range(b.thm8_mmax + 1):
            for r in range(b.thm8_rmax + 1):
                fam = stirling.StirlingFamily(stirling.S2R_DEGENERATE, r)
                lhs = TruncSeries(QL, (degen_harmonic(n) * degen_falling(n + r, m) for n in ns))
                rhs = TruncSeries.zero(QL, b.thm8_order)
                for k in range(m + 1):
                    rhs = rhs + terms[k].scale(stirling.stirling_value(fam, m, k)
                                               * math.factorial(k))
                out.append(make_report("thm8", {"m": m, "r": r, "order": b.thm8_order},
                                       first_mismatch(lhs, rhs, "series")))
    return sorted(out, key=lambda rep: (rep.check_id, json.dumps(dict(rep.params),
                                                                 sort_keys=True)))
