"""Executable identity checks and the verification suite runner.

Each ``check_*`` operation instantiates one identity at concrete indices
and reports equality coefficient-by-coefficient in Q[l] (so a pass
certifies the identity for every value of the degeneracy parameter).
``run_suite`` drives bounded parameter grids over the registered checks
and aggregates deterministic, machine-readable reports.  The two-series
identity is certified on the monomial basis; its seeded random instances
are drawn only to name a counterexample.  thm1, thm2 and thm8 compare
entries of its g-free tables (``operators.theorem2_blocks``), thm8 where
its series has Theorem 6's closed form; they and thm3 compare m + 1
indices, which certify the rest by degree.  A product by 1/(1-x)^(k+1)
is k + 1 running sums.  Each runner builds the series its grid shares
once; one falling table and one set of g-free tables per r, each shifted
binomial C(k - l, k) and each bracket are built once per run.  Nothing
outlives a run.

Check ids: thm1 thm2 thm3 thm4 thm5 thm6 cor7 thm8.
"""

from __future__ import annotations

import json
import math
import random
from contextvars import ContextVar
from fractions import Fraction
from typing import NamedTuple

from . import stirling
from .factorials import degen_falling, degen_falling_table, gen_binomial
from .fubini_bell import RFUBINI_DEGENERATE, PolyFamily, poly_by_sum, rfubini_numbers
from .gfun import classical_exp, degen_log_one_minus, inv_one_minus
from .harmonic import degen_harmonic, degen_hyperharmonic, harmonic_gf, running_sums
from .kernel import QL, LambdaPoly, TruncSeries, XPoly
from .operators import theorem1_check, theorem2_blocks, theorem2_check
from .report import CheckReport, Counterexample, first_mismatch, make_report
from .tables import Tables, current, use

CHECK_IDS = ("thm1", "thm2", "thm3", "thm4", "thm5", "thm6", "cor7", "thm8")
_ORDER_COVERS_M = "order must cover m (and be >= 1)"
_ORDER_COVERS_K = "order must be >= k"
_RUN: ContextVar[dict] = ContextVar("qlambda_run")


def _per_run(key, build):
    """``build()``, kept under ``key`` until the ``run_suite`` run ends; built anew outside one."""
    store = _RUN.get({})
    return store[key] if key in store else store.setdefault(key, build())


def _shifted_binomial(k: int) -> LambdaPoly:
    """C(k - l, k), once per run."""
    return _per_run(("binomial", k), lambda: gen_binomial(LambdaPoly([k, -1]), k))


def _summed_bracket(k: int, log: TruncSeries) -> tuple[LambdaPoly, ...]:
    """bracket_k = H_k - C(k - l, k) log_l(1-x) summed k + 1 times, to the order of ``log``:
    H_k C(n + k, k) - C(k - l, k) [log summed k + 1 times]_n; once per run."""
    def build():
        sums = _per_run(("log sums", log.order), lambda: [log.coeffs])  # [i]: summed i times
        while len(sums) <= k + 1:
            sums.append(running_sums(sums[-1], 1))
        harmonic, binom = degen_harmonic(k), _shifted_binomial(k)
        return tuple(harmonic * math.comb(n + k, k) - binom * c for n, c in enumerate(sums[k + 1]))
    return _per_run(("bracket", k, log.order), build)


class HarmonicTerms:
    """thm8's T_0..T_kmax to ``order``, and if all have the closed form [t^n] T_k = C(n, k) H_n."""

    def __init__(self, order: int, series):
        self.order, self.series = order, tuple(series)
        self.closed_form = all(term.coeffs[n] == degen_harmonic(n) * math.comb(n, k)
                               for k, term in enumerate(self.series) for n in range(order + 1))


def harmonic_terms(order: int, kmax: int) -> HarmonicTerms:
    """T_k = x^k/(1-x)^(k+1) * bracket_k, k = 0..kmax <= order: bracket_k summed k + 1
    times, to order - k, and shifted by k.  thm8's rhs is sum_k w_k T_k."""
    if kmax > order:
        raise ValueError(_ORDER_COVERS_K)
    log = degen_log_one_minus(order)
    return HarmonicTerms(order, (TruncSeries(QL, (QL.zero,) * k + _summed_bracket(k, log)[
        :order - k + 1]) for k in range(kmax + 1)))


def check_thm3(m: int, r: int, order: int, falling=None) -> CheckReport:
    """Rational generating function of the r-Fubini polynomial at x/(1-x).

    Both sides are of degree <= m in n, so n <= m certify every n <= order.
    ``falling`` is ``degen_falling_table(>= m + r, >= m)``.
    """
    if order < max(m, 1):
        raise ValueError(_ORDER_COVERS_M)
    params, ns = {"m": m, "r": r, "order": order}, range(m + 1)
    fpoly = poly_by_sum(PolyFamily(RFUBINI_DEGENERATE, r), m)
    terms = [(k, c) for k, c in enumerate(fpoly.coeffs) if not c.is_zero()]
    # (x/(1-x))^k / (1-x) has the coefficients C(n, k)
    lhs = TruncSeries(QL, (sum((c * math.comb(n, k) for k, c in terms if k <= n), QL.zero)
                           for n in ns))
    falling = falling or degen_falling_table(m + r, m)
    rhs = TruncSeries(QL, (falling[n + r][m] for n in ns))
    return make_report("thm3", params, first_mismatch(lhs, rhs, "series"))


def check_thm3_numeric(m: int, r: int, lam: Fraction, tol_exponent: int) -> CheckReport:
    """Geometric-weighted sum against the polynomial value at x = 1."""
    params = {"kind": "numeric", "m": m, "r": r, "lambda": str(Fraction(lam)),
              "tol_exponent": tol_exponent}
    total = rfubini_numbers(m, r, lam, tol_exponent)
    exact = poly_by_sum(PolyFamily(RFUBINI_DEGENERATE, r), m).eval_x(1).subs(lam)
    if abs(total - exact) <= Fraction(1, 10 ** tol_exponent):
        return make_report("thm3", params, None)
    bad = Counterexample("partial sum vs polynomial value", str(total), str(exact))
    return make_report("thm3", params, bad)


def check_thm4(n: int) -> CheckReport:
    """First-order differential recurrence of the weighted polynomials."""
    if n < 0:
        raise ValueError("n must be >= 0")
    params = {"n": n}
    fam = PolyFamily("fubini-degenerate")
    fn = poly_by_sum(fam, n)
    x = XPoly.x()
    lhs = x * fn.derivative() + x * (x * fn).derivative() - fn * (LambdaPoly.param() * n)
    rhs = poly_by_sum(fam, n + 1)
    return make_report("thm4", params, first_mismatch(lhs, rhs, "polynomials"))


def check_thm5(n: int, r: int) -> CheckReport:
    """Hyperharmonic values as first-column unsigned r-Stirling entries."""
    if n < 1 or r < 1:
        raise ValueError("n and r must be >= 1")
    fam_r, fam_1 = (stirling.StirlingFamily(stirling.S1R_UNSIGNED_DEGENERATE, q) for q in (r, 1))
    split = (LambdaPoly.param() * 2 * stirling.stirling_value(fam_1, n, 2)
             + stirling.unsigned_first_kind(n + 1, 2))
    for lhs, rhs, label in (
            (degen_hyperharmonic(n, r) * math.factorial(n), stirling.stirling_value(fam_r, n, 1),
             "column identity"),
            (degen_harmonic(n) * math.factorial(n), split, "harmonic split"),
            (stirling.stirling_value(fam_1, n, 1), split, "column two-term split")):
        bad = first_mismatch(lhs, rhs, label)
        if bad is not None:
            break
    return make_report("thm5", {"n": n, "r": r}, bad)


def check_thm6(k: int, order: int, blocks=None) -> CheckReport:
    """Closed form of the k-th derivative of the harmonic generating series.

    ``blocks`` is ``(harmonic_gf(1, >= order + k), degen_log_one_minus(order))``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if order < k:
        raise ValueError(_ORDER_COVERS_K)
    params = {"k": k, "order": order}
    g, log = blocks or (harmonic_gf(1, order + k), degen_log_one_minus(order))
    g = g.truncate(order + k).coeffs  # [x^n] g^(k) = g_{n+k} (n+k)!/n!
    derived = TruncSeries(QL, (g[n + k] * math.perm(n + k, k) for n in range(order + 1)))
    # k! bracket_k / (1-x)^(k+1)
    closed = TruncSeries(QL, _summed_bracket(k, log)).scale(math.factorial(k))
    bad = first_mismatch(derived, closed, "derivative series")
    if bad is not None:
        return make_report("thm6", params, bad)
    constant = degen_harmonic(k) * math.factorial(k)
    bad = first_mismatch(derived.coeff(0), constant, "value at 0")
    return make_report("thm6", params, bad)


def check_cor7(n: int, k: int, hyper=None) -> CheckReport:
    """Hyperharmonic/harmonic relation through the shifted binomial; ``hyper`` is H^(k+1)_n."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    params = {"n": n, "k": k}
    hyper = degen_hyperharmonic(n, k + 1) if hyper is None else hyper
    lhs = _shifted_binomial(k) * hyper
    rhs = (degen_harmonic(n + k) - degen_harmonic(k)) * math.comb(n + k, k)
    return make_report("cor7", params, first_mismatch(lhs, rhs, "values"))


def check_thm8(m: int, r: int, order: int, blocks=None, terms=None) -> CheckReport:
    """Harmonic-weighted power series against its Stirling expansion.

    Coefficient n of the lhs is H_n (n+r)_{m,l}, of the rhs sum_k S_r(m, k)
    k! [t^n] T_k, ``terms`` = ``harmonic_terms(order, >= m)``.  Where their
    closed form holds, both are H_n times ``blocks.main`` entries [m][n]
    (``theorem2_blocks(r, >= min(m + 1, order), >= m)``; H_0 = 0), of
    degree <= m in n, so n = 1..m+1 decide; else the full series do.
    Both are built when not given.
    """
    if order < max(m, 1):
        raise ValueError(_ORDER_COVERS_M)
    top = min(m + 1, order)
    if (blocks is not None and (blocks.r != r or blocks.order < top or m > blocks.degmax)
            or terms is not None and (terms.order != order or m >= len(terms.series))):
        raise ValueError("blocks or terms were built for a different r, order or m")
    params, terms = {"m": m, "r": r, "order": order}, terms or harmonic_terms(order, m)
    ns = range((top if terms.closed_form else order) + 1)
    if terms.closed_form:
        mix, falling = (blocks or theorem2_blocks(r, top, m)).main
        if all(mix[m][n] == falling[m][n] for n in ns[1:]):
            return make_report("thm8", params, None)
        lhs, rhs = (TruncSeries(QL, (degen_harmonic(n) * t[m][n] for n in ns))
                    for t in (falling, mix))
    else:
        lhs = TruncSeries(QL, (degen_harmonic(n) * degen_falling(n + r, m) for n in ns))
        fam = stirling.StirlingFamily(stirling.S2R_DEGENERATE, r)
        weights = (stirling.stirling_value(fam, m, k) * math.factorial(k) for k in range(m + 1))
        rhs = sum((term.scale(w) for term, w in zip(terms.series, weights) if not w.is_zero()),
                  TruncSeries.zero(QL, order))
    return make_report("thm8", params, first_mismatch(lhs, rhs, "series"))


class SuiteBounds(NamedTuple):
    """Parameter grids for run_suite; defaults match the acceptance gate."""

    thm1_jmax: int = 10
    thm1_mmax: int = 8
    thm1_rmax: int = 4
    thm2_trials: int = 100
    thm2_degmax: int = 6
    thm2_rmax: int = 3
    thm2_order: int = 16
    thm3_mmax: int = 8
    thm3_rmax: int = 3
    thm3_order: int = 20
    thm3_numeric_mmax: int = 4
    thm3_numeric_rmax: int = 2
    thm3_tol_exponent: int = 12
    thm4_nmax: int = 15
    thm5_nmax: int = 12
    thm5_rmax: int = 4
    thm6_kmax: int = 8
    thm6_order: int = 16
    cor7_nmax: int = 10
    cor7_kmax: int = 10
    thm8_mmax: int = 6
    thm8_rmax: int = 3
    thm8_order: int = 16

    def with_cli_overrides(self, nmax=None, rmax=None, order=None) -> "SuiteBounds":
        """Map the generic CLI limits onto each check's own bounds: ``nmax`` onto every
        ``*_mmax``, ``*_nmax`` and ``*_kmax``, ``rmax`` and ``order`` onto every field so named."""
        limits = {"mmax": nmax, "nmax": nmax, "kmax": nmax, "rmax": rmax, "order": order}
        return self._replace(**{name: limits[name.rsplit("_", 1)[1]] for name in self._fields
                                if limits.get(name.rsplit("_", 1)[1]) is not None})


def _warm(family_id: str, rs, top: int) -> None:
    """Build the triangle of each r in ``rs`` once, to row ``top``, before a grid reads it."""
    for r in rs if top >= 0 else ():
        stirling.triangle(stirling.StirlingFamily(family_id, r), top)


def _plan(ids, bounds: SuiteBounds) -> tuple[int, int, int]:
    """Raise the first bound error the runners of ``ids`` would raise; else the largest r, m
    (or deg f) and index their thm1, thm2, thm3 and thm8 checks read: min(m, jmax), m,
    min(m + 1, order), and min(degmax + 1, order) for thm2, whose named g are nonzero at j >= 1."""
    reach = []
    for check_id in ids:
        if check_id == "thm1":
            mmax = bounds.thm1_mmax
            reach.append((min(mmax, bounds.thm1_rmax), mmax, min(mmax, bounds.thm1_jmax)))
        elif check_id == "thm2":
            degmax = bounds.thm2_degmax
            reach.append((bounds.thm2_rmax, degmax, min(degmax + 1, bounds.thm2_order)))
        elif check_id in ("thm3", "thm8"):
            mmax, rmax, order = (getattr(bounds, f"{check_id}_{name}")
                                 for name in ("mmax", "rmax", "order"))
            if min(mmax, rmax) >= 0 and order < max(mmax, 1):
                raise ValueError(_ORDER_COVERS_M)
            top = min(mmax, order)
            reach.append((rmax, top, min(top + (check_id == "thm8"), order)))
        elif check_id == "thm6" and 1 <= bounds.thm6_kmax > bounds.thm6_order:
            raise ValueError(_ORDER_COVERS_K)
    return tuple(map(max, zip(*reach))) or (0, 0, 0)


def _shared_blocks(check_id: str, bounds: SuiteBounds, rs) -> list:
    """The run's ``theorem2_blocks`` for r in ``rs`` on its one falling table, each built once
    per run and sized by ``_plan`` over the run's ids (over ``check_id`` alone outside a run)."""
    rmax, degmax, index = _per_run("reach", lambda: _plan((check_id,), bounds))
    falling = _per_run("falling", lambda: degen_falling_table(index + rmax, degmax))
    return [_per_run(("blocks", r), lambda r=r: theorem2_blocks(r, index, degmax, falling))
            for r in rs]


def _run_thm1(bounds: SuiteBounds, seed: int) -> list[CheckReport]:
    jmax, mmax = bounds.thm1_jmax, bounds.thm1_mmax
    blocks = _shared_blocks("thm1", bounds, range(min(mmax, bounds.thm1_rmax) + 1))
    return [theorem1_check(m, r, mode, jmax, blocks[r])
            for m in range(mmax + 1) for r in range(min(m, bounds.thm1_rmax) + 1)
            for mode in ("plain", "shifted")]


def _random_poly(rng: random.Random, degmax: int) -> XPoly:
    degree = rng.randint(0, degmax)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
    return XPoly([LambdaPoly.const(c) for c in coeffs])


def _named_g(name: str, order: int) -> TruncSeries:
    if name == "geometric":
        return inv_one_minus(order)
    if name == "exp":
        return classical_exp(order, QL)
    if name == "harmonic":
        return harmonic_gf(1, order)
    raise ValueError(f"unknown series name {name!r}")


def _first_failure(fs, label: str, g: TruncSeries, blocks) -> Counterexample | None:
    """The first f in ``fs`` failing Theorem 2 against g, located as ``label.format(index)``."""
    for i, f in enumerate(fs):
        rep = theorem2_check(f, g, blocks.r, g.order, blocks)
        if not rep.passed:
            bad = rep.counterexample
            return Counterexample(f"{label.format(i)}: {bad.location}", bad.lhs, bad.rhs)
    return None


def _run_thm2(bounds: SuiteBounds, seed: int) -> list[CheckReport]:
    order, degmax, polys = bounds.thm2_order, bounds.thm2_degmax, []
    monomials = [XPoly.monomial(1, m) for m in range(degmax + 1)]
    blocks = _shared_blocks("thm2", bounds, range(bounds.thm2_rmax + 1))
    out = []
    for name in ("exp", "geometric", "harmonic"):
        g = _named_g(name, order)
        for r, block in enumerate(blocks):
            params = {"g": name, "r": r, "order": order,
                      "trials": bounds.thm2_trials, "seed": seed}
            # Both sides are linear in f, so x^0..x^degmax certify every trial; the
            # trials are drawn and run only to name a counterexample once a monomial fails.
            failure = _first_failure(monomials, "monomial x^{}", g, block)
            if failure is not None:
                if not polys:
                    rng = random.Random(seed)
                    polys = [_random_poly(rng, degmax) for _ in range(bounds.thm2_trials)]
                failure = _first_failure(polys, "trial {}", g, block) or failure
            out.append(make_report("thm2", params, failure))
    return out


def _run_thm3(bounds: SuiteBounds, seed: int) -> list[CheckReport]:
    order, mmax, rs = bounds.thm3_order, bounds.thm3_mmax, range(bounds.thm3_rmax + 1)
    # the blocks build each triangle to row mmax or above, and hold the falling table
    blocks = _shared_blocks("thm3", bounds, rs if mmax >= 0 else ())
    out = [check_thm3(m, r, order, blocks[r].falling) for m in range(mmax + 1) for r in rs]
    mmax, rs = bounds.thm3_numeric_mmax, range(bounds.thm3_numeric_rmax + 1)
    _warm(stirling.S2R_DEGENERATE, rs, mmax)
    return out + [check_thm3_numeric(m, r, lam, bounds.thm3_tol_exponent)
                  for lam in (Fraction(1, 3), Fraction(1, 2)) for m in range(mmax + 1) for r in rs]


def _run_thm4(bounds: SuiteBounds, seed: int) -> list[CheckReport]:
    ns = range(bounds.thm4_nmax + 1)
    _warm(stirling.S2_DEGENERATE, (0,) if ns else (), len(ns))  # check n reads rows n, n + 1
    return [check_thm4(n) for n in ns]


def _run_thm5(bounds: SuiteBounds, seed: int) -> list[CheckReport]:
    ns, rs = range(1, bounds.thm5_nmax + 1), range(1, bounds.thm5_rmax + 1)
    if ns and rs:
        _warm(stirling.S1R_UNSIGNED_DEGENERATE, rs, ns[-1])
        _warm(stirling.S1_UNSIGNED_DEGENERATE, (0,), ns[-1] + 1)
    return [check_thm5(n, r) for n in ns for r in rs]


def _run_thm6(bounds: SuiteBounds, seed: int) -> list[CheckReport]:
    order, ks = bounds.thm6_order, range(1, bounds.thm6_kmax + 1)
    blocks = None
    if ks and order >= 1:  # a k above the order raises before reading g
        blocks = (harmonic_gf(1, order + min(ks[-1], order)), degen_log_one_minus(order))
    return [check_thm6(k, order, blocks) for k in ks]


def _run_cor7(bounds: SuiteBounds, seed: int) -> list[CheckReport]:
    ns, out = range(1, bounds.cor7_nmax + 1), []
    row = [degen_harmonic(n) for n in range(bounds.cor7_nmax + 1)]
    for k in range(1, bounds.cor7_kmax + 1):
        row = running_sums(row, 1)  # the hyperharmonic row of order k + 1
        out += [check_cor7(n, k, row[n]) for n in ns]
    return out


def _run_thm8(bounds: SuiteBounds, seed: int) -> list[CheckReport]:
    order, mmax, rs = bounds.thm8_order, bounds.thm8_mmax, range(bounds.thm8_rmax + 1)
    top = min(mmax, order)  # a check with m > order raises before reading anything
    if top < 0 or not rs:
        return []
    terms, blocks = harmonic_terms(order, top), _shared_blocks("thm8", bounds, rs)
    return [check_thm8(m, r, order, blocks[r], terms) for m in range(mmax + 1) for r in rs]


_RUNNERS = dict(zip(CHECK_IDS, (_run_thm1, _run_thm2, _run_thm3, _run_thm4, _run_thm5,
                                _run_thm6, _run_cor7, _run_thm8)))


def run_suite(selection, bounds: SuiteBounds | None = None, seed: int = 0,
              tables: Tables | None = None) -> list[CheckReport]:
    """Run the selected checks over their bounded grids; deterministic output.

    Reports come back sorted by check id and then by parameters regardless
    of execution order.  Unknown ids raise with the list of valid ones;
    bounds a selected check rejects raise before any check runs.
    The checks read and fill ``tables`` when given, else the current ones.
    """
    ids = sorted(set(selection))
    for check_id in ids:
        if check_id not in _RUNNERS:
            raise ValueError(f"unknown check id {check_id!r}; valid ids: {', '.join(CHECK_IDS)}")
    bounds = bounds or SuiteBounds()
    reports: list[CheckReport] = []
    token = _RUN.set({"reach": _plan(ids, bounds)})  # raises before any check runs
    try:
        with use(tables or current()):
            for check_id in ids:
                reports.extend(_RUNNERS[check_id](bounds, seed))
    finally:
        _RUN.reset(token)
    reports.sort(key=lambda rep: (rep.check_id,
                                  json.dumps(dict(rep.params), sort_keys=True, default=str)))
    return reports


def suite_json(reports) -> str:
    """Canonical JSON array for a report list (byte-stable for fixed inputs)."""
    return json.dumps([rep.to_json() for rep in reports], sort_keys=True, indent=2)
