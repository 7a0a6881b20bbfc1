"""Executable identity checks and the verification suite runner.

Each ``check_*`` operation instantiates one identity at concrete indices
and reports whether it holds in Q[l], for every value of the degeneracy
parameter; a counterexample names the first divergent coefficient.
``run_suite`` drives bounded parameter grids over the registered checks
and aggregates deterministic, machine-readable reports.  The two-series
identity is certified on the monomial basis; its seeded random instances
are drawn only to name a counterexample.  thm1, thm2, thm3 and thm8
compare entries of its g-free tables (``operators.theorem2_blocks``),
thm8 where its terms have Theorem 6's closed form, and an instance fails
where they do not; they compare m + 1 indices, which certify the rest by
degree in j.  These four, thm6 and cor7 decide at D + 1 integer values of
l, which certify every l by degree in l, and name a counterexample by
interpolating those values into Q[l] (``operators.first_difference``); D
counts S2r faults only where a check reads S2r.  thm4 and thm5 compare in
Q[l].  At a number for l the harmonic values a check compares come from
one scaled row, ``harmonic_row(N, at)``, N the check's top index outside a
run and the plan's inside one; the builders return it with their values,
so a check outside a run builds it once per point.
A run checks every bound and fault, then builds each value its checks
share once, before the first check (``_plan``, ``tables.run``); outside a
run each check builds its own.  Nothing outlives a run.

Check ids: thm1 thm2 thm3 thm4 thm5 thm6 cor7 thm8.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import NamedTuple

from . import stirling
from .factorials import degen_falling_table
from .fubini_bell import FUBINI_DEGENERATE, PolyFamily, poly_by_sum, rfubini_numbers
from .gfun import classical_exp, inv_one_minus
from .harmonic import (degen_harmonic, degen_hyperharmonic, harmonic_gf, harmonic_row,
                       running_sums)
from .kernel import QL, LambdaPoly, TruncSeries, XPoly
from .operators import (entry_difference, first_difference, l_points, theorem1_check,
                        theorem2_blocks, theorem2_check)
from .report import CheckReport, Counterexample, first_mismatch, make_report
from .tables import Tables, current, run, shared, use

CHECK_IDS = ("thm1", "thm2", "thm3", "thm4", "thm5", "thm6", "cor7", "thm8")
_ORDER_COVERS_M = "order must cover m (and be >= 1)"
_ORDER_COVERS_K = "order must be >= k"
_LAMBDAS = (Fraction(1, 3), Fraction(1, 2))  # thm3's numeric probes


def _poly(family: PolyFamily, n: int) -> XPoly:
    return shared(("poly", family, n), poly_by_sum, family, n)


def _binomial_sums(base, kmax: int, at) -> list:
    """[k]: C(k - l, k) times ``base`` summed k times, k <= kmax, at l = ``at``: (k - l)/k
    times one running sum of the last, an exact ``//`` on ints."""
    sums = [list(base)]
    for k in range(1, kmax + 1):
        sums.append([c * (k - at) // k for c in running_sums(sums[-1], 1)])
    return sums


def _harmonic_sums(nmax: int, kmax: int, at) -> tuple:
    """The harmonic row read, and [k][n]: C(k - l, k) H^(k+1)_n, the row summed k times,
    n <= nmax, k <= kmax."""
    row = shared(("harmonic", at), harmonic_row, nmax + kmax, at)
    return row, _binomial_sums(row[:nmax + 1], kmax, at)


def _summed_brackets(order: int, kmax: int, at) -> tuple:
    """The harmonic row read, and [k]: bracket_k = H_k - C(k - l, k) log_l(1-x) summed k + 1
    times, to ``order``, k <= kmax.  The log summed once is -H, so coefficient n is
    H_k C(n + k, k) + C(k - l, k) H^(k+1)_n."""
    row = shared(("harmonic", at), harmonic_row, order + kmax, at)
    return row, [tuple(row[k] * math.comb(n + k, k) + c for n, c in enumerate(sums))
                 for k, sums in enumerate(_binomial_sums(row[:order + 1], kmax, at))]


def harmonic_terms(order: int, kmax: int, at) -> list:
    """[k][n]: [x^n] T_k, k = 0..kmax <= order, T_k = x^k/(1-x)^(k+1) * bracket_k: bracket_k
    summed k + 1 times, to order - k, shifted by k.  thm8's rhs is sum_k w_k T_k."""
    if kmax > order:
        raise ValueError(_ORDER_COVERS_K)
    brackets = shared(("brackets", order, at), _summed_brackets, order, kmax, at)[1][:kmax + 1]
    return [(0,) * k + b[:order - k + 1] for k, b in enumerate(brackets)]


def _scale(top: int) -> int:
    """lcm(1..N), the scale of the harmonic row at a number for l: N = ``top`` outside a run,
    the plan's inside one."""
    return math.lcm(*range(1, len(shared(("harmonic", 0), harmonic_row, top, 0))))


def _open_terms(order: int, kmax: int):
    """None if thm8's terms have Theorem 6's closed form [x^n] T_k = C(n, k) H_n, k <= kmax,
    H_n = [x^n] T_0, both sides of degree <= order - 1 in l; else (k, n, [x^n] T_k, C(n, k)
    H_n) in Q[l] at the first (k, n) where they differ, interpolated from the values compared."""
    def sides(at):
        terms = harmonic_terms(order, kmax, at)
        return ([c for term in terms for c in term],
                [h * math.comb(n, k) for k in range(kmax + 1) for n, h in enumerate(terms[0])])
    found = first_difference(sides, order - 1)
    scale = found and _scale(order + kmax)
    return found and (*divmod(found[0], order + 1), found[1] / scale, found[2] / scale)


def check_thm3(m: int, r: int, order: int) -> CheckReport:
    """Rational generating function of the r-Fubini polynomial at x/(1-x).

    Both sides are of degree <= m in n, so n <= m certify every n <= order.
    Coefficient n of each side is main entry [m][n] of r's g-free tables.
    """
    if order < max(m, 1):
        raise ValueError(_ORDER_COVERS_M)
    found = entry_difference(r, m, m, range(m + 1))
    bad = found and first_mismatch(found[1], found[2], f"series: coefficient of t^{found[0]}")
    return make_report("thm3", {"m": m, "r": r, "order": order}, bad)


def check_thm3_numeric(m: int, r: int, lam: Fraction, tol_exponent: int) -> CheckReport:
    """Geometric-weighted sum against the polynomial value at x = 1, sum_k k! S_r(m, k) at lam."""
    params = {"kind": "numeric", "m": m, "r": r, "lambda": str(Fraction(lam)),
              "tol_exponent": tol_exponent}
    total = rfubini_numbers(m, r, lam, tol_exponent)
    row = stirling.s2r_rows(r, m, Fraction(lam))[m]
    exact = sum(c * math.factorial(k) for k, c in enumerate(row))
    if abs(total - exact) <= Fraction(1, 10 ** tol_exponent):
        return make_report("thm3", params, None)
    bad = Counterexample("partial sum vs polynomial value", str(total), str(exact))
    return make_report("thm3", params, bad)


def check_thm4(n: int) -> CheckReport:
    """First-order differential recurrence of the weighted polynomials."""
    if n < 0:
        raise ValueError("n must be >= 0")
    params = {"n": n}
    fam = PolyFamily(FUBINI_DEGENERATE)
    fn = _poly(fam, n)
    # coefficient i of x f' + x (x f)' - l n f
    lhs = XPoly(fn.coeff(i) * LambdaPoly((i, -n)) + fn.coeff(i - 1) * i
                for i in range(fn.degree + 2))
    return make_report("thm4", params, first_mismatch(lhs, _poly(fam, n + 1), "polynomials"))


def check_thm5(n: int, r: int) -> CheckReport:
    """Hyperharmonic values as first-column unsigned r-Stirling entries."""
    if n < 1 or r < 1:
        raise ValueError("n and r must be >= 1")
    fam_r, fam_1 = (stirling.StirlingFamily(stirling.S1R_UNSIGNED_DEGENERATE, q) for q in (r, 1))
    split = (LambdaPoly.param() * 2 * stirling.stirling_value(fam_1, n, 2)
             + stirling.unsigned_first_kind(n + 1, 2))
    harmonic = shared(("harmonic", None), harmonic_row, n)[n]
    for lhs, rhs, label in (
            (degen_hyperharmonic(n, r) * math.factorial(n), stirling.stirling_value(fam_r, n, 1),
             "column identity"),
            (harmonic * math.factorial(n), split, "harmonic split"),
            (stirling.stirling_value(fam_1, n, 1), split, "column two-term split")):
        bad = first_mismatch(lhs, rhs, label)
        if bad is not None:
            break
    return make_report("thm5", {"n": n, "r": r}, bad)


def check_thm6(k: int, order: int) -> CheckReport:
    """Closed form of the k-th derivative of the harmonic generating series (k! H_k at 0).
    Both sides are of degree <= order + k - 1 in l."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if order < k:
        raise ValueError(_ORDER_COVERS_K)

    def sides(at):  # H_{n+k} (n+k)!/n! against k! [x^n] bracket_k/(1-x)^(k+1), n <= order
        row, brackets = shared(("brackets", order, at), _summed_brackets, order, k, at)
        return ([row[n + k] * math.perm(n + k, k) for n in range(order + 1)],
                [c * math.factorial(k) for c in brackets[k]])
    found = first_difference(sides, order + k - 1)
    scale = found and _scale(order + k)
    bad = found and first_mismatch(found[1] / scale, found[2] / scale,
                                   f"derivative series: coefficient of t^{found[0]}")
    return make_report("thm6", {"k": k, "order": order}, bad)


def check_cor7(n: int, k: int) -> CheckReport:
    """Hyperharmonic/harmonic relation through the shifted binomial, C(k - l, k) H^(k+1)_n
    against (H_{n+k} - H_k) C(n + k, k); both sides are of degree <= n + k - 1 in l."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")

    def sides(at):
        row, sums = shared(("harmonic sums", at), _harmonic_sums, n, k, at)
        return [sums[k][n]], [(row[n + k] - row[k]) * math.comb(n + k, k)]
    found = first_difference(sides, n + k - 1)
    scale = found and _scale(n + k)
    bad = found and first_mismatch(found[1] / scale, found[2] / scale, "values")
    return make_report("cor7", {"n": n, "k": k}, bad)


def check_thm8(m: int, r: int, order: int) -> CheckReport:
    """Harmonic-weighted power series against its Stirling expansion.

    Coefficient n of the lhs is H_n (n+r)_{m,l}, of the rhs sum_k S_r(m, k)
    k! [t^n] T_k (``harmonic_terms``).  Where the terms have Theorem 6's closed
    form (``_open_terms``, at points of l), both are H_n times entries [m][n]
    of the g-free main tables (H_0 = 0), of degree <= m in n, so n = 1..m+1
    decide; where they do not, the instance fails, naming the first term
    coefficient that breaks it.
    """
    if order < max(m, 1):
        raise ValueError(_ORDER_COVERS_M)
    top = min(m + 1, order)
    params = {"m": m, "r": r, "order": order}
    open_term = shared(("terms", order), _open_terms, order, m)
    if open_term is not None:
        k, n, term, closed = open_term
        return make_report("thm8", params, first_mismatch(term, closed,
                                                          f"T_{k}: coefficient of t^{n}"))
    found = entry_difference(r, top, m, range(1, top + 1))
    h = found and degen_harmonic(found[0])
    bad = found and first_mismatch(h * found[2], h * found[1],
                                   f"series: coefficient of t^{found[0]}")
    return make_report("thm8", params, bad)


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


def _plan(ids, bounds: SuiteBounds) -> list:
    """Raise the first bound error the runners of ``ids`` would raise, then the first fault of
    the current ``Tables`` in a row no check of theirs reads, before any arithmetic; else every
    value their checks share, as ``(key, build, *args)``, each after those it reads.

    Each triangle is built once, to the top row any check reads.  thm1, thm2, thm3 and thm8
    decide at the points ``operators.l_points(degmax, family=s2r)`` of l, on one falling table
    and the g-free tables of each r per point, sized by the largest r, m (or deg f) and index
    any of them reads: min(m, jmax), m, min(m + 1, order), and min(degmax + 1, order) for thm2,
    whose named g are nonzero at j >= 1; the plan checks faults against their S2r rows, but
    builds no S2r triangle.  thm6, cor7 and thm8's terms read one harmonic row per point, to
    the largest index read, and the brackets and harmonic sums at the points their degree in l
    needs, which no fault raises.  thm5 reads one harmonic row in Q[l] (at None), to its nmax.
    """
    b, tops, polys, reach, block_rs, brackets, later = bounds, {}, [], [], set(), {}, []
    s2r, thm3_rs, sums = stirling.S2R_DEGENERATE, set(), ()

    def read(family_id, rs, top):  # rows 0..top of the triangle of each r in rs
        for r in rs if top >= 0 else ():
            tops[family_id, r] = max(top, tops.get((family_id, r), top))

    for check_id in ids:
        if check_id == "thm1" and min(b.thm1_mmax, b.thm1_rmax) >= 0:
            rmax = min(b.thm1_mmax, b.thm1_rmax)
            reach.append((rmax, b.thm1_mmax, min(b.thm1_mmax, b.thm1_jmax)))
            block_rs.update(range(rmax + 1))
        elif check_id == "thm2" and b.thm2_rmax >= 0:
            reach.append((b.thm2_rmax, b.thm2_degmax, min(b.thm2_degmax + 1, b.thm2_order)))
            block_rs.update(range(b.thm2_rmax + 1))
        elif check_id in ("thm3", "thm8"):
            mmax, rmax, order = (getattr(b, f"{check_id}_{name}")
                                 for name in ("mmax", "rmax", "order"))
            if min(mmax, rmax) >= 0:
                if order < max(mmax, 1):
                    raise ValueError(_ORDER_COVERS_M)
                reach.append((rmax, mmax, min(mmax + (check_id == "thm8"), order)))
                if check_id == "thm3":
                    read(s2r, range(rmax + 1), mmax)
                    thm3_rs.update(range(rmax + 1))
                else:
                    block_rs.update(range(rmax + 1))
                    brackets[order] = max(mmax, brackets.get(order, mmax))
                    later.append((("terms", order), _open_terms, order, mmax))
            if check_id == "thm3":  # the numeric sums, at their own values of l
                read(s2r, range(b.thm3_numeric_rmax + 1), b.thm3_numeric_mmax)
        elif check_id == "thm4" and b.thm4_nmax >= 0:
            read(stirling.S2_DEGENERATE, (0,), b.thm4_nmax + 1)  # check n reads rows n, n + 1
            polys.extend((PolyFamily(FUBINI_DEGENERATE), n) for n in range(b.thm4_nmax + 2))
        elif check_id == "thm5" and min(b.thm5_nmax, b.thm5_rmax) >= 1:
            read(stirling.S1R_UNSIGNED_DEGENERATE, range(1, b.thm5_rmax + 1), b.thm5_nmax)
            read(stirling.S1_UNSIGNED_DEGENERATE, (0,), b.thm5_nmax + 1)
            later.append((("harmonic", None), harmonic_row, b.thm5_nmax))
        elif check_id == "thm6" and b.thm6_kmax >= 1:
            order, kmax = b.thm6_order, b.thm6_kmax
            if kmax > order:
                raise ValueError(_ORDER_COVERS_K)
            brackets[order] = max(kmax, brackets.get(order, kmax))
        elif check_id == "cor7" and min(b.cor7_nmax, b.cor7_kmax) >= 1:
            sums = (b.cor7_nmax, b.cor7_kmax)
    if reach:
        rmax, degmax, index = map(max, zip(*reach))
        read(s2r, block_rs, degmax)
    for family_id, r, n, _ in current().faults:
        if n > tops.get((family_id, r), -1):
            raise ValueError(f"no selected check reads row {n} of {family_id} at r = {r}, "
                             "where the fault is")
    plan = [(("triangle", *key), stirling.triangle, stirling.StirlingFamily(*key), top)
            for key, top in tops.items() if key[0] != s2r]
    plan += [(("poly", *key), poly_by_sum, *key) for key in dict.fromkeys(polys)]
    if reach:
        points = l_points(degmax, family=s2r)
        plan += [(("falling", at), degen_falling_table, index + rmax, degmax, at) for at in points]
        plan += [(("blocks", r, at), theorem2_blocks, r, index, degmax, at)
                 for r in sorted(block_rs | thm3_rs) for at in points]
    nmax = max([order + kmax for order, kmax in brackets.items()] + [sum(sums)])
    if nmax:  # H_n is of degree n - 1 in l
        plan += [(("harmonic", at), harmonic_row, nmax, at) for at in l_points(nmax - 1)]
    plan += [(("brackets", order, at), _summed_brackets, order, kmax, at)
             for order, kmax in brackets.items() for at in l_points(order + kmax - 1)]
    if sums:
        plan += [(("harmonic sums", at), _harmonic_sums, *sums, at)
                 for at in l_points(sum(sums) - 1)]
    return plan + later


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


def _first_failure(fs, label: str, g: TruncSeries, r: int) -> Counterexample | None:
    """The first f in ``fs`` failing Theorem 2 against g, located as ``label.format(index)``."""
    for i, f in enumerate(fs):
        rep = theorem2_check(f, g, r, g.order)
        if not rep.passed:
            bad = rep.counterexample
            return Counterexample(f"{label.format(i)}: {bad.location}", bad.lhs, bad.rhs)
    return None


def _run_thm2(bounds: SuiteBounds, seed: int) -> list[CheckReport]:
    order, degmax, polys = bounds.thm2_order, bounds.thm2_degmax, []
    monomials = [XPoly.monomial(1, m) for m in range(degmax + 1)]
    out = []
    for name in ("exp", "geometric", "harmonic"):
        g = _named_g(name, order)
        for r in range(bounds.thm2_rmax + 1):
            params = {"g": name, "r": r, "order": order,
                      "trials": bounds.thm2_trials, "seed": seed}
            # Both sides are linear in f, so x^0..x^degmax certify every trial; the
            # trials are drawn and run only to name a counterexample once a monomial fails.
            failure = _first_failure(monomials, "monomial x^{}", g, r)
            if failure is not None:
                if not polys:
                    rng = random.Random(seed)
                    polys = [_random_poly(rng, degmax) for _ in range(bounds.thm2_trials)]
                failure = _first_failure(polys, "trial {}", g, r) or failure
            out.append(make_report("thm2", params, failure))
    return out


# check id -> its runner: (bounds, seed) -> the reports of its grid
_RUNNERS = {
    "thm1": lambda b, seed: [theorem1_check(m, r, mode, b.thm1_jmax)
                             for m in range(b.thm1_mmax + 1) for r in range(min(m, b.thm1_rmax) + 1)
                             for mode in ("plain", "shifted")],
    "thm2": _run_thm2,
    "thm3": lambda b, seed: [check_thm3(m, r, b.thm3_order) for m in range(b.thm3_mmax + 1)
                             for r in range(b.thm3_rmax + 1)] + [
        check_thm3_numeric(m, r, lam, b.thm3_tol_exponent) for lam in _LAMBDAS
        for m in range(b.thm3_numeric_mmax + 1) for r in range(b.thm3_numeric_rmax + 1)],
    "thm4": lambda b, seed: [check_thm4(n) for n in range(b.thm4_nmax + 1)],
    "thm5": lambda b, seed: [check_thm5(n, r) for n in range(1, b.thm5_nmax + 1)
                             for r in range(1, b.thm5_rmax + 1)],
    "thm6": lambda b, seed: [check_thm6(k, b.thm6_order) for k in range(1, b.thm6_kmax + 1)],
    "cor7": lambda b, seed: [check_cor7(n, k) for k in range(1, b.cor7_kmax + 1)
                             for n in range(1, b.cor7_nmax + 1)],
    "thm8": lambda b, seed: [check_thm8(m, r, b.thm8_order) for m in range(b.thm8_mmax + 1)
                             for r in range(b.thm8_rmax + 1)],
}


def run_suite(selection, bounds: SuiteBounds | None = None, seed: int = 0,
              tables: Tables | None = None) -> list[CheckReport]:
    """Run the selected checks over their bounded grids; deterministic output.

    Reports come back sorted by check id and then by parameters regardless
    of execution order.  Unknown ids raise with the list of valid ones;
    bounds a selected check rejects, and a triangle fault in a row no
    selected check reads, raise before any check runs.  The run
    builds every value its plan lists, then runs the checks, all in
    ``tables`` when given, else the current ones.
    """
    ids = sorted(set(selection))
    for check_id in ids:
        if check_id not in _RUNNERS:
            raise ValueError(f"unknown check id {check_id!r}; valid ids: {', '.join(CHECK_IDS)}")
    bounds = bounds or SuiteBounds()
    with use(tables or current()), run(_plan(ids, bounds)):  # raises before any arithmetic
        reports = [rep for check_id in ids for rep in _RUNNERS[check_id](bounds, seed)]
    reports.sort(key=lambda rep: (rep.check_id,
                                  json.dumps(dict(rep.params), sort_keys=True, default=str)))
    return reports


def suite_json(reports) -> str:
    """Canonical JSON array for a report list (byte-stable for fixed inputs)."""
    return json.dumps([rep.to_json() for rep in reports], sort_keys=True, indent=2)
