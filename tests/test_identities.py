"""Identity checks: spec'd instances, determinism, failure localization."""

import json
import math
import random
import re
import sys
import threading
from fractions import Fraction

import pytest

from qlambda import cli, factorials, fubini_bell, harmonic, identities, operators
from qlambda import stirling as st
from qlambda.factorials import classical_falling
from qlambda.fubini_bell import (FUBINI_DEGENERATE, RFUBINI_DEGENERATE, PolyFamily, poly_by_sum,
                                 rfubini_numbers)
from qlambda.harmonic import degen_harmonic, harmonic_row
from qlambda.identities import (SuiteBounds, check_cor7, check_thm3, check_thm3_numeric,
                                check_thm4, check_thm5, check_thm6, check_thm8, run_suite,
                                suite_json)
from qlambda.kernel import QL, LambdaPoly, TruncSeries, XPoly
from qlambda.operators import OperatorSpec, theorem2_blocks, theorem2_check
from qlambda.report import Counterexample, first_mismatch, make_report
from qlambda.tables import Tables, current, run, shared, use

import routes
from routes import poly_by_gf


def test_thm3_small_instances():
    assert check_thm3(0, 2, 6).passed          # both sides geometric
    assert check_thm3(1, 0, 8).passed          # coefficient of x^n is n
    for m in range(5):
        for r in range(3):
            assert check_thm3(m, r, 10).passed


def test_thm3_numeric_probes():
    for lam in (Fraction(1, 3), Fraction(1, 2)):
        for m in range(4):
            for r in range(3):
                assert check_thm3_numeric(m, r, lam, 12).passed


def test_thm4_instances():
    fam = PolyFamily(FUBINI_DEGENERATE)
    assert poly_by_sum(fam, 1) == XPoly([0, 1])          # n = 0 case by hand
    assert check_thm4(0).passed
    assert check_thm4(1).passed
    for n in range(10):
        assert check_thm4(n).passed
    # the n+1 polynomial agrees with the independent series route
    assert poly_by_sum(fam, 7) == poly_by_gf(fam, 7, 8)


def test_thm5_instances():
    for r in range(1, 5):
        assert check_thm5(1, r).passed
    assert check_thm5(2, 1).passed
    for n in range(1, 9):
        for r in range(1, 4):
            assert check_thm5(n, r).passed


def test_thm6_instances():
    for k in range(1, 7):
        assert check_thm6(k, 12).passed, k
    with pytest.raises(ValueError):
        check_thm6(0, 8)
    with pytest.raises(ValueError):
        check_thm6(4, 2)


def test_cor7_instances():
    assert check_cor7(1, 1).passed
    assert check_cor7(2, 1).passed
    for n in range(1, 8):
        for k in range(1, 8):
            assert check_cor7(n, k).passed


def _cor7_outside_and_in_a_run():
    """cor7's default grid, checked one by one outside a run and by ``run_suite``, as JSON."""
    expected = sorted((check_cor7(n, k) for n in range(1, 11) for k in range(1, 11)),
                      key=lambda rep: json.dumps(dict(rep.params), sort_keys=True))
    reports = run_suite({"cor7"}, tables=Tables())
    return [rep.to_json() for rep in expected], [rep.to_json() for rep in reports]


def test_cor7_reads_a_given_hyperharmonic_number(monkeypatch):
    # C(k - l, k) H^(k+1)_n is the harmonic row summed k times, in a run or outside one; with
    # the row left unsummed the left side is C(k - l, k) H_n, right only where H^(k+1)_1 = H_1
    monkeypatch.setattr(identities, "running_sums", lambda values, times: list(values))
    expected, reports = _cor7_outside_and_in_a_run()
    assert reports == expected
    assert [rep["passed"] for rep in reports] == [rep["params"]["n"] == 1 for rep in reports]
    monkeypatch.undo()
    expected, reports = _cor7_outside_and_in_a_run()
    assert reports == expected and all(rep["passed"] for rep in reports)


def test_single_harmonic_checks_build_each_point_row_once(monkeypatch):
    # outside a run, cor7 at (n, k) reads the row at l = 0..n + k - 1 and thm6 at (k, order)
    # at l = 0..order + k - 1, each built once per check and point
    builds = []

    def counting(nmax, at=None):
        builds.append((nmax, at))
        return harmonic_row(nmax, at)

    monkeypatch.setattr(identities, "harmonic_row", counting)
    with use(Tables()):
        assert all(check_cor7(n, k).passed for n in range(1, 11) for k in range(1, 11))
        assert len(builds) == sum(n + k for n in range(1, 11) for k in range(1, 11)) == 1100
        builds.clear()
        assert all(check_thm6(k, 16).passed for k in range(1, 9))
        assert len(set(builds)) == len(builds) == sum(16 + k for k in range(1, 9)) == 164


def test_only_s2r_faults_raise_the_points_of_the_checks_that_read_them(monkeypatch):
    # l(l-1)...(l-19) at S_1(3, 2) is zero at l = 0..19: thm3 and thm8's entries read it and
    # take l = 0..20; cor7 at (3, 2) reads no triangle and keeps its l = 0..4
    builds = []

    def counting(nmax, at=None):
        builds.append(at)
        return harmonic_row(nmax, at)

    monkeypatch.setattr(identities, "harmonic_row", counting)
    delta = classical_falling(LambdaPoly.param(), 20)
    with use(Tables({(st.S2R_DEGENERATE, 1, 3, 2): delta})):
        assert check_cor7(3, 2).passed
        assert builds == list(range(5))
        assert not check_thm3(3, 1, 8).passed and not check_thm8(3, 1, 8).passed
        assert check_thm3(3, 0, 8).passed  # r = 0 has no fault


def _scale(nmax, at):
    """The scale lcm(1..N) of the harmonic row the checks read at the number ``at`` for l, N
    its top index: ``nmax`` outside a run, the plan's inside one."""
    return math.lcm(*range(1, len(shared(("harmonic", at), identities.harmonic_row, nmax, at))))


def _moved_row(index, delta):
    """``harmonic_row`` with H_index moved by ``delta``, at a number for l by its value there
    times the row's scale."""
    def moved(nmax, at=None):
        step = delta if at is None else int(delta.subs(at) * math.lcm(*range(1, nmax + 1)))
        return [c + step if n == index else c for n, c in enumerate(harmonic_row(nmax, at))]
    return moved


def test_thm6_needs_g_to_order_plus_k(monkeypatch):
    # coefficient n <= order of the k-th derivative of sum H_n x^n reads H_{n+k}
    def short(nmax, at=None):
        return harmonic_row(nmax - 1, at)

    monkeypatch.setattr(identities, "harmonic_row", short)
    with pytest.raises(IndexError):
        check_thm6(3, 8)
    monkeypatch.undo()
    assert check_thm6(3, 8).passed


def test_thm6_names_the_derivative_passes_counterexample(monkeypatch):
    # H_11 moved by l: the closed form reads H_0..H_10 only, the derivative H_11 at t^(11 - k)
    moved = _moved_row(11, LambdaPoly([0, 1]))
    monkeypatch.setattr(identities, "harmonic_row", moved)
    order = 10
    for k in range(1, 8):
        derived = TruncSeries(QL, moved(order + k))
        for _ in range(k):  # the oracle: k termwise derivatives
            derived = routes.derive(derived)
        closed = routes.thm6_closed_by_convolution(k, order)
        expected = routes.series_mismatch(derived, closed, "derivative series")
        assert expected.location == f"derivative series: coefficient of t^{11 - k}"
        rep = check_thm6(k, order)
        assert rep.counterexample.to_json() == expected.to_json(), k


def test_a_harmonic_error_that_vanishes_at_all_but_the_last_point_is_seen(monkeypatch):
    # each error is l(l-1)...(l-D+1), D the degree in l of the values it reaches, so it is zero
    # at l = 0..D-1 and the check sees it only at l = D, its last point
    def vanishing(degree):
        return classical_falling(LambdaPoly.param(), degree)

    k, order = 3, 8  # thm6: H_11 is read only by the derivative, at t^8; D = order + k - 1
    monkeypatch.setattr(identities, "harmonic_row", _moved_row(order + k, vanishing(order + k - 1)))
    derived = TruncSeries(QL, identities.harmonic_row(order + k))
    for _ in range(k):
        derived = routes.derive(derived)
    expected = routes.series_mismatch(derived, routes.thm6_closed_by_convolution(k, order),
                                      "derivative series")
    assert expected.location == "derivative series: coefficient of t^8"
    assert check_thm6(k, order).counterexample == expected
    n, k = 4, 3  # cor7: H_7 is read only by the right side; D = n + k - 1
    monkeypatch.setattr(identities, "harmonic_row", _moved_row(n + k, vanishing(n + k - 1)))
    rhs = (degen_harmonic(n + k) + vanishing(n + k - 1) - degen_harmonic(k)) * math.comb(n + k, k)
    lhs = routes.harmonic_sums_by_product(n, k)[k][n]
    assert check_cor7(n, k).counterexample == first_mismatch(lhs, rhs, "values") is not None
    # thm8: H_8 moves T_0 at t^8 away from Theorem 6's closed form C(8, k) H_8, k >= 1, whose
    # sides are of degree <= 7 in l; T_1 reads H_0..H_7 there, so every instance fails at T_1
    bounds = _SMALL
    order = bounds.thm8_order
    monkeypatch.setattr(identities, "harmonic_row", _moved_row(order, vanishing(order - 1)))
    terms = routes.harmonic_terms_by_product(order, bounds.thm8_mmax)
    moved = terms[0].coeffs[order] + vanishing(order - 1)
    expected = first_mismatch(terms[1].coeffs[order], moved * order,
                              f"T_1: coefficient of t^{order}")
    reports = run_suite({"thm8"}, bounds, tables=Tables())
    assert len(reports) == (bounds.thm8_mmax + 1) * (bounds.thm8_rmax + 1)
    assert all(rep.counterexample == expected is not None for rep in reports)


def test_thm8_instances():
    assert check_thm8(0, 0, 10).passed
    assert check_thm8(1, 0, 10).passed
    for m in range(4):
        for r in range(3):
            assert check_thm8(m, r, 12).passed


_ORDER_COVERS_M = "order must cover m (and be >= 1)"


@pytest.mark.parametrize("bounds,message", [
    (SuiteBounds().with_cli_overrides(nmax=64), _ORDER_COVERS_M),
    (SuiteBounds().with_cli_overrides(nmax=64, order=6), _ORDER_COVERS_M),
    (SuiteBounds()._replace(thm3_order=1, thm3_mmax=0, thm8_order=0), _ORDER_COVERS_M),
    (SuiteBounds()._replace(thm6_kmax=5, thm6_order=4), "order must be >= k"),
])
def test_bounds_are_checked_before_any_check_runs(monkeypatch, bounds, message):
    def refuse(name):
        def run(*args, **kwargs):
            raise AssertionError(f"{name} ran before the bounds were checked")
        return run

    for module in (identities, operators):
        for name in dir(module):
            if name.startswith("check_") or (name.startswith("theorem") and
                                              name.endswith("_check")):
                monkeypatch.setattr(module, name, refuse(name))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_suite(identities.CHECK_IDS, bounds, tables=Tables())


def test_bounds_pass_when_the_order_covers_the_grid():
    reports = run_suite({"thm3", "thm6", "thm8"},
                        SuiteBounds()._replace(thm3_mmax=2, thm3_order=2, thm3_rmax=0,
                                thm3_numeric_mmax=0, thm3_numeric_rmax=0, thm6_kmax=2,
                                thm6_order=2, thm8_mmax=1, thm8_rmax=0, thm8_order=1),
                        tables=Tables())
    assert len(reports) == 3 + 2 + 2 + 2 and all(rep.passed for rep in reports)


def test_cli_overrides_map_each_limit_onto_its_fields():
    out = SuiteBounds().with_cli_overrides(nmax=101, rmax=102, order=103)
    changed = {name: value for name, value in out._asdict().items()
               if value != getattr(SuiteBounds(), name)}
    assert changed == {
        **dict.fromkeys(("thm1_mmax", "thm3_mmax", "thm3_numeric_mmax", "thm4_nmax", "thm5_nmax",
                         "thm6_kmax", "cor7_nmax", "cor7_kmax", "thm8_mmax"), 101),
        **dict.fromkeys(("thm1_rmax", "thm2_rmax", "thm3_rmax", "thm3_numeric_rmax",
                         "thm5_rmax", "thm8_rmax"), 102),
        **dict.fromkeys(("thm2_order", "thm3_order", "thm6_order", "thm8_order"), 103)}
    assert SuiteBounds().with_cli_overrides() == SuiteBounds()


def test_run_suite_selection_and_edges():
    reports = run_suite({"thm4"}, SuiteBounds(thm4_nmax=3))
    assert len(reports) == 4 and all(r.passed for r in reports)
    assert run_suite(set()) == []
    with pytest.raises(ValueError):
        run_suite({"thm9"})


def test_run_suite_deterministic_json():
    bounds = SuiteBounds(thm4_nmax=4, thm6_kmax=3, thm6_order=10,
                         thm2_trials=5, thm2_order=8, thm2_degmax=3, thm2_rmax=1)
    a = suite_json(run_suite({"thm2", "thm4", "thm6"}, bounds, seed=42))
    b = suite_json(run_suite({"thm6", "thm2", "thm4"}, bounds, seed=42))
    assert a == b
    assert '"passed": true' in a
    # the seed is part of the thm2 report params
    c = suite_json(run_suite({"thm2"}, bounds, seed=43))
    assert '"seed": 43' in c


def test_reports_stay_symbolic():
    # no lambda substitution appears in symbolic check params
    for rep in run_suite({"thm5"}, SuiteBounds(thm5_nmax=3, thm5_rmax=2)):
        assert "lambda" not in dict(rep.params)


_FAULT_TARGETS = [
    (st.StirlingFamily(st.S2R_DEGENERATE, 1), 3, 1, {"thm3"}),
    (st.StirlingFamily(st.S2_DEGENERATE), 4, 2, {"thm4"}),
    (st.StirlingFamily(st.S1R_UNSIGNED_DEGENERATE, 2), 3, 1, {"thm5"}),
    (st.StirlingFamily(st.S1_UNSIGNED_DEGENERATE), 4, 2, {"thm5"}),
    (st.StirlingFamily(st.S2R_DEGENERATE, 0), 3, 1, {"thm1", "thm2"}),
]


@pytest.mark.parametrize("family,n,k,checks", _FAULT_TARGETS)
def test_fault_localization(family, n, k, checks):
    bounds = SuiteBounds(thm2_trials=4, thm2_order=10, thm2_degmax=4,
                         thm3_order=10, thm3_mmax=5,
                         thm4_nmax=6, thm5_nmax=6, thm6_order=10, thm8_order=10)
    faulted = Tables({(family.id, family.r, n, k): LambdaPoly.one()})
    reports = run_suite(checks, bounds, seed=1, tables=faulted)
    failed = [r for r in reports if not r.passed]
    assert failed, f"fault in {family} went unnoticed"
    assert all(r.counterexample is not None for r in failed)
    # counterexamples name the first divergent coefficient
    assert any("coefficient" in r.counterexample.location or
               r.counterexample.location for r in failed)
    reports = run_suite(checks, bounds, seed=1)
    assert all(r.passed for r in reports)


def test_thm2_sees_fault_after_a_clean_run():
    # one process: no derived state may outlive a run and hide the fault
    bounds = SuiteBounds(thm2_trials=3, thm2_order=6, thm2_degmax=3, thm2_rmax=1)
    assert all(r.passed for r in run_suite({"thm2"}, bounds, seed=2))
    faulted = Tables({(st.S2R_DEGENERATE, 0, 3, 1): LambdaPoly.one()})
    assert not all(r.passed for r in run_suite({"thm2"}, bounds, seed=2, tables=faulted))
    assert all(r.passed for r in run_suite({"thm2"}, bounds, seed=2))


_BASIS_BOUNDS = SuiteBounds(thm2_trials=5, thm2_order=8, thm2_degmax=4, thm2_rmax=2)


def _thm2_by_trials(bounds, seed, tables):
    """thm2 by trials alone: (index, counterexample) of the first failing f per (g, r)."""
    rng = random.Random(seed)
    polys = [identities._random_poly(rng, bounds.thm2_degmax) for _ in range(bounds.thm2_trials)]
    out = {}
    with use(tables):
        for name in ("exp", "geometric", "harmonic"):
            g = identities._named_g(name, bounds.thm2_order + bounds.thm2_degmax)
            for r in range(bounds.thm2_rmax + 1):
                out[name, r] = None
                for i, f in enumerate(polys):
                    rep = theorem2_check(f, g, r, bounds.thm2_order)
                    if not rep.passed:
                        out[name, r] = (i, rep.counterexample)
                        break
    return out


@pytest.mark.parametrize("fault", [None] + [(r, n, n - 1) for r in range(3) for n in range(1, 5)])
def test_thm2_basis_verdict_equals_the_trial_verdict(fault):
    tables = Tables({} if fault is None else {(st.S2R_DEGENERATE, *fault): LambdaPoly.one()})
    reference = _thm2_by_trials(_BASIS_BOUNDS, 3, Tables(tables.faults))
    reports = run_suite({"thm2"}, _BASIS_BOUNDS, seed=3, tables=tables)
    assert len(reports) == 9
    for rep in reports:
        params = dict(rep.params)
        assert params["trials"] == 5 and params["seed"] == 3
        found = reference[params["g"], params["r"]]
        if found is not None:
            i, bad = found
            assert rep.counterexample.to_json() == {
                "location": f"trial {i}: {bad.location}", "lhs": bad.lhs, "rhs": bad.rhs}
        elif not rep.passed:
            # no trial reaches the faulted row; a monomial names it
            assert rep.counterexample.location.startswith("monomial x^")
        assert rep.passed == (fault is None or params["r"] != fault[0])


def test_thm2_checks_each_monomial_once_per_group(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return theorem2_check(*args, **kwargs)

    monkeypatch.setattr(identities, "theorem2_check", counting)
    reports = run_suite({"thm2"}, _BASIS_BOUNDS, seed=3, tables=Tables())
    assert all(rep.passed for rep in reports)
    degmax, rmax = _BASIS_BOUNDS.thm2_degmax, _BASIS_BOUNDS.thm2_rmax
    assert len(calls) == (degmax + 1) * 3 * (rmax + 1)
    assert set(calls) == {XPoly.monomial(1, m) for m in range(degmax + 1)}


def test_verify_thm2_builds_its_blocks_once_per_r(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append((args[0], args[3]))
        return theorem2_blocks(*args, **kwargs)

    monkeypatch.setattr(identities, "theorem2_blocks", counting)
    bounds = SuiteBounds()
    # one block per r and l = 0..degmax, for every g; none in Q[l] on a clean run
    expected = [(r, at) for r in range(bounds.thm2_rmax + 1)
                for at in range(bounds.thm2_degmax + 1)]
    assert cli.main(["verify", "--suite", "thm2"]) == 0
    assert calls == expected
    calls.clear()  # thm8 reads the blocks thm2 built in the same run
    assert cli.main(["verify", "--suite", "thm2,thm8"]) == 0
    assert calls == expected


def test_thm2_basis_finds_a_fault_every_trial_misses():
    # seed 1 draws one f of degree 1, so no trial reaches row 5 of the triangle
    bounds = SuiteBounds(thm2_trials=1, thm2_order=8, thm2_degmax=6, thm2_rmax=0)
    faulted = Tables({(st.S2R_DEGENERATE, 0, 5, 2): LambdaPoly.one()})
    reports = run_suite({"thm2"}, bounds, seed=1, tables=faulted)
    assert len(reports) == 3
    for rep in reports:
        assert not rep.passed
        assert rep.counterexample.location.startswith(
            "monomial x^5: main form: coefficient of t^2"), rep.counterexample


_CERTIFIED = ("thm1", "thm2", "thm3", "thm8")
_SMALL = SuiteBounds(thm1_jmax=7, thm1_mmax=5, thm1_rmax=2, thm2_trials=8, thm2_degmax=4,
                     thm2_rmax=2, thm2_order=8, thm3_mmax=5, thm3_rmax=2, thm3_order=8,
                     thm3_numeric_mmax=-1, thm8_mmax=4, thm8_rmax=2, thm8_order=8)
_RNG = random.Random(18)
# (r, n, k) of S2r entries: columns k = 0 and k = n, then two seeded entries per r
_S2R_SAMPLE = sorted({(0, 0, 0), (1, 3, 0), (2, 5, 0), (1, 4, 4), (0, 5, 5), (2, 2, 2)} |
                     {(r, n, _RNG.randint(0, n)) for r in range(3)
                      for n in _RNG.sample(range(1, 6), 2)})


def _certified_and_every_index(bounds, faults, seed=5):
    """(``run_suite`` reports, the every-index oracle's) as JSON, both in ``Tables(faults)``."""
    reports = run_suite(_CERTIFIED, bounds, seed=seed, tables=Tables(faults))
    with use(Tables(faults)):
        expected = routes.every_index_reports(_CERTIFIED, bounds, seed)
    return [rep.to_json() for rep in reports], [rep.to_json() for rep in expected]


def test_clean_run_reports_equal_the_every_index_loops():
    reports, expected = _certified_and_every_index(
        SuiteBounds()._replace(thm3_numeric_mmax=-1), {}, seed=102)
    assert reports == expected and all(rep["passed"] for rep in reports)


@pytest.mark.parametrize("fault", _S2R_SAMPLE, ids=str)
def test_faulted_reports_equal_the_every_index_loops(fault):
    # a fault at k = n moves a check of m = n only from index n on, the last one it reads
    reports, expected = _certified_and_every_index(
        _SMALL, {(st.S2R_DEGENERATE, *fault): LambdaPoly([1, fault[1] - fault[2]])})
    assert reports == expected
    assert not all(rep["passed"] for rep in reports)


@pytest.mark.parametrize("bounds", [
    _SMALL._replace(thm3_order=5, thm8_order=4),  # --order = m: every index is read
    _SMALL._replace(thm1_mmax=7, thm1_jmax=4),    # m > jmax: thm1 reads every j
], ids=("order-m", "m-above-jmax"))
@pytest.mark.parametrize("fault", [None, (1, 4, 4), (1, 7, 7), (0, 6, 2)], ids=str)
def test_edge_reports_equal_the_every_index_loops(bounds, fault):
    faults = {} if fault is None else {(st.S2R_DEGENERATE, *fault): LambdaPoly.one()}
    top = max(bounds.thm1_mmax, bounds.thm2_degmax, bounds.thm3_mmax, bounds.thm8_mmax)
    if fault is not None and fault[1] > top:  # a row no check reads: the run refuses the fault
        with pytest.raises(ValueError, match=f"row {fault[1]} of {st.S2R_DEGENERATE} at r = "):
            run_suite(_CERTIFIED, bounds, tables=Tables(faults))
        return
    reports, expected = _certified_and_every_index(bounds, faults)
    assert reports == expected


def test_a_fault_that_vanishes_at_all_but_the_last_point_is_seen():
    # l(l-1)...(l-7) is zero at l = 0..7: the checks it reaches take l = 0..8 and fail at l = 8
    delta = classical_falling(LambdaPoly.param(), 8)
    reports, expected = _certified_and_every_index(_SMALL, {(st.S2R_DEGENERATE, 1, 3, 2): delta})
    assert reports == expected
    failed = {rep["check"] for rep in reports if not rep["passed"]}
    assert failed == set(_CERTIFIED)
    assert any(rep["params"] == {"m": 3, "r": 1, "mode": "plain", "jmax": 7}
               for rep in reports if rep["check"] == "thm1" and not rep["passed"])


def _numeric_by_polynomials(bounds):
    """thm3's numeric reports, each exact value the r-Fubini polynomial in Q[l] at x = 1, lam."""
    tol, out = bounds.thm3_tol_exponent, []
    for lam in identities._LAMBDAS:
        for m in range(bounds.thm3_numeric_mmax + 1):
            for r in range(bounds.thm3_numeric_rmax + 1):
                total = rfubini_numbers(m, r, lam, tol)
                exact = poly_by_sum(PolyFamily(RFUBINI_DEGENERATE, r), m).eval_x(1).subs(lam)
                bad = None if abs(total - exact) <= Fraction(1, 10 ** tol) else Counterexample(
                    "partial sum vs polynomial value", str(total), str(exact))
                params = {"kind": "numeric", "m": m, "r": r, "lambda": str(lam),
                          "tol_exponent": tol}
                out.append(make_report("thm3", params, bad))
    return out


# the faults whose verify-all output stays byte-identical, one with a rational delta
_VERIFY_FAULTS = ("stirling2r:1:3:2", "stirling2r:3:6:5", "stirling2d:0:4:2",
                  "stirling1ru:1:2:1", "stirling2d:0:4:2:1/3")


@pytest.mark.parametrize("fault", (None,) + _VERIFY_FAULTS, ids=str)
def test_verify_all_reports_equal_the_every_index_loops(fault, capsys):
    # thm1, thm2, thm3 and thm8 by every index in Q[l], thm3's numeric sums from the
    # polynomials, the other ids one check at a time outside a run
    code = cli.main(["verify", "--suite", "all"] + ([] if fault is None else ["--fault", fault]))
    reports = json.loads(capsys.readouterr().out)
    bounds, faults = SuiteBounds(), cli._fault_tables(fault).faults if fault else {}
    with use(Tables(faults)):
        expected = routes.every_index_reports(_CERTIFIED, bounds, 0) + _numeric_by_polynomials(
            bounds)
        for check_id in ("thm4", "thm5", "thm6", "cor7"):
            expected += identities._RUNNERS[check_id](bounds, 0)
    expected.sort(key=lambda rep: (rep.check_id, json.dumps(dict(rep.params), sort_keys=True,
                                                            default=str)))
    assert reports == [rep.to_json() for rep in expected]
    failed = sum(not rep["passed"] for rep in reports)
    assert len(reports) == 348 and code == (1 if failed else 0) and bool(failed) == bool(fault)
    if fault == "stirling2r:1:3:2":
        assert failed == 9  # perfbench's self-test fault


def test_thm8_reads_index_m_plus_one():
    # row 2 moved by perm(n, 2) - 2 perm(n, 1) + 2 = (n - 1)(n - 2): zero at n = 1, 2 only
    moved = {(st.S2R_DEGENERATE, 1, 2, k): LambdaPoly.const(delta)
             for k, delta in enumerate((2, -2, 1))}
    reports, expected = _certified_and_every_index(_SMALL, moved)
    assert reports == expected
    thm8 = {(rep["params"]["m"], rep["params"]["r"]): rep for rep in reports
            if rep["check"] == "thm8"}
    assert thm8[2, 1]["counterexample"]["location"] == "series: coefficient of t^3"


def test_a_run_builds_one_falling_table_and_one_blocks_per_r(monkeypatch):
    calls = {"falling": [], "blocks": []}
    for name, key in (("degen_falling_table", "falling"), ("theorem2_blocks", "blocks")):
        def counting(*args, _original=getattr(identities, name), _key=key):
            calls[_key].append(args)
            return _original(*args)
        monkeypatch.setattr(identities, name, counting)
    bounds = SuiteBounds()
    reports = run_suite(_CERTIFIED, bounds, tables=Tables())
    assert reports and all(rep.passed for rep in reports)
    # thm1 reads x^0..x^8 at r <= 4; thm2 and thm8 read up to index 7, thm3 up to 8; every
    # entry is of degree <= 8 in l, so l = 0..8 decide
    assert calls["falling"] == [(8 + 4, 8, at) for at in range(9)]
    assert calls["blocks"] == [(r, 8, 8, at) for r in range(bounds.thm1_rmax + 1)
                               for at in range(9)]
    for check_id in _CERTIFIED:  # alone, each check's own reach, at its own points
        calls["falling"].clear()
        run_suite({check_id}, bounds, tables=Tables())
        degmax = {"thm2": bounds.thm2_degmax, "thm8": bounds.thm8_mmax}.get(check_id, 8)
        assert [args[2] for args in calls["falling"]] == list(range(degmax + 1)), check_id
    # a fault of degree 10 in l takes l = 0..10
    calls["falling"].clear()
    faulted = Tables({(st.S2R_DEGENERATE, 1, 3, 2): LambdaPoly([0] * 10 + [1])})
    assert not all(rep.passed for rep in run_suite({"thm1"}, bounds, tables=faulted))
    assert [args[2] for args in calls["falling"]] == list(range(11))


_SHARED_BOUNDS = SuiteBounds(thm3_mmax=4, thm3_rmax=2, thm3_order=8, thm3_numeric_mmax=2,
                             thm3_numeric_rmax=1, thm6_kmax=3, thm6_order=8,
                             thm8_mmax=4, thm8_rmax=2, thm8_order=8)


def _unshared_reports(bounds, tables):
    """thm3, thm6 and thm8 with every check building its own series, sorted as run_suite sorts."""
    b, lams = bounds, (Fraction(1, 3), Fraction(1, 2))
    with use(tables):
        out = [check_thm3(m, r, b.thm3_order)
               for m in range(b.thm3_mmax + 1) for r in range(b.thm3_rmax + 1)]
        out += [check_thm3_numeric(m, r, lam, b.thm3_tol_exponent) for lam in lams
                for m in range(b.thm3_numeric_mmax + 1) for r in range(b.thm3_numeric_rmax + 1)]
        out += [check_thm6(k, b.thm6_order) for k in range(1, b.thm6_kmax + 1)]
        out += [check_thm8(m, r, b.thm8_order)
                for m in range(b.thm8_mmax + 1) for r in range(b.thm8_rmax + 1)]
    return sorted(out, key=lambda rep: (rep.check_id, json.dumps(dict(rep.params), sort_keys=True)))


@pytest.mark.parametrize("fault", [None] + [(r, n, n - 1) for r in range(3) for n in range(1, 5)])
def test_shared_series_give_the_unshared_reports(fault):
    tables = Tables({} if fault is None else {(st.S2R_DEGENERATE, *fault): LambdaPoly.one()})
    reference = _unshared_reports(_SHARED_BOUNDS, Tables(tables.faults))
    reports = run_suite({"thm3", "thm6", "thm8"}, _SHARED_BOUNDS, tables=tables)
    assert [rep.to_json() for rep in reports] == [rep.to_json() for rep in reference]
    # every fault sits in a row thm3 reads, so counterexamples are compared too
    assert all(rep.passed for rep in reports) == (fault is None)


def test_each_grid_builds_each_triangle_once(monkeypatch):
    builds = []
    build_rows = st._build_rows

    def counting(family, nmax):
        builds.append((family.id, family.r))
        return build_rows(family, nmax)

    monkeypatch.setattr(st, "_build_rows", counting)
    bounds = SuiteBounds()
    assert all(rep.passed for rep in run_suite({"thm5"}, bounds, tables=Tables()))
    assert len(builds) == len(set(builds)) == bounds.thm5_rmax + 1
    builds.clear()
    assert all(rep.passed for rep in run_suite({"thm4"}, bounds, tables=Tables()))
    assert builds == [(st.S2_DEGENERATE, 0)]
    for check_id in ("thm1", "thm2", "thm3", "thm8"):  # decided at points of l: no triangle
        builds.clear()
        assert all(rep.passed for rep in run_suite({check_id}, bounds, tables=Tables()))
        assert builds == [], check_id
    # a counterexample is named by interpolating the point values: no S2r triangle in Q[l]
    builds.clear()
    faulted = Tables({(st.S2R_DEGENERATE, 1, 3, 2): LambdaPoly.one()})
    assert not all(rep.passed for rep in run_suite({"thm1"}, bounds, tables=faulted))
    assert builds == []


def test_thm8_builds_its_series_once_per_run(monkeypatch):
    calls = []
    summed_brackets = identities._summed_brackets

    def counting(order, kmax, at):
        calls.append(at)
        return summed_brackets(order, kmax, at)

    monkeypatch.setattr(identities, "_summed_brackets", counting)
    default = SuiteBounds()
    doubled = default._replace(thm8_mmax=2 * default.thm8_mmax, thm8_rmax=2 * default.thm8_rmax)
    for bounds in (default, doubled):
        calls.clear()
        reports = run_suite({"thm8"}, bounds, tables=Tables())
        assert len(reports) == (bounds.thm8_mmax + 1) * (bounds.thm8_rmax + 1)
        assert all(rep.passed for rep in reports)
        # once per point of l, to their degree order + mmax - 1 in l; never in Q[l]
        assert calls == list(range(bounds.thm8_order + bounds.thm8_mmax))


def test_thm8_fails_every_instance_when_the_closed_form_fails(monkeypatch):
    bounds = SuiteBounds()._replace(thm8_mmax=4, thm8_rmax=2, thm8_order=8)
    order, mmax = bounds.thm8_order, bounds.thm8_mmax
    terms = identities.harmonic_terms

    def broken(order, kmax, at):  # T_2 moved by l at t^5: by l times the scale at a number
        step = at * _scale(order + kmax, at)
        return [tuple(c + step if (k, n) == (2, 5) else c for n, c in enumerate(term))
                for k, term in enumerate(terms(order, kmax, at))]

    assert identities._open_terms(order, mmax) is None  # the closed form holds
    monkeypatch.setattr(identities, "harmonic_terms", broken)
    oracle = routes.harmonic_terms_by_product(order, mmax)
    moved, closed = oracle[2].coeffs[5] + LambdaPoly([0, 1]), oracle[0].coeffs[5] * 10
    # the first (k, n) where T_k breaks C(n, k) H_n, interpolated from the point values
    assert identities._open_terms(order, mmax) == (2, 5, moved, closed)
    expected = first_mismatch(moved, closed, "T_2: coefficient of t^5")
    reports = run_suite({"thm8"}, bounds, tables=Tables())
    assert len(reports) == (mmax + 1) * (bounds.thm8_rmax + 1)
    assert all(rep.counterexample == expected is not None for rep in reports)
    # a single check reads the terms to its own m: those to m < 2 keep the closed form
    for m in range(mmax + 1):
        assert check_thm8(m, 1, order).counterexample == (expected if m >= 2 else None), m


def test_a_clean_harmonic_run_takes_no_lambda_poly_product(monkeypatch):
    # thm6, cor7 and thm8's terms decide at points of l, thm8's closed form on the g-free
    # tables there: none builds a value in Q[l]
    calls = []

    def counting(self, other, _original=LambdaPoly.__mul__):
        calls.append(other)
        return _original(self, other)

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(LambdaPoly, name, counting)
    reports = run_suite(["thm6", "cor7", "thm8"], tables=Tables())
    assert len(reports) == 136 and all(rep.passed for rep in reports)
    assert calls == []


def test_suite_takes_no_reciprocal_and_thm6_no_power(monkeypatch):
    calls = []  # the plan's builds included, thm6's harmonic series among them
    for name in ("reciprocal", "pow"):
        def counting(self, *args, _name=name, _original=getattr(TruncSeries, name)):
            calls.append(_name)
            return _original(self, *args)
        monkeypatch.setattr(TruncSeries, name, counting)
    reports = run_suite(identities.CHECK_IDS, SuiteBounds(), tables=Tables())
    assert reports and all(rep.passed for rep in reports)
    assert calls == []


def test_runs_read_one_falling_table_and_derive_once_per_step(monkeypatch):
    calls = {"derivative": 0}
    derivative = routes.derivative

    def no_falling(*args):
        raise AssertionError(f"degen_falling{args} called during a run")

    def counting_derivative(f):
        calls["derivative"] += 1
        return derivative(f)

    for module in (operators, identities):  # a name no longer imported is set, never called
        monkeypatch.setattr(module, "degen_falling", no_falling, raising=False)
    reports = run_suite({"thm1", "thm2", "thm3", "thm8"}, SuiteBounds(), tables=Tables())
    assert reports and all(rep.passed for rep in reports)
    # the suite reads thm1 off tables; its oracle takes each derivative from the previous one
    monkeypatch.setattr(routes, "derivative", counting_derivative)
    f = XPoly([LambdaPoly([k, 1]) for k in range(9)])
    for m in range(9):
        for r in range(min(m, 4) + 1):
            for mode in ("plain", "shifted"):
                before = calls["derivative"]
                routes.rhs_theorem1(OperatorSpec(m, r, mode), f)
                assert calls["derivative"] - before <= m, (m, r, mode)


def test_run_suite_with_own_tables_leaves_the_default_alone():
    # nothing outlives a run: both instances still hold only their faults, and a read after
    # the run builds its own value, the run's store gone
    default = current()
    own = Tables()
    bounds = SuiteBounds(thm1_mmax=4, thm1_rmax=2, thm1_jmax=4, thm5_nmax=5, thm5_rmax=3,
                         cor7_nmax=4, cor7_kmax=4)
    reports = run_suite({"thm1", "thm5", "cor7"}, bounds, seed=0, tables=own)
    assert reports and all(r.passed for r in reports)
    assert current() is default
    assert vars(own) == vars(default) == {"faults": {}}
    with use(own):
        for key in (("triangle", st.S1R_UNSIGNED_DEGENERATE, 3), ("harmonic", None),
                    ("harmonic", 0)):
            assert shared(key, str, "built") == "built", key


def test_concurrent_faulted_runs_equal_the_sequential_runs():
    # four threads, three of them on faulted Tables, each running the same grid twice
    bounds = SuiteBounds(thm1_mmax=4, thm1_rmax=2, thm1_jmax=4, thm4_nmax=5, thm5_nmax=5,
                         thm5_rmax=2)
    faults = [{}, {(st.S2R_DEGENERATE, 1, 3, 2): LambdaPoly.one()},
              {(st.S2_DEGENERATE, 0, 4, 2): LambdaPoly([0, 1])},
              {(st.S1R_UNSIGNED_DEGENERATE, 1, 2, 1): LambdaPoly.const(Fraction(1, 3))}]
    ids = {"thm1", "thm4", "thm5"}
    expect = [suite_json(run_suite(ids, bounds, tables=Tables(f))) for f in faults]
    assert [all(rep["passed"] for rep in json.loads(e)) for e in expect] == [True] + [False] * 3
    got = {}

    def runs(i):
        got[i] = [suite_json(run_suite(ids, bounds, tables=Tables(faults[i]))) for _ in range(2)]

    threads = [threading.Thread(target=runs, args=(i,)) for i in range(len(faults))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [got[i] for i in range(len(faults))] == [[e, e] for e in expect]


def test_check_report_invariant():
    rep = check_thm4(3)
    assert rep.passed == (rep.counterexample is None)
    payload = rep.to_json()
    assert payload["check"] == "thm4"
    assert payload["counterexample"] is None


def _rebind(monkeypatch, original, replacement):
    """Replace ``original`` by ``replacement`` wherever a qlambda module binds it."""
    for name, module in list(sys.modules.items()):
        if name == "qlambda" or name.startswith("qlambda."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


# builder -> the key of what it builds, from its arguments
_BUILDERS = {
    (st, "_build_rows"): lambda family, nmax: (family.id, family.r),
    (factorials, "degen_falling_table"): lambda amax, mmax, at: at,
    (operators, "theorem2_blocks"): lambda r, order, degmax, at: (r, at),
    (identities, "_binomial_sums"): lambda base, kmax, at: (len(base), at),
    (identities, "harmonic_terms"): lambda order, kmax, at: (order, at),
    (fubini_bell, "poly_by_sum"): lambda family, n: (family, n),
    (harmonic, "harmonic_row"): lambda nmax, at=None: at,
}


def test_a_run_builds_every_shared_value_once_before_any_check(monkeypatch):
    started, builds = [], []
    for (module, name), key in _BUILDERS.items():
        def building(*args, _name=name, _key=key, _original=getattr(module, name)):
            builds.append((_name, _key(*args), bool(started)))
            return _original(*args)
        _rebind(monkeypatch, getattr(module, name), building)
    for module in (identities, operators):
        for name in dir(module):
            if name.startswith("check_") or name.startswith("theorem") and name.endswith("_check"):
                def checking(*args, _original=getattr(module, name)):
                    started.append(True)
                    return _original(*args)
                _rebind(monkeypatch, getattr(module, name), checking)
    reports = run_suite(identities.CHECK_IDS, tables=Tables())
    assert len(reports) == 348 and all(rep.passed for rep in reports) and started
    assert [build for build in builds if build[2]] == []  # none after the first check
    keys = [build[:2] for build in builds]
    assert len(keys) == len(set(keys))
    assert {name for name, _ in keys} == {name for _, name in _BUILDERS}
    poly_keys = {key for name, key in keys if name == "poly_by_sum"}
    assert len(poly_keys) == 17  # thm4's n <= 16; thm3 decides at points of l
    assert all(key[1] is not None for name, key in keys if name == "theorem2_blocks")


def _outside_a_run(check_id, bounds, seed, tables):
    """The checks of ``check_id``'s grid, called one by one in ``tables`` outside any run."""
    with use(tables):
        reports = identities._RUNNERS[check_id](bounds, seed)
    return sorted(reports, key=lambda rep: json.dumps(dict(rep.params), sort_keys=True))


@pytest.mark.parametrize("fault", [None, (1, 3, 2)], ids=("clean", "stirling2r"))
@pytest.mark.parametrize("check_id", identities.CHECK_IDS)
def test_run_reports_equal_the_checks_outside_a_run(check_id, fault):
    faults = {} if fault is None else {(st.S2R_DEGENERATE, *fault): LambdaPoly.one()}
    bounds = SuiteBounds(thm2_trials=8)
    expected = _outside_a_run(check_id, bounds, 3, Tables(faults))
    if fault is not None and check_id not in ("thm1", "thm2", "thm3", "thm8"):
        # no check of this id reads an S2r triangle: the run refuses the fault, which its
        # checks, called outside a run, never see
        with pytest.raises(ValueError, match=f"row 3 of {st.S2R_DEGENERATE} at r = 1,"):
            run_suite({check_id}, bounds, seed=3, tables=Tables(faults))
        assert all(rep.passed for rep in expected)
        return
    reports = run_suite({check_id}, bounds, seed=3, tables=Tables(faults))
    assert [rep.to_json() for rep in reports] == [rep.to_json() for rep in expected]
    assert all(rep.passed for rep in reports) == (fault is None)


def test_a_run_refuses_a_value_its_plan_does_not_list():
    with run([("planned", int, 7)]):
        assert shared("planned", int, 0) == 7
        with pytest.raises(LookupError, match="not in the run's plan"):
            shared("unplanned", int, 0)
    assert shared("planned", int, 0) == 0
