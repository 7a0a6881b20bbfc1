"""Stirling families: examples, route agreement, limits, faults and threads."""

import sys
import threading
from fractions import Fraction

import pytest

from qlambda import stirling as st
from qlambda.identities import CHECK_IDS, run_suite
from qlambda.kernel import LambdaPoly
from qlambda.tables import Tables, current, use

from oracles import cycle_counts, stirling2_counts
from routes import row_by_basis, stirling_by_basis, triangle_by_gf

F2D = st.StirlingFamily(st.S2_DEGENERATE)
F1D = st.StirlingFamily(st.S1_DEGENERATE)


def test_by_basis_examples():
    assert stirling_by_basis(F2D, 2, 1) == LambdaPoly([1, -1])
    assert stirling_by_basis(st.StirlingFamily(st.S2R_DEGENERATE, 2), 1, 0) == \
        LambdaPoly.const(2)
    for fam in (F2D, F1D, st.StirlingFamily(st.S1R_UNSIGNED_DEGENERATE, 3)):
        for n in range(11):
            assert stirling_by_basis(fam, n, n) == LambdaPoly.one()
    assert stirling_by_basis(F2D, 2, 3) == LambdaPoly.zero()


def test_recurrence_examples():
    tri = st.triangle(F2D, 12)
    assert tri.entry(3, 2) == LambdaPoly([3, -3])
    for n in range(13):
        assert tri.entry(n, n) == LambdaPoly.one()
    assert tri.entry(4, 2).subs(0) == 7
    with pytest.raises(ValueError):
        st.stirling_value(F2D, -1, 0)


def test_by_gf_examples():
    for r in range(4):
        fam = st.StirlingFamily(st.S1R_UNSIGNED_DEGENERATE, r)
        assert triangle_by_gf(fam, 1).entry(1, 1) == LambdaPoly.one()
    assert triangle_by_gf(F2D, 2).entry(2, 1) == LambdaPoly([1, -1])
    assert triangle_by_gf(F1D, 2).entry(2, 1) == LambdaPoly([-1, 1])
    with pytest.raises(ValueError):
        triangle_by_gf(F2D, 4).entry(5, 2)


def test_unsigned_first_kind_examples():
    assert st.unsigned_first_kind(2, 1) == LambdaPoly([1, -1])
    for n in range(9):
        assert st.unsigned_first_kind(n, n) == LambdaPoly.one()
    assert st.unsigned_first_kind(3, 1).subs(0) == 2


def test_unsigned_first_kind_is_the_sign_flipped_signed_kind():
    # symbolic in l: the recurrence route (S1-unsigned and S1r-unsigned at r = 0
    # share it) against the signed triangle's own route
    signed = st.triangle(F1D, 12)
    for fam in (st.StirlingFamily(st.S1_UNSIGNED_DEGENERATE),
                st.StirlingFamily(st.S1R_UNSIGNED_DEGENERATE, 0)):
        unsigned = st.triangle(fam, 12)
        for n in range(13):
            for k in range(n + 1):
                assert unsigned.entry(n, k) == signed.entry(n, k) * ((-1) ** (n - k)), (fam, n, k)


def _families(rmax):
    fams = [st.StirlingFamily(fid) for fid in st.FAMILY_IDS if fid not in st.R_FAMILY_IDS]
    for fid in st.R_FAMILY_IDS:
        fams.extend(st.StirlingFamily(fid, r) for r in range(rmax + 1))
    return fams


def test_three_way_agreement_small_grid():
    # The full acceptance grid runs n <= 12, r <= 4; keep the module test lean.
    nmax = 7
    for fam in _families(2):
        gf_tri = triangle_by_gf(fam, nmax)
        for n in range(nmax + 1):
            for k in range(n + 1):
                a = stirling_by_basis(fam, n, k)
                b = gf_tri.entry(n, k)
                assert a == b, (fam, n, k)


def test_recurrence_triangles_equal_the_basis_route():
    # the three recurrence-built families against their basis expansions, which share no
    # arithmetic with the recurrence
    fams = [st.StirlingFamily(fid) for fid in (st.S2_DEGENERATE, st.S1_UNSIGNED_DEGENERATE)]
    fams += [st.StirlingFamily(st.S1R_UNSIGNED_DEGENERATE, r) for r in range(6)]
    assert {fam.id for fam in fams} == set(st._RECURRENCES)
    with use(Tables()):
        for fam in fams:
            tri = st.triangle(fam, 24)
            for n in range(25):
                by_basis = row_by_basis(fam, n)
                for k in range(n + 1):
                    assert tri.entry(n, k) == by_basis[k], (fam, n, k)
            assert tri.entry(24, 3) == stirling_by_basis(fam, 24, 3)


def test_verify_all_expands_no_recurrence_family_in_a_basis(monkeypatch):
    seen = set()
    row_by_basis = st._row_by_basis

    def recording(family, n):
        seen.add(family.id)
        return row_by_basis(family, n)

    monkeypatch.setattr(st, "_row_by_basis", recording)
    reports = run_suite(CHECK_IDS, tables=Tables())
    assert reports and all(rep.passed for rep in reports)
    assert not seen  # thm1, thm2, thm3 and thm8 decide at points of l, the rest on recurrences
    faulted = Tables({(st.S2R_DEGENERATE, 1, 3, 2): LambdaPoly.one()})
    assert not all(rep.passed for rep in run_suite(CHECK_IDS, tables=faulted))
    assert not seen  # the counterexamples are interpolated from the point values


def test_matrix_inversion_of_the_two_kinds():
    nmax = 10
    t1 = st.triangle(F1D, nmax)
    t2 = st.triangle(F2D, nmax)
    for n in range(nmax + 1):
        for m in range(n + 1):
            acc = LambdaPoly.zero()
            for k in range(m, n + 1):
                acc = acc + t1.entry(n, k) * t2.entry(k, m)
            expect = LambdaPoly.one() if n == m else LambdaPoly.zero()
            assert acc == expect, (n, m)


def test_classical_limits_against_enumeration():
    # n = 10 enumerates all 3.6M permutations; a few seconds, still exact
    t2, t2c, tu, t1 = (st.triangle(fam, 10) for fam in (
        F2D, st.StirlingFamily(st.S2_CLASSICAL), st.StirlingFamily(st.S1_UNSIGNED_DEGENERATE),
        F1D))
    for n in range(11):
        s2 = stirling2_counts(n)
        c1 = cycle_counts(n)
        for k in range(n + 1):
            assert t2.entry(n, k).subs(0) == s2.get(k, 0), (n, k)
            assert t2c.entry(n, k) == LambdaPoly.const(s2.get(k, 0))
            assert tu.entry(n, k).subs(0) == c1.get(k, 0), (n, k)
            assert t1.entry(n, k).subs(0) == (-1) ** (n - k) * c1.get(k, 0), (n, k)


def test_r_zero_reduces_to_plain_families():
    for r_family, plain in ((st.S2R_DEGENERATE, F2D), (st.S1R_DEGENERATE, F1D),
                            (st.S1R_UNSIGNED_DEGENERATE,
                             st.StirlingFamily(st.S1_UNSIGNED_DEGENERATE))):
        assert st.triangle(st.StirlingFamily(r_family, 0), 10).rows == \
            st.triangle(plain, 10).rows, r_family


def test_first_column_two_term_split():
    fam1 = st.StirlingFamily(st.S1R_UNSIGNED_DEGENERATE, 1)
    two_lam = LambdaPoly.param() * 2
    for n in range(1, 13):
        lhs = st.stirling_value(fam1, n, 1)
        rhs = two_lam * st.stirling_value(fam1, n, 2) + st.unsigned_first_kind(n + 1, 2)
        assert lhs == rhs, n


def test_degenerate_triangle_edge_invariants():
    for fid in (st.S1_DEGENERATE, st.S2_DEGENERATE, st.S1_UNSIGNED_DEGENERATE):
        tri = st.triangle(st.StirlingFamily(fid), 8)
        for n in range(1, 9):
            assert tri.entry(n, n) == LambdaPoly.one()
            assert tri.entry(n, 0) == LambdaPoly.zero()


def test_triangle_examples_and_zero_conventions():
    tri = st.triangle(F2D, 2)
    assert tri.entry(0, 0) == LambdaPoly.one()
    assert tri.entry(2, 1) == LambdaPoly([1, -1])
    assert tri.entry(2, 2) == LambdaPoly.one()
    assert tri.entry(1, 1) == LambdaPoly.one()
    assert st.stirling_value(F2D, 3, 9) == LambdaPoly.zero()
    with pytest.raises(ValueError):
        tri.entry(5, 0)
    with pytest.raises(ValueError):
        st.stirling_value(F2D, -1, 0)


def test_triangle_cache_is_idempotent_under_threads():
    tables = Tables()  # one instance, shared by every thread
    fam = st.StirlingFamily(st.S2R_DEGENERATE, 1)
    expect = st.triangle(fam, 9)
    results = []

    def grab():
        with use(tables):
            results.append(st.triangle(fam, 9))

    threads = [threading.Thread(target=grab) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert all(tri == expect for tri in results)


def test_fault_injection_changes_exactly_one_entry():
    # a basis-built family and both unsigned recurrence families: a fault is added
    # after the build, so the recurrence never carries it into later rows
    for fam in (st.StirlingFamily(st.S2R_DEGENERATE, 1),
                st.StirlingFamily(st.S1R_UNSIGNED_DEGENERATE, 2),
                st.StirlingFamily(st.S1_UNSIGNED_DEGENERATE)):
        clean = st.triangle(fam, 5)
        delta = LambdaPoly.const(Fraction(1, 7))
        with use(Tables({(fam.id, fam.r, 3, 1): delta})):
            dirty = st.triangle(fam, 5)
        for n in range(6):
            for k in range(n + 1):
                if (n, k) == (3, 1):
                    assert dirty.entry(n, k) == clean.entry(n, k) + delta, fam
                else:
                    assert dirty.entry(n, k) == clean.entry(n, k), (fam, n, k)
        assert st.triangle(fam, 5).rows == clean.rows


def test_faulted_build_never_reaches_a_concurrent_clean_store(monkeypatch):
    # The faulted build pauses inside the row builder; meanwhile the main
    # thread reads the same family from the default tables.  A global fault
    # flag cleared mid-build used to let the faulted triangle into the
    # shared cache, where every later clean read saw it.
    fam = st.StirlingFamily(st.S2R_DEGENERATE, 1)
    expect = triangle_by_gf(fam, 5)
    faulted = Tables({(fam.id, fam.r, 3, 1): LambdaPoly.const(Fraction(1, 7))})
    building, release = threading.Event(), threading.Event()
    real_build = st._build_rows

    def paused_build(family, nmax):
        if current() is faulted:
            building.set()
            assert release.wait(30)
        return real_build(family, nmax)

    monkeypatch.setattr(st, "_build_rows", paused_build)
    dirty = []

    def faulted_run():
        with use(faulted):
            dirty.append(st.triangle(fam, 6))

    worker = threading.Thread(target=faulted_run)
    worker.start()
    try:
        assert building.wait(30)
        assert st.triangle(fam, 5).entry(3, 1) == expect.entry(3, 1)
    finally:
        release.set()
        worker.join(60)
    assert not worker.is_alive()
    assert dirty[0].entry(3, 1) == expect.entry(3, 1) + LambdaPoly.const(Fraction(1, 7))
    assert st.triangle(fam, 5).rows == expect.rows


def test_family_validation():
    with pytest.raises(ValueError):
        st.StirlingFamily("nope")
    with pytest.raises(ValueError):
        st.StirlingFamily(st.S2_DEGENERATE, 2)
    with pytest.raises(ValueError):
        st.StirlingFamily(st.S2R_DEGENERATE, -1)
