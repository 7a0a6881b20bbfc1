"""Harmonic and hyperharmonic values, their generating series and limits."""

import itertools
import math
import sys
import threading
from fractions import Fraction

import pytest

from qlambda import stirling as st
from qlambda.harmonic import (degen_harmonic, degen_hyperharmonic, harmonic_gf, harmonic_row,
                               hyperharmonic_row)
from qlambda.kernel import LambdaPoly
from qlambda.tables import Tables, run, use

from oracles import harmonic_sum, hyperharmonic_sum


def test_harmonic_examples():
    assert degen_harmonic(0) == LambdaPoly.zero()
    assert degen_harmonic(1) == LambdaPoly.one()
    assert degen_harmonic(2) == LambdaPoly([Fraction(3, 2), Fraction(-1, 2)])
    assert degen_harmonic(3).subs(0) == Fraction(11, 6)
    with pytest.raises(ValueError):
        degen_harmonic(-1)


def test_hyperharmonic_examples():
    assert degen_hyperharmonic(2, 2) == LambdaPoly([Fraction(5, 2), Fraction(-1, 2)])
    for r in range(1, 7):
        assert degen_hyperharmonic(0, r) == LambdaPoly.zero()
        assert degen_hyperharmonic(1, r) == LambdaPoly.one()
    with pytest.raises(ValueError):
        degen_hyperharmonic(2, 0)
    with pytest.raises(ValueError):
        degen_hyperharmonic(-1, 2)


def test_gf_matches_recursion_up_to_order_16():
    for r in range(1, 6):
        series = harmonic_gf(r, 16)
        assert series.coeff(0) == LambdaPoly.zero()
        for n in range(17):
            assert series.coeff(n) == degen_hyperharmonic(n, r), (n, r)


def test_gf_examples():
    assert harmonic_gf(1, 4).coeff(2) == degen_harmonic(2)
    assert harmonic_gf(2, 4).coeff(2) == LambdaPoly([Fraction(5, 2), Fraction(-1, 2)])
    with pytest.raises(ValueError):
        harmonic_gf(0, 4)


def test_classical_limit_to_order_20():
    for n in range(21):
        assert degen_harmonic(n).subs(0) == harmonic_sum(n)
    for r in range(1, 5):
        for n in range(12):
            assert degen_hyperharmonic(n, r).subs(0) == hyperharmonic_sum(n, r), (n, r)


def test_first_column_bridge_to_unsigned_r_triangles():
    for r in range(1, 5):
        fam = st.StirlingFamily(st.S1R_UNSIGNED_DEGENERATE, r)
        for n in range(1, 13):
            lhs = degen_hyperharmonic(n, r) * math.factorial(n)
            assert lhs == st.stirling_value(fam, n, 1), (n, r)


def test_degree_grows_linearly():
    for n in range(1, 16):
        assert degen_harmonic(n).degree == n - 1


def _partial_sums(harmonic, n, r):
    """Order r as r - 1 partial sums of the degenerate harmonic row ``harmonic[:n + 1]``."""
    row = harmonic[:n + 1]
    for _ in range(r - 1):
        row = list(itertools.accumulate(row))
    return row[n]


def test_binomial_convolution_equals_iterated_partial_sums():
    cases = [(n, r) for n in range(21) for r in range(1, 13)]
    cases += [(2, 5000)] + [(4, r) for r in (65, 66, 67)]
    harmonic = [degen_harmonic(j) for j in range(21)]
    with run([(("harmonic", None), harmonic_row, 20)]):  # each reads the run's row
        for n, r in cases:
            assert degen_hyperharmonic(n, r) == _partial_sums(harmonic, n, r), (n, r)


def test_large_order_rows_are_built_without_recursion():
    # one binomial convolution of the harmonic row, r far past the recursion limit
    with use(Tables()):
        assert degen_hyperharmonic(2, 5000) == LambdaPoly([Fraction(10001, 2), Fraction(-1, 2)])
        for r in (64, 65, 67):  # longer convolutions at large r
            assert degen_hyperharmonic(4, r).subs(0) == hyperharmonic_sum(4, r), r


def test_hyperharmonic_row_matches_each_value():
    # the row's prefix sums against each value's convolution, 2r > nmax included
    for nmax in range(13):
        for r in range(1, 6):
            with use(Tables()):
                row = hyperharmonic_row(nmax, r)
            assert row == [degen_hyperharmonic(n, r) for n in range(nmax + 1)], (nmax, r)
    with pytest.raises(ValueError):
        hyperharmonic_row(4, 0)


def test_rows_grow_consistently_under_threads():
    tables = Tables()
    expect = {(n, r): degen_hyperharmonic(n, r) for r in (1, 2, 3) for n in range(13)}
    got = []

    def grab(seed):
        with use(tables):
            for step in range(24):
                n, r = (seed * 5 + step * 7) % 13, 1 + (seed + step) % 3
                got.append(((n, r), degen_hyperharmonic(n, r)))

    threads = [threading.Thread(target=grab, args=(i,)) for i in range(6)]
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
    assert len(got) == 6 * 24
    assert all(value == expect[key] for key, value in got)
