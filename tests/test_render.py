"""Canonical rendering round trips and the ASCII polynomial rule."""

import random
from fractions import Fraction

import pytest

from qlambda.kernel import QL, QLX, QQ, LambdaPoly, TruncSeries, XPoly
from qlambda.render import (lambda_poly_ascii, lambda_poly_json, parse_lambda_poly,
                            parse_rational, parse_series, parse_value, parse_xpoly,
                            rational_str, to_cells, to_json)


def test_rational_strings():
    assert rational_str(Fraction(5, 6)) == "5/6"
    assert rational_str(Fraction(-5, 6)) == "-5/6"
    assert rational_str(Fraction(7)) == "7"
    assert parse_rational("5/6") == Fraction(5, 6)
    assert parse_rational("-3") == Fraction(-3)


@pytest.mark.parametrize("bad", ["1.5", "1/-2", "a", "1/2/3", "", "1/0", 3, ["1"]])
def test_rational_parse_rejects_non_canonical(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_ascii_rule():
    assert lambda_poly_ascii(LambdaPoly([1, -1])) == "1 - l"
    assert lambda_poly_ascii(LambdaPoly([3, -3])) == "3 - 3 l"
    assert lambda_poly_ascii(LambdaPoly([0])) == "0"
    assert lambda_poly_ascii(LambdaPoly([Fraction(1, 2), 0, Fraction(5, 2)])) == "1/2 + 5/2 l^2"
    assert lambda_poly_ascii(LambdaPoly([-1, 1])) == "-1 + l"
    assert lambda_poly_ascii(LambdaPoly([0, 0, -1])) == "-l^2"


def _rng_lp(rng):
    return LambdaPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(rng.randint(0, 5))])


def test_round_trips():
    rng = random.Random(3)
    for _ in range(200):
        p = _rng_lp(rng)
        assert parse_lambda_poly(lambda_poly_json(p)) == p
        xp = XPoly([_rng_lp(rng) for _ in range(rng.randint(0, 4))])
        assert parse_xpoly(to_json(xp)) == xp
    s = TruncSeries(QL, [_rng_lp(rng) for _ in range(6)])
    assert parse_series(to_json(s), QL) == s
    sx = TruncSeries(QLX, [XPoly([_rng_lp(rng)]) for _ in range(4)])
    assert parse_series(to_json(sx), QLX) == sx
    sq = TruncSeries(QQ, [Fraction(1, n + 1) for n in range(5)])
    assert parse_series(to_json(sq), QQ) == sq


def test_series_json_shape():
    s = TruncSeries(QL, [LambdaPoly.zero(), LambdaPoly.one()])
    assert to_json(s) == {"order": 1, "coeffs": [[], ["1"]]}
    for bad in ({"order": 3, "coeffs": [[], ["1"]]}, {"order": "x", "coeffs": []},
                {"order": True, "coeffs": [[], []]}, {"order": 0, "coeffs": 5}, {"order": 0},
                {"order": 0, "coeffs": [5]}):
        with pytest.raises(ValueError):
            parse_series(bad, QL)


def test_parse_value_reads_every_json_form():
    lp = LambdaPoly([1, Fraction(-1, 2)])
    xp = XPoly([lp, LambdaPoly.one()])
    for value in (Fraction(-3, 4), lp, xp, XPoly.zero(),
                  TruncSeries(QQ, [1, Fraction(1, 2)]), TruncSeries(QL, [LambdaPoly.zero(), lp]),
                  TruncSeries(QLX, [XPoly.zero(), xp])):
        got = parse_value(to_json(value))
        assert type(got) is type(value) and got == value, value
    with pytest.raises(ValueError):
        parse_value({"coeffs": []})


def test_cells_pad_to_width_and_json_strips_at_lambda():
    xp = XPoly([LambdaPoly([1, -1]), LambdaPoly.zero(), LambdaPoly.one()])
    assert to_cells(xp) == ["1 - l", "0", "1"]
    assert to_cells(xp, width=5) == ["1 - l", "0", "1", "0", "0"]
    assert to_cells(xp, Fraction(1), 4) == ["0", "0", "1", "0"]
    assert to_cells([LambdaPoly.one(), LambdaPoly.param()], Fraction(1, 3)) == ["1", "1/3"]
    assert to_json(xp, Fraction(1)) == ["0", "0", "1"]
    assert to_json(XPoly([LambdaPoly([1, -1])]), Fraction(1)) == []
    lp = LambdaPoly([2, 3])
    assert to_json(lp, Fraction(-1)) == "-1" and to_json([lp]) == [["2", "3"]]
