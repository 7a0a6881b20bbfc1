"""Every text form of a kernel value, and its parser.

This module alone decides how a value becomes text; the CLI picks what to
compute and hands the value over.  The wire formats:

* Rational        -> "p/q" with q > 0, plain "p" when q = 1
* LambdaPoly      -> JSON array of Rational strings, ascending degree
* XPoly           -> JSON array of LambdaPoly arrays
* TruncSeries     -> {"order": N, "coeffs": [...]}
* ASCII (for CSV) -> "c0 + c1 l + c2 l^2", with the letter "l" for the
  degeneracy parameter and canonical Rational coefficients.

``to_json`` and ``to_cells`` take an optional rational ``lam`` to
substitute for the parameter first: a ``LambdaPoly`` then renders as one
Rational and an ``XPoly`` as its Rational x-coefficients.  ``parse_value``
reads any of the JSON forms back.

Parsing is strict: a rational string must match ``p`` or ``p/q`` with an
unsigned q, so round trips are exact.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .kernel import QL, QLX, QQ, LambdaPoly, TruncSeries, XPoly

_RATIONAL_RE = re.compile(r"^-?\d+(/0*[1-9]\d*)?$")


def rational_str(q: Fraction) -> str:
    return str(Fraction(q))


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a canonical rational: {text!r}")
    return Fraction(text)


def lambda_poly_json(p: LambdaPoly) -> list[str]:
    return [rational_str(c) for c in p.coeffs]


def parse_lambda_poly(items) -> LambdaPoly:
    if not isinstance(items, list):
        raise ValueError(f"expected an array of rational strings, got {type(items).__name__}")
    return LambdaPoly(parse_rational(s) for s in items)


def parse_xpoly(items) -> XPoly:
    if not isinstance(items, list):
        raise ValueError(f"expected an array of coefficient arrays, got {type(items).__name__}")
    return XPoly(parse_lambda_poly(row) for row in items)


def to_json(value, lam: Fraction | None = None):
    """JSON form of a kernel value, or of a list or tuple of them, at ``lam`` if given."""
    if isinstance(value, LambdaPoly):  # nearly every call
        return lambda_poly_json(value) if lam is None else rational_str(value.subs(lam))
    if isinstance(value, XPoly):  # its LambdaPoly coefficients, or rationals at lam
        return to_json(value.coeffs if lam is None else value.subs_lambda(lam))
    if isinstance(value, TruncSeries):
        return {"order": value.order, "coeffs": to_json(value.coeffs, lam)}
    if isinstance(value, (list, tuple)):
        return [to_json(v, lam) for v in value]
    if isinstance(value, Fraction):
        return rational_str(value)
    raise TypeError(f"no JSON form for {type(value).__name__}")


def to_cells(value, lam: Fraction | None = None, width: int = 1) -> list[str]:
    """CSV cells: one per ``LambdaPoly``, one per x-coefficient of an ``XPoly``
    (at least ``width`` of them), and a list's elements' cells in order."""
    if isinstance(value, LambdaPoly):
        return [lambda_poly_ascii(value) if lam is None else rational_str(value.subs(lam))]
    if isinstance(value, XPoly):
        return to_cells([value.coeff(k) for k in range(max(len(value.coeffs), width))], lam)
    if isinstance(value, (list, tuple)):
        return [cell for v in value for cell in to_cells(v, lam)]
    raise TypeError(f"no CSV form for {type(value).__name__}")


def parse_series(obj, ring) -> TruncSeries:
    order, raw = obj.get("order"), obj.get("coeffs")
    if type(order) is not int or not isinstance(raw, list):
        raise ValueError("a series needs an integer order and a coeffs array")
    if len(raw) != order + 1:
        raise ValueError(f"series claims order {order} but has {len(raw)} coefficients")
    if ring is QLX:
        coeffs = [parse_xpoly(c) for c in raw]
    elif ring is QL:
        coeffs = [parse_lambda_poly(c) for c in raw]
    else:
        coeffs = [parse_rational(c) for c in raw]
    return TruncSeries(ring, coeffs)


def parse_value(obj):
    """A value from its JSON form: a rational string, a ``LambdaPoly`` array, an
    ``XPoly`` array of arrays (``[]`` included) or a series object, whose ring
    is read off its first non-empty coefficient."""
    if isinstance(obj, str):
        return parse_rational(obj)
    if isinstance(obj, dict) and "order" in obj:
        raw = obj.get("coeffs")
        first = next((c for c in raw if c), None) if isinstance(raw, list) else None
        ring = QQ if isinstance(first, str) else QL
        if isinstance(first, list) and isinstance(first[0], list):
            ring = QLX
        return parse_series(obj, ring)
    if isinstance(obj, list):
        if not obj or any(isinstance(item, list) for item in obj):
            return parse_xpoly(obj)
        return parse_lambda_poly(obj)
    raise ValueError("stdin JSON must be a rational string, polynomial array, or series object")


def _term_ascii(mag: Fraction, power: int, var: str) -> str:
    if power == 0:
        return rational_str(mag)
    head = "" if mag == 1 else rational_str(mag) + " "
    return head + (var if power == 1 else f"{var}^{power}")


def _poly_ascii(coeffs, var: str) -> str:
    parts: list[str] = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if not parts:
            sign = "-" if c < 0 else ""
            parts.append(sign + _term_ascii(mag, power, var))
        else:
            parts.append(("- " if c < 0 else "+ ") + _term_ascii(mag, power, var))
    return " ".join(parts) if parts else "0"


def lambda_poly_ascii(p: LambdaPoly) -> str:
    """ASCII rendering with the letter "l" for the degeneracy parameter."""
    return _poly_ascii(p.coeffs, "l")


def xpoly_ascii(p: XPoly) -> str:
    parts: list[str] = []
    for power, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        if c.degree <= 0:
            piece = _poly_ascii((c.coeff(0),), "l") if power == 0 else _term_ascii(
                abs(c.coeff(0)), power, "x")
            neg = power > 0 and c.coeff(0) < 0
        else:
            body = lambda_poly_ascii(c)
            piece = f"({body})" if power == 0 else f"({body}) " + ("x" if power == 1 else f"x^{power}")
            neg = False
        if not parts:
            parts.append(("-" if neg else "") + piece)
        else:
            parts.append(("- " if neg else "+ ") + piece)
    return " ".join(parts) if parts else "0"
