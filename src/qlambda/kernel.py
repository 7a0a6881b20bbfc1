"""Exact arithmetic kernel.

Three nested coefficient rings, all exact over the rationals:

* ``Fraction``   -- scalars (stdlib ``fractions``),
* ``LambdaPoly`` -- polynomials in the degeneracy parameter ("l" in text
  renderings),
* ``XPoly``      -- polynomials in x whose coefficients are ``LambdaPoly``,

plus ``TruncSeries``, a truncated formal power series over any of them.
A series carries its truncation order explicitly: combining series of
different orders raises instead of silently truncating, and taking a
derivative lowers the order by exactly one.

Every value is immutable and hashable, so results may be shared freely
between threads; there is no floating point anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class LambdaPoly:
    """Dense polynomial in the degeneracy parameter over ``Fraction``.

    Coefficients are stored in ascending degree with no trailing zeros;
    the zero polynomial is the empty tuple.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("LambdaPoly is immutable")

    @staticmethod
    def const(value: Scalar) -> "LambdaPoly":
        return LambdaPoly((value,))

    @staticmethod
    def zero() -> "LambdaPoly":
        return _LP_ZERO

    @staticmethod
    def one() -> "LambdaPoly":
        return _LP_ONE

    @staticmethod
    def param() -> "LambdaPoly":
        """The degeneracy parameter itself (the degree-1 monomial)."""
        return _LP_PARAM

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        other = _coerce_lp(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return LambdaPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LambdaPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce_lp(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_lp(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return _LP_ZERO
            return LambdaPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return _LP_ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return LambdaPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar):
        scalar = _as_fraction(scalar)
        if scalar == 0:
            raise ZeroDivisionError("polynomial division by zero scalar")
        return LambdaPoly(tuple(c / scalar for c in self.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = _LP_ONE
        for _ in range(n):
            out = out * self
        return out

    def subs(self, value: Scalar) -> Fraction:
        """Substitute a rational for the parameter (Horner)."""
        value = _as_fraction(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __eq__(self, other):
        if isinstance(other, LambdaPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == (() if other == 0 else (Fraction(other),))
        return NotImplemented

    def __hash__(self):
        return hash(("LambdaPoly", self.coeffs))

    def __repr__(self):
        from .render import lambda_poly_ascii

        return f"LambdaPoly({lambda_poly_ascii(self)!r})"


def _coerce_lp(value) -> "LambdaPoly":
    if isinstance(value, LambdaPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LambdaPoly((value,))
    return NotImplemented


_LP_ZERO = LambdaPoly.__new__(LambdaPoly)
object.__setattr__(_LP_ZERO, "coeffs", ())
_LP_ONE = LambdaPoly.__new__(LambdaPoly)
object.__setattr__(_LP_ONE, "coeffs", (Fraction(1),))
_LP_PARAM = LambdaPoly.__new__(LambdaPoly)
object.__setattr__(_LP_PARAM, "coeffs", (Fraction(0), Fraction(1)))


class XPoly:
    """Dense polynomial in x with ``LambdaPoly`` coefficients.

    Canonical form strips trailing zero coefficients; the zero polynomial
    is the empty tuple.  Immutable, like every kernel value.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[LambdaPoly, ...]

    def __init__(self, coeffs: Iterable = ()):
        cs = []
        for c in coeffs:
            lp = _coerce_lp(c)
            if lp is NotImplemented:
                raise TypeError(f"bad XPoly coefficient {c!r}")
            cs.append(lp)
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("XPoly is immutable")

    @staticmethod
    def const(value) -> "XPoly":
        return XPoly((value,))

    @staticmethod
    def zero() -> "XPoly":
        return _XP_ZERO

    @staticmethod
    def one() -> "XPoly":
        return _XP_ONE

    @staticmethod
    def x() -> "XPoly":
        """The variable x."""
        return _XP_X

    @staticmethod
    def monomial(coeff, k: int) -> "XPoly":
        """coeff * x^k."""
        lp = _coerce_lp(coeff)
        if lp is NotImplemented:
            raise TypeError(f"bad coefficient {coeff!r}")
        return XPoly((LambdaPoly.zero(),) * k + (lp,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> LambdaPoly:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return LambdaPoly.zero()

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        other = _coerce_xp(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return XPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return XPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce_xp(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_xp(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LambdaPoly)):
            lp = _coerce_lp(other)
            return XPoly(tuple(c * lp for c in self.coeffs))
        if not isinstance(other, XPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return _XP_ZERO
        out = [LambdaPoly.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero():
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return XPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar):
        scalar = _as_fraction(scalar)
        if scalar == 0:
            raise ZeroDivisionError("polynomial division by zero scalar")
        inv = Fraction(1) / scalar
        return XPoly(tuple(c * inv for c in self.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = _XP_ONE
        for _ in range(n):
            out = out * self
        return out

    def derivative(self) -> "XPoly":
        """Formal d/dx."""
        return XPoly(tuple(self.coeffs[k] * k for k in range(1, len(self.coeffs))))

    def eval_x(self, value) -> LambdaPoly:
        """Evaluate at x = value (int, Fraction or LambdaPoly), by Horner."""
        v = _coerce_lp(value)
        if v is NotImplemented:
            raise TypeError(f"cannot evaluate at {value!r}")
        acc = LambdaPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def subs_lambda(self, value: Scalar) -> tuple[Fraction, ...]:
        """Substitute a rational for the degeneracy parameter.

        Returns the ascending x-coefficient tuple (trailing zeros stripped).
        """
        out = [c.subs(value) for c in self.coeffs]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def __eq__(self, other):
        other = _coerce_xp(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("XPoly", self.coeffs))

    def __repr__(self):
        from .render import xpoly_ascii

        return f"XPoly({xpoly_ascii(self)!r})"


def _coerce_xp(value) -> "XPoly":
    if isinstance(value, XPoly):
        return value
    if isinstance(value, (int, Fraction, LambdaPoly)):
        return XPoly((value,))
    return NotImplemented


_XP_ZERO = XPoly.__new__(XPoly)
object.__setattr__(_XP_ZERO, "coeffs", ())
_XP_ONE = XPoly.__new__(XPoly)
object.__setattr__(_XP_ONE, "coeffs", (_LP_ONE,))
_XP_X = XPoly.__new__(XPoly)
object.__setattr__(_XP_X, "coeffs", (_LP_ZERO, _LP_ONE))


class _RationalRing:
    """Coefficient-ring adapter for ``Fraction`` series."""

    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def coerce(value) -> Fraction:
        return _as_fraction(value)

    @staticmethod
    def is_zero(value) -> bool:
        return value == 0

    @staticmethod
    def invert(value: Fraction) -> Fraction:
        if value == 0:
            raise ZeroDivisionError("constant term 0 is not invertible")
        return Fraction(1) / value


class _LambdaPolyRing:
    """Coefficient-ring adapter for ``LambdaPoly`` series."""

    name = "QL"
    zero = _LP_ZERO
    one = _LP_ONE

    @staticmethod
    def coerce(value) -> LambdaPoly:
        lp = _coerce_lp(value)
        if lp is NotImplemented:
            raise TypeError(f"cannot coerce {value!r} into Q[l]")
        return lp

    @staticmethod
    def is_zero(value: LambdaPoly) -> bool:
        return value.is_zero()

    @staticmethod
    def invert(value: LambdaPoly) -> LambdaPoly:
        # Units of Q[l] are the nonzero rationals.
        if value.degree > 0:
            raise ZeroDivisionError("non-constant polynomial is not invertible")
        if value.is_zero():
            raise ZeroDivisionError("constant term 0 is not invertible")
        return LambdaPoly.const(Fraction(1) / value.coeff(0))


class _XPolyRing:
    """Coefficient-ring adapter for ``XPoly`` series."""

    name = "QLX"
    zero = _XP_ZERO
    one = _XP_ONE

    @staticmethod
    def coerce(value) -> XPoly:
        xp = _coerce_xp(value)
        if xp is NotImplemented:
            raise TypeError(f"cannot coerce {value!r} into Q[l][x]")
        return xp

    @staticmethod
    def is_zero(value: XPoly) -> bool:
        return value.is_zero()

    @staticmethod
    def invert(value: XPoly) -> XPoly:
        if value.degree > 0:
            raise ZeroDivisionError("non-constant polynomial is not invertible")
        if value.is_zero():
            raise ZeroDivisionError("constant term 0 is not invertible")
        return XPoly.const(_LambdaPolyRing.invert(value.coeff(0)))


QQ = _RationalRing()
QL = _LambdaPolyRing()
QLX = _XPolyRing()


class SeriesOrderError(ValueError):
    """Raised when series orders (or rings) do not line up."""


class TruncSeries:
    """Formal power series tracked modulo t^(order+1).

    ``coeffs`` always has exactly ``order + 1`` entries from the attached
    coefficient ring.  Binary operations require both operands to carry the
    same ring and the same order; use :meth:`truncate` / :meth:`shift` to
    line orders up explicitly.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: Iterable):
        cs = tuple(ring.coerce(c) for c in coeffs)
        if not cs:
            raise SeriesOrderError("a series needs at least the constant term")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @staticmethod
    def zero(ring, order: int) -> "TruncSeries":
        return TruncSeries(ring, (ring.zero,) * (order + 1))

    @staticmethod
    def one(ring, order: int) -> "TruncSeries":
        return TruncSeries.const(ring, ring.one, order)

    @staticmethod
    def var(ring, order: int) -> "TruncSeries":
        """The series t, at the given order (order >= 1)."""
        if order < 1:
            raise SeriesOrderError("the variable needs order >= 1")
        return TruncSeries(ring, (ring.zero, ring.one) + (ring.zero,) * (order - 1))

    @staticmethod
    def const(ring, value, order: int) -> "TruncSeries":
        if order < 0:
            raise SeriesOrderError("a series needs order >= 0")
        return TruncSeries(ring, (value,) + (ring.zero,) * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int):
        if not 0 <= n <= self.order:
            raise SeriesOrderError(f"coefficient {n} outside tracked order {self.order}")
        return self.coeffs[n]

    def _check_compatible(self, other: "TruncSeries", what: str):
        if self.ring is not other.ring:
            raise SeriesOrderError(f"{what}: mixed coefficient rings "
                                   f"({self.ring.name} vs {other.ring.name})")
        if self.order != other.order:
            raise SeriesOrderError(f"{what}: mismatched orders "
                                   f"({self.order} vs {other.order})")

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_compatible(other, "add")
        return TruncSeries(self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_compatible(other, "sub")
        return TruncSeries(self.ring, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return TruncSeries(self.ring, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        """Cauchy product truncated to the common order."""
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check_compatible(other, "mul")
        n = self.order
        ring = self.ring
        out = [ring.zero] * (n + 1)
        for i, ci in enumerate(self.coeffs):
            if ring.is_zero(ci):
                continue
            for j in range(n + 1 - i):
                cj = other.coeffs[j]
                if not ring.is_zero(cj):
                    out[i + j] = out[i + j] + ci * cj
        return TruncSeries(ring, out)

    def scale(self, factor) -> "TruncSeries":
        """Multiply every coefficient by a ring element (or int/Fraction)."""
        return TruncSeries(self.ring, tuple(c * factor for c in self.coeffs))

    def pow(self, n: int) -> "TruncSeries":
        if n < 0:
            raise ValueError("negative series power")
        out = TruncSeries.one(self.ring, self.order)
        for _ in range(n):
            out = out * self
        return out

    def truncate(self, order: int) -> "TruncSeries":
        if not 0 <= order <= self.order:
            raise SeriesOrderError(f"cannot truncate order {self.order} to {order}")
        return TruncSeries(self.ring, self.coeffs[: order + 1])

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by t^k; this raises the tracked order by k."""
        if k < 0:
            raise SeriesOrderError("negative shift")
        if k == 0:
            return self
        return TruncSeries(self.ring, (self.ring.zero,) * k + self.coeffs)

    def derive(self) -> "TruncSeries":
        """Termwise derivative; the order drops by exactly one."""
        if self.order < 1:
            raise SeriesOrderError("cannot differentiate an order-0 series")
        return TruncSeries(self.ring, tuple(self.coeffs[n] * n for n in range(1, self.order + 1)))

    def reciprocal(self) -> "TruncSeries":
        """Multiplicative inverse up to the tracked order.

        Requires the constant term to be invertible in the coefficient
        ring; computed by the standard recursive convolution.
        """
        ring = self.ring
        b0 = ring.invert(self.coeffs[0])
        out = [b0]
        for n in range(1, self.order + 1):
            acc = ring.zero
            for i in range(1, n + 1):
                ai = self.coeffs[i]
                if not ring.is_zero(ai):
                    acc = acc + ai * out[n - i]
            out.append(-(b0 * acc))
        return TruncSeries(ring, out)

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """Substitute ``inner`` (zero constant term) into this series.

        Horner accumulation over truncated powers of ``inner``; both series
        must carry the same order.
        """
        self._check_compatible(inner, "compose")
        ring = self.ring
        if not ring.is_zero(inner.coeffs[0]):
            raise SeriesOrderError("composition needs a zero constant term in the inner series")
        acc = TruncSeries.const(ring, self.coeffs[-1], self.order)
        for k in range(self.order - 1, -1, -1):
            acc = acc * inner + TruncSeries.const(ring, self.coeffs[k], self.order)
        return acc

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("TruncSeries", self.ring.name, self.coeffs))

    def __repr__(self):
        return f"TruncSeries({self.ring.name}, order={self.order}, coeffs={list(self.coeffs)!r})"
