"""Exact arithmetic kernel.

Three nested coefficient rings, all exact over the rationals:

* ``Fraction``   -- scalars (stdlib ``fractions``),
* ``LambdaPoly`` -- polynomials in the degeneracy parameter ("l" in text
  renderings),
* ``XPoly``      -- polynomials in x whose coefficients are ``LambdaPoly``,

plus ``TruncSeries``, a truncated formal power series over any of them.
``LambdaPoly`` and ``XPoly`` share one dense-polynomial implementation;
each names only its coefficient ring and the scalars it accepts.
A series carries its truncation order explicitly: combining series of
different orders raises instead of silently truncating.

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


class _RationalRing:
    """Coefficient-ring adapter for ``Fraction``."""

    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)

    coerce = staticmethod(_as_fraction)

    @staticmethod
    def is_zero(value) -> bool:
        return value == 0

    @staticmethod
    def invert(value: Fraction) -> Fraction:
        if value == 0:
            raise ZeroDivisionError("constant term 0 is not invertible")
        return Fraction(1) / value

    def __reduce__(self):
        return self.name  # the module global itself, so ``ring is QQ`` survives a round trip


QQ = _RationalRing()


class _DensePoly:
    """Dense polynomial over the coefficient ring ``_ring``.

    Coefficients are stored in ascending degree with no trailing zeros;
    the zero polynomial is the empty tuple.  Instances are immutable.
    ``_scalars`` are the types a polynomial multiplies coefficientwise and
    coerces to constants.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple
    _ring: object
    _scalars: tuple
    _zero: "_DensePoly"
    _one: "_DensePoly"

    def __init__(self, coeffs: Iterable = ()):
        coerce = self._ring.coerce
        cs = [coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self.coeffs,)

    @classmethod
    def _coerce(cls, value):
        """``value`` as a polynomial of this class, or ``NotImplemented``."""
        if isinstance(value, cls):
            return value
        if isinstance(value, cls._scalars):
            return cls((value,))
        return NotImplemented

    @classmethod
    def const(cls, value):
        return cls((value,))

    @classmethod
    def zero(cls):
        return cls._zero

    @classmethod
    def one(cls):
        return cls._one

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self._ring.zero

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return type(self)(out)

    def __neg__(self):
        return type(self)(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, self._scalars):  # Q[l] has no zero divisors: nothing to strip
            if not other:
                return self._zero
            out = object.__new__(type(self))
            object.__setattr__(out, "coeffs", tuple(c * other for c in self.coeffs))
            return out
        if not isinstance(other, type(self)):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return self._zero
        out = [self._ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return type(self)(out)

    def __truediv__(self, scalar: Scalar):
        scalar = _as_fraction(scalar)
        if scalar == 0:
            raise ZeroDivisionError("polynomial division by zero scalar")
        inv = Fraction(1) / scalar
        return type(self)(tuple(c * inv for c in self.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self._one
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        # A scalar is compared with the coefficient tuple of its constant
        # without building it: the suite runs thousands of ``w == 1`` tests.
        if isinstance(other, self._scalars):
            return self.coeffs == ((other,) if other else ())
        if isinstance(other, type(self)):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))


class LambdaPoly(_DensePoly):
    """Dense polynomial in the degeneracy parameter over ``Fraction``."""

    __slots__ = ()

    coeffs: tuple[Fraction, ...]
    _ring = QQ
    _scalars = (int, Fraction)
    # Bound in each class body: perfbench/tracing.py wraps the class's own entries.
    __add__ = __radd__ = _DensePoly.__add__
    __mul__ = __rmul__ = _DensePoly.__mul__

    @staticmethod
    def param() -> "LambdaPoly":
        """The degeneracy parameter itself (the degree-1 monomial)."""
        return _LP_PARAM

    def subs(self, value: Scalar) -> Fraction:
        """Substitute a rational for the parameter (Horner)."""
        value = _as_fraction(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    @classmethod
    def interpolate(cls, values, scale: Scalar = 1) -> "LambdaPoly":
        """The polynomial of degree < len(values) that is ``values[i] / scale`` at l = i, by
        Newton's forward differences: the sum over i of (Delta^i values)[0] C(l, i)."""
        diffs, out, basis = list(values), cls._zero, cls._one
        for i in range(len(diffs)):
            out = out + basis * Fraction(diffs[0], scale)
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            basis = basis * cls((-i, 1)) / (i + 1)
        return out

    def __repr__(self):
        from .render import lambda_poly_ascii

        return f"LambdaPoly({lambda_poly_ascii(self)!r})"


LambdaPoly._zero, LambdaPoly._one = LambdaPoly(), LambdaPoly((1,))
_LP_PARAM = LambdaPoly((0, 1))


class _PolyRing:
    """Coefficient-ring adapter for a dense polynomial class."""

    def __init__(self, name: str, cls):
        self.name = name
        self.cls = cls
        self.zero = cls.zero()
        self.one = cls.one()

    def coerce(self, value):
        p = self.cls._coerce(value)
        if p is NotImplemented:
            raise TypeError(f"cannot coerce {value!r} into {self.cls.__name__}")
        return p

    @staticmethod
    def is_zero(value) -> bool:
        return value.is_zero()

    def invert(self, value):
        # The units of a polynomial ring are the units of its coefficient ring.
        if value.degree > 0:
            raise ZeroDivisionError("non-constant polynomial is not invertible")
        if value.is_zero():
            raise ZeroDivisionError("constant term 0 is not invertible")
        return self.cls.const(self.cls._ring.invert(value.coeff(0)))

    def __reduce__(self):
        return self.name  # as ``QQ`` does: render and series arithmetic test ``ring is QL``


QL = _PolyRing("QL", LambdaPoly)


class XPoly(_DensePoly):
    """Dense polynomial in x with ``LambdaPoly`` coefficients."""

    __slots__ = ()

    coeffs: tuple[LambdaPoly, ...]
    _ring = QL
    _scalars = (int, Fraction, LambdaPoly)
    # Bound in each class body: perfbench/tracing.py wraps the class's own entries.
    __add__ = __radd__ = _DensePoly.__add__
    __mul__ = __rmul__ = _DensePoly.__mul__

    @staticmethod
    def x() -> "XPoly":
        """The variable x."""
        return _XP_X

    @staticmethod
    def monomial(coeff, k: int) -> "XPoly":
        """coeff * x^k."""
        return XPoly((QL.zero,) * k + (coeff,))

    def eval_x(self, value) -> LambdaPoly:
        """Evaluate at x = value (int, Fraction or LambdaPoly), by Horner."""
        v = QL.coerce(value)
        acc = QL.zero
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

    def __repr__(self):
        from .render import xpoly_ascii

        return f"XPoly({xpoly_ascii(self)!r})"


XPoly._zero, XPoly._one = XPoly(), XPoly((1,))
_XP_X = XPoly((0, 1))
QLX = _PolyRing("QLX", XPoly)


class SeriesOrderError(ValueError):
    """Raised when series orders (or rings) do not line up."""


class TruncSeries:
    """Formal power series tracked modulo t^(order+1).

    ``coeffs`` always has exactly ``order + 1`` entries from the attached
    coefficient ring.  Binary operations require both operands to carry the
    same ring and the same order; use :meth:`truncate` to line orders up explicitly.
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

    def __reduce__(self):
        return TruncSeries, (self.ring, self.coeffs)

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
