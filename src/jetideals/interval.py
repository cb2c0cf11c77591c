"""Outward-rounded interval arithmetic.

Endpoints are floats, never NaN: a NaN endpoint raises DomainError.
Every arithmetic result is widened by one ulp on each side, so
enclosures stay sound under float rounding without pulling in a
multiprecision dependency.  That is cheap and more than enough for
the certificate searches here, which only need modest depth.  The
searches evaluate one cell at a time, so the operators are the hot
path of the forbidden-cone walk and of the negligibility box sups:
`*` and `/` compare their four endpoint products in place rather than
building a tuple for min and max.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError

_INF = math.inf
_next = math.nextafter


def _down(x: float) -> float:
    return _next(x, -_INF)


def _up(x: float) -> float:
    return _next(x, _INF)


def _endpoint(x, step) -> float:
    """float(x), one step further out (by `step`) for a Fraction and for
    an int that no double holds."""
    f = float(x)
    if isinstance(x, Fraction) or (isinstance(x, int) and f != x):
        return step(f)
    return f


class Interval:
    """A closed interval [lo, hi] with outward rounding."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        if type(lo) is not float:
            lo = _endpoint(lo, _down)
        if type(hi) is not float:
            hi = _endpoint(hi, _up)
        if not lo <= hi:
            if lo != lo or hi != hi:
                raise DomainError(f"NaN endpoint in [{lo}, {hi}]")
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- constructors ---------------------------------------------------
    @staticmethod
    def exact(x) -> "Interval":
        """Tight interval around a number: its double, widened by one
        step each way if that is not the number (a Fraction or an int)."""
        if isinstance(x, Interval):
            return x
        f = float(x)
        if isinstance(x, (Fraction, int)) and Fraction(f) != x:
            return Interval(_down(f), _up(f))
        return Interval(f, f)

    @staticmethod
    def hull(items) -> "Interval":
        items = list(items)
        if not items:
            raise ValueError("hull of nothing")
        return Interval(min(i.lo for i in items), max(i.hi for i in items))

    # -- predicates -----------------------------------------------------
    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __repr__(self):
        return f"[{self.lo!r}, {self.hi!r}]"

    def __eq__(self, other):
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- arithmetic -----------------------------------------------------
    # Operators convert a non-Interval operand by Interval.exact and build
    # their results with _result (* and / inline its work): their
    # endpoints are floats with lo <= hi unless an endpoint is NaN.
    def __neg__(self):
        return _result(-self.hi, -self.lo)

    def __add__(self, other):
        if type(other) is not Interval:
            other = Interval.exact(other)
        return _result(_down(self.lo + other.lo), _up(self.hi + other.hi))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Interval.exact(other))

    def __rsub__(self, other):
        return Interval.exact(other) + (-self)

    def __mul__(self, other):
        # the least and greatest of the four endpoint products, taken in
        # place; endpoints are never NaN, so a NaN product is 0 * inf,
        # which is 0 in the set-based convention of IEEE 1788-2015
        if type(other) is not Interval:
            other = Interval.exact(other)
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        lo = hi = a * c
        if lo != lo:
            lo = hi = 0.0
        p = a * d
        if p != p:
            p = 0.0
        if p < lo:
            lo = p
        elif p > hi:
            hi = p
        p = b * c
        if p != p:
            p = 0.0
        if p < lo:
            lo = p
        elif p > hi:
            hi = p
        p = b * d
        if p != p:
            p = 0.0
        if p < lo:
            lo = p
        elif p > hi:
            hi = p
        out = _new(Interval)
        out.lo = _next(lo, -_INF)
        out.hi = _next(hi, _INF)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        # the quotients in place, compared as min and max compare them:
        # a NaN quotient (inf / inf) is passed over unless it comes first
        if type(other) is not Interval:
            other = Interval.exact(other)
        c, d = other.lo, other.hi
        if c <= 0.0 <= d:
            raise DomainError(f"division by interval containing zero: {other}")
        a, b = self.lo, self.hi
        lo = hi = a / c
        if lo != lo:
            raise DomainError(f"NaN endpoint in [{lo}, {hi}]")
        q = a / d
        if q < lo:
            lo = q
        elif q > hi:
            hi = q
        q = b / c
        if q < lo:
            lo = q
        elif q > hi:
            hi = q
        q = b / d
        if q < lo:
            lo = q
        elif q > hi:
            hi = q
        out = _new(Interval)
        out.lo = _next(lo, -_INF)
        out.hi = _next(hi, _INF)
        return out

    def __rtruediv__(self, other):
        return Interval.exact(other) / self

    def __abs__(self):
        if self.lo >= 0:
            return _result(self.lo, self.hi)
        if self.hi <= 0:
            return -self
        return _result(0.0, _up(max(-self.lo, self.hi)))

    def ipow(self, k: int) -> "Interval":
        """Integer power, tight on even exponents straddling zero."""
        if k == 0:
            return _result(1.0, 1.0)
        if k < 0:
            power = self.ipow(-k)
            if power.contains_zero() and not self.contains_zero():
                # the power underflowed to zero: the reciprocal is
                # unbounded on the side of the power's sign
                if self.lo > 0 or k % 2 == 0:
                    return _result(_down(1.0 / power.hi), _INF)
                return _result(-_INF, _up(1.0 / power.lo))
            return _result(1.0, 1.0) / power
        lo_p, hi_p = self.lo ** k, self.hi ** k
        if k % 2 == 1:
            return _result(_down(lo_p), _up(hi_p))
        if self.lo >= 0:
            return _result(_down(lo_p), _up(hi_p))
        if self.hi <= 0:
            return _result(_down(hi_p), _up(lo_p))
        return _result(0.0, _up(max(lo_p, hi_p)))

    def sqrt(self) -> "Interval":
        if self.hi < 0:
            raise DomainError(f"sqrt of negative interval {self}")
        lo = max(self.lo, 0.0)
        return Interval(_down(math.sqrt(lo)), _up(math.sqrt(self.hi)))

    def intersect(self, other: "Interval"):
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def split(self):
        m = self.mid
        return Interval(self.lo, m), Interval(m, self.hi)


_new = object.__new__


def _result(lo: float, hi: float) -> Interval:
    """An operator's result, without Interval.__init__'s conversions."""
    if not lo <= hi:
        raise DomainError(f"NaN endpoint in [{lo}, {hi}]")
    out = _new(Interval)
    out.lo = lo
    out.hi = hi
    return out


def box_norm2(box) -> Interval:
    """Enclosure of |x|^2 over a box of intervals."""
    acc = Interval(0.0, 0.0)
    for c in box:
        acc = acc + Interval.exact(c).ipow(2)
    return acc


def box_norm(box) -> Interval:
    return box_norm2(box).sqrt()
