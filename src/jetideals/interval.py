"""Outward-rounded interval arithmetic.

Endpoints are floats, never NaN: a NaN endpoint raises DomainError.
Every arithmetic result is widened by one ulp on each side, so
enclosures stay sound under float rounding without pulling in a
multiprecision dependency.  That is cheap and more than enough for
the certificate searches here, which only need modest depth.

Interval batches are numpy arrays of shape (2, ...): row 0 holds the
lower endpoints and row 1 the upper.  The batch_* operations give,
element by element, exactly the endpoints of the Interval operation
they mirror and raise what it raises, so a walk over arrays of cells
reaches bit for bit the enclosures of a walk over single cells.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError

_INF = math.inf


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


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
    # their results with _result: their endpoints are floats with
    # lo <= hi unless an endpoint is NaN.
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
        if type(other) is not Interval:
            other = Interval.exact(other)
        prods = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        a, b, c, d = prods
        if a != a or b != b or c != c or d != d:
            # endpoints are never NaN, so this is 0 * inf, which is 0 in
            # the set-based convention of IEEE 1788-2015
            prods = tuple(0.0 if p != p else p for p in prods)
        return _result(_down(min(prods)), _up(max(prods)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Interval:
            other = Interval.exact(other)
        if other.lo <= 0.0 <= other.hi:
            raise DomainError(f"division by interval containing zero: {other}")
        quots = (self.lo / other.lo, self.lo / other.hi,
                 self.hi / other.lo, self.hi / other.hi)
        return _result(_down(min(quots)), _up(max(quots)))

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


# ---------------------------------------------------------------------------
# Interval batches.  Operands broadcast like numpy arrays of equal rank
# (a constant interval is shaped (2, 1, ...)); endpoints are never NaN,
# as for Interval.
# ---------------------------------------------------------------------------

_OUTWARD = [None] + [np.array([-_INF, _INF]).reshape((2,) + (1,) * k)
                     for k in range(4)]


def _outward(iv):
    """Each lower endpoint one ulp down and each upper one ulp up, as
    _down and _up do."""
    return np.nextafter(iv, _OUTWARD[iv.ndim])


def _no_nan(iv):
    if np.isnan(iv).any():
        raise DomainError("NaN endpoint in an interval batch")
    return iv


def batch_exact(iv: Interval):
    """The constant batch (2, 1) of one Interval."""
    return np.array([[iv.lo], [iv.hi]])


def batch_add(a, b):
    return _no_nan(_outward(a + b))


def batch_mul(a, b):
    # all four endpoint products; 0 * inf is 0, as in Interval.__mul__.
    # A signed zero at the min or max cannot show: one ulp out of +0.0
    # and of -0.0 is the same float.
    prods = a[:, None] * b[None]
    np.copyto(prods, 0.0, where=np.isnan(prods))
    return _outward(np.stack((prods.min(axis=(0, 1)),
                              prods.max(axis=(0, 1)))))


def batch_div(a, b):
    if ((b[0] <= 0.0) & (b[1] >= 0.0)).any():
        raise DomainError("division by an interval batch containing zero")
    quots = a[:, None] / b[None]
    if np.isnan(quots).any():
        # inf / inf: take min and max in Python's order, which skips a
        # NaN that does not come first
        q = (quots[0, 0], quots[0, 1], quots[1, 0], quots[1, 1])
        lo, hi = q[0], q[0]
        for x in q[1:]:
            lo = np.where(x < lo, x, lo)
            hi = np.where(x > hi, x, hi)
        return _no_nan(_outward(np.stack((lo, hi))))
    return _outward(np.stack((quots.min(axis=(0, 1)),
                              quots.max(axis=(0, 1)))))


def batch_abs(a):
    lo, hi = a
    pos, neg = lo >= 0.0, hi <= 0.0
    straddle_hi = np.nextafter(np.where(hi > -lo, hi, -lo), _INF)
    return np.stack((np.where(pos, lo, np.where(neg, -hi, 0.0)),
                     np.where(pos, hi, np.where(neg, -lo, straddle_hi))))


def batch_sqrt(a):
    if (a[1] < 0.0).any():
        raise DomainError("sqrt of a negative interval in a batch")
    return _outward(np.sqrt(np.stack((np.maximum(a[0], 0.0), a[1]))))


def batch_ipow(a, k: int):
    """Integer power for k >= 0, by libm pow as Python's float ** is."""
    if k < 0:
        raise ValueError("batch_ipow takes k >= 0")
    if k == 0:
        return np.ones_like(a)
    powers = np.float_power(a, k)
    if not np.isfinite(powers).all() \
            and (np.isinf(powers) & np.isfinite(a)).any():
        raise OverflowError("integer power out of range in a batch")
    if k % 2 == 1:
        return _outward(powers)
    (lo, hi), (lo_p, hi_p) = a, powers
    pos = lo >= 0.0
    straddle = (lo < 0.0) & (hi > 0.0)
    out = _outward(np.stack((np.where(pos, lo_p, hi_p),
                             np.where(pos | (straddle & (hi_p > lo_p)),
                                      hi_p, lo_p))))
    np.copyto(out[0], 0.0, where=straddle)
    return out
