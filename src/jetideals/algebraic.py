"""Real algebraic numbers over QQ and the unit vectors they give.

A polynomial in t is a tuple of Fraction coefficients, lowest degree
first, with no trailing zero; () is the zero polynomial.  A real root
of f is kept as a `Root`: a rational, or the only root of a square-free
f in an open interval with rational ends.  A `Ray` is a vector v(t) of
polynomials at a root; it stands for the unit vector v/|v|, whose
float coordinates it rounds correctly and at which it decides the sign
of a polynomial exactly.  Everything is exact rational arithmetic; a
root's interval is halved, and polynomials enclosed on it, in integers
over one common denominator, and the square root of |v|^2 is bounded
by `math.isqrt` on scaled integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactlin import _integer_row

_SQRT_BITS = 64     # first precision of a square-root enclosure
_REFINE_STEPS = 8   # bisections of a root's interval per rounding round


def trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return trim([x + y for x, y in zip(a, b)] + list(a[len(b):]))


def scale(a, c):
    return tuple(x * c for x in a) if c else ()


def mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def quo_rem(a, b):
    """(q, r) with a = q b + r and deg r < deg b; b != 0."""
    r, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for k in range(len(q) - 1, -1, -1):
        c = r[k + len(b) - 1] / lead
        q[k] = c
        if c:
            for j, y in enumerate(b):
                r[k + j] -= c * y
    return trim(q), trim(r[:len(b) - 1])


def rem(a, b):
    return quo_rem(a, b)[1] if len(a) >= len(b) else a


def gcd(a, b):
    """The monic greatest common divisor over QQ; () for gcd(0, 0)."""
    while b:
        a, b = b, rem(a, b)
    return scale(a, 1 / a[-1]) if a else ()


def derivative(a):
    return trim(k * c for k, c in enumerate(a) if k)


def evaluate(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _sign_at(ints, x, den=1):
    """Sign of the integer polynomial at x/den, for a rational x and a
    positive integer den, in integers: the sum of c_i p^i q^(d-i) for
    x/den = p/q has the sign of f(x/den)."""
    p, q = x.numerator, x.denominator * den
    acc, power = 0, 1
    for c in reversed(ints):
        acc = acc * p + c * power
        power *= q
    return (acc > 0) - (acc < 0)


def _sturm(f):
    """Sturm sequence of f as primitive integer polynomials."""
    seq = [f, derivative(f)]
    while len(seq[-1]) > 1:
        seq.append(scale(rem(seq[-2], seq[-1]), -1))
    return [_integer_row(p) for p in seq if p]


def _variations(seq, x):
    signs = [s for s in (_sign_at(p, x) for p in seq) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _split_point(ints, lo, hi):
    """A point of (lo, hi) where f does not vanish: the midpoint unless
    it is a root, else the first non-root of lo + (hi - lo) k / 2^j."""
    den = 2
    while True:
        for num in range(1, den, 2):
            x = lo + (hi - lo) * Fraction(num, den)
            if _sign_at(ints, x):
                return x
        den *= 2


def _isolate(f, ints):
    """Disjoint intervals (lo, hi), one per real root of the square-free
    f (ints: its `_integer_row`), in increasing order; f vanishes at
    neither end."""
    seq = _sturm(f)
    lead = abs(ints[-1])
    bound = Fraction(1)     # a power of two above every |root| (Cauchy)
    while bound * lead < lead + max(map(abs, ints[:-1]), default=0):
        bound *= 2
    out = []
    stack = [(-bound, bound, _variations(seq, -bound),
              _variations(seq, bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            out.append((lo, hi))
        elif v_lo - v_hi > 1:
            mid = _split_point(ints, lo, hi)
            v_mid = _variations(seq, mid)
            stack.append((mid, hi, v_mid, v_hi))
            stack.append((lo, mid, v_lo, v_mid))
    return out


def _rational_in(ints, lo, hi):
    """The root of f in (lo, hi) if it is rational, else None, and the
    interval narrowed.  A rational root p/q of the primitive integer f
    has q | lead, so lead * root is an integer: once the interval is
    shorter than 1/lead only one candidate is left to test."""
    lead = abs(ints[-1])
    s_lo = _sign_at(ints, lo)
    while (hi - lo) * lead >= 1:
        mid = (lo + hi) / 2
        s = _sign_at(ints, mid)
        if not s:
            return mid, (lo, hi)
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    k = math.ceil(lo * lead)
    if lo < Fraction(k, lead) < hi and not _sign_at(ints, Fraction(k, lead)):
        return Fraction(k, lead), (lo, hi)
    return None, (lo, hi)


def real_roots(f):
    """The distinct real roots of f != 0, in increasing order.

    The roots are isolated on the square-free part of f and the rational
    ones found first (`_rational_in`); every other root is kept on the
    square-free part divided by its rational linear factors, which has
    no rational root at all.
    """
    if len(f) < 3:
        return [Root.rational(-f[0] / f[1])] if len(f) == 2 else []
    f = quo_rem(f, gcd(f, derivative(f)))[0]
    ints = _integer_row(f)
    found = [_rational_in(ints, lo, hi) for lo, hi in _isolate(f, ints)]
    rest = f
    for r, _ in found:
        if r is not None:
            rest = quo_rem(rest, (-r, Fraction(1)))[0]
    return [Root.rational(r) if r is not None else Root(rest, lo, hi)
            for r, (lo, hi) in found]


class Root:
    """A real algebraic number: the rational lo == hi (f = t - lo), or
    the only root in (lo, hi) of a square-free f over QQ with no
    rational root, where f(lo) f(hi) < 0."""

    __slots__ = ("f", "lo", "hi", "_ints")

    def __init__(self, f, lo, hi):
        self.f, self.lo, self.hi = f, Fraction(lo), Fraction(hi)
        self._ints = _integer_row(f)

    @classmethod
    def rational(cls, r):
        r = Fraction(r)
        return cls((-r, Fraction(1)), r, r)

    @property
    def is_rational(self) -> bool:
        return len(self.f) == 2

    def reduce(self, g):
        """g reduced mod f: a polynomial of lower degree, equal at the
        root (for a rational root, the constant g(root))."""
        if len(g) < len(self.f):
            return g
        if self.is_rational:
            return trim((evaluate(g, self.lo),))
        return rem(g, self.f)

    def intervals(self, cap):
        """Ever narrower intervals [lo/den, hi/den] around an irrational
        root, as integers (lo, hi, den), halved each step, `cap` times,
        which a sound enclosure never needs more of: ArithmeticError."""
        den = math.lcm(self.lo.denominator, self.hi.denominator)
        lo = self.lo.numerator * (den // self.lo.denominator)
        hi = self.hi.numerator * (den // self.hi.denominator)
        s_lo = _sign_at(self._ints, self.lo)
        for _ in range(cap + 1):
            yield lo, hi, den
            mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
            if _sign_at(self._ints, mid, den) == s_lo:
                lo = mid
            else:
                hi = mid
        raise ArithmeticError("an enclosure at a root did not narrow as "
                              "bounded")

    def sign(self, g, common=None) -> int:
        """The sign of g at the root, exactly.  g vanishes there iff
        common = gcd(g, f), a factor of f, changes sign on the interval
        (the one-root Sturm count); otherwise the interval is narrowed,
        within `_halvings`, until an enclosure of g excludes 0."""
        if self.is_rational:
            v = evaluate(g, self.lo)
            return (v > 0) - (v < 0)
        g = self.reduce(g)
        if not g:
            return 0
        common = common or gcd(g, self.f)
        h = _integer_row(common)
        if len(h) > 1 and _sign_at(h, self.lo) != _sign_at(h, self.hi):
            return 0
        ints = _integer_row(g)
        for lo, hi, den in self.intervals(
                self._halvings(ints, self._floor(ints, common))):
            low, high = _enclose(ints, lo, hi, den)
            if low > 0 or high < 0:
                return 1 if low > 0 else -1

    def _floor(self, ints, common) -> int:
        """b with |G(root)| >= 2^-b > 0, G the integer polynomial ints,
        common = gcd(G, f): the resultant of G and F = f / common, a
        nonzero integer, is lc(F)^deg G times G's product over F's roots,
        each at most M, a Cauchy bound, in size."""
        F = self._ints if len(common) == 1 else _integer_row(
            quo_rem(self.f, common)[0])
        bound = 1 - (-max(map(abs, F[:-1])) // abs(F[-1]))
        top = sum(abs(c) * bound ** j for j, c in enumerate(ints))
        return ((len(ints) - 1) * abs(F[-1]).bit_length()
                + (len(F) - 2) * top.bit_length())

    def _halvings(self, ints, bits) -> int:
        """Halvings of the root's interval after which an enclosure of the
        integer polynomial ints is narrower than 2^-bits: interval Horner
        over a width w in |x| <= B is at most w sum j |c_j| B^(j-1) wide."""
        bound = math.ceil(max(abs(self.lo), abs(self.hi)))
        slope = sum(j * abs(c) * bound ** (j - 1)
                    for j, c in enumerate(ints) if j)
        width = self.hi - self.lo
        return max(0, width.numerator.bit_length() + slope.bit_length()
                   - width.denominator.bit_length() + bits + 1)


def _scaled(g):
    """Integer coefficients c and a positive integer e with g = c/e."""
    e = math.lcm(*(c.denominator for c in g))
    return [c.numerator * (e // c.denominator) for c in g], e


def _enclose(ints, lo, hi, den):
    """Integer bounds of den^d f(x) over x in [lo/den, hi/den], for the
    integer polynomial f of degree d, by interval Horner evaluation of
    the sum of c_i X^i den^(d-i) over X in [lo, hi]."""
    low = high = 0
    power = 1
    for c in reversed(ints):
        ends = (low * lo, low * hi, high * lo, high * hi)
        c *= power
        low, high = min(ends) + c, max(ends) + c
        power *= den
    return low, high


def _sqrt_bounds(a, b, bits):
    """Doubles lo <= sqrt(a/b) <= hi for integers a >= 0, b > 0: sqrt(a/b)
    = sqrt(a b)/b, and isqrt(a b 4^bits) is sqrt(a b) 2^bits to within 1;
    each end is the double nearest its rational (int / int is correctly
    rounded), so the rounding of sqrt(a/b) lies between them."""
    s = math.isqrt((a * b) << (2 * bits))
    return s / (b << bits), (s + 1) / (b << bits)


def _rounded_sqrt(a, b) -> float:
    """sqrt(a/b) for integers a > 0, b > 0, correctly rounded: exactly
    when it is rational, else from ever closer bounds, which an
    irrational value leaves on one side of every tie between doubles."""
    g = math.gcd(a, b)
    a, b = a // g, b // g
    ra, rb = math.isqrt(a), math.isqrt(b)
    if ra * ra == a and rb * rb == b:
        return ra / rb
    bits = _SQRT_BITS
    while True:
        low, high = _sqrt_bounds(a, b, bits)
        if low == high:
            return low
        bits *= 2


class Ray:
    """The unit vector v(r)/|v(r)| at a real root r, where v is a tuple
    of polynomials in t over QQ (kept reduced mod the root's f)."""

    __slots__ = ("root", "coords", "_norm2_memo")

    def __init__(self, root: Root, coords):
        self.root = root
        self.coords = tuple(root.reduce(trim(c)) for c in coords)
        self._norm2_memo = None

    def negated(self) -> "Ray":
        return Ray(self.root, (scale(c, -1) for c in self.coords))

    def _norm2(self):
        """|v|^2 reduced mod the root's f, computed on first use."""
        if self._norm2_memo is None:
            total = ()
            for c in self.coords:
                total = add(total, self.root.reduce(mul(c, c)))
            self._norm2_memo = total
        return self._norm2_memo

    def unit(self):
        """The unit vector's coordinates, each the double nearest its
        exact value (an exact zero reads 0.0).  ValueError if every
        coordinate vanishes at the root; otherwise one is at least
        1/sqrt(n) in size, so they cannot all read 0.0."""
        if self.root.is_rational:
            # reduced at a rational root, every coordinate is a constant,
            # and a positive multiple of them has the same unit vector
            # (each sign is the integer's: an integer past the largest
            # double has no float to take it from)
            ints = _integer_row([c[0] if c else 0 for c in self.coords])
            total = sum(x * x for x in ints)
            out = tuple((1 if x > 0 else -1) * _rounded_sqrt(x * x, total)
                        if x else 0.0 for x in ints)
        else:
            norm2 = self._norm2()
            out = tuple(self._rounded(c, norm2) for c in self.coords)
        if not any(out):
            raise ValueError("every coordinate vanishes at the root")
        return out

    def _rounded(self, v, norm2) -> float:
        """v/sqrt(norm2) at the irrational root, correctly rounded.  The
        bounds of v^2/norm2 and of its square root narrow, within the
        `_rounds` that sound enclosures need, until both ends round to
        one double, or to two adjacent ones, which an exact test against
        the point halfway between them decides (a tie rounds to even)."""
        root = self.root
        common = gcd(v, root.f)
        sign = root.sign(v, common)
        if not sign:
            return 0.0
        (v_ints, v_den), (n_ints, n_den) = _scaled(v), _scaled(norm2)
        bits = _SQRT_BITS
        steps = root.intervals(_REFINE_STEPS * self._rounds(
            v_ints, v_den, n_ints, root._floor(v_ints, common)))
        while True:
            for _ in range(_REFINE_STEPS):
                lo, hi, den = next(steps)
            v_low, v_high = _enclose(v_ints, lo, hi, den)
            n_low, n_high = _enclose(n_ints, lo, hi, den)
            if (v_low > 0 or v_high < 0) and n_low > 0:
                # v = V / (v_den den^dv) and norm2 = N / (n_den den^dn)
                # for the enclosed integers V and N
                v_min, v_max = sorted((abs(v_low), abs(v_high)))
                n_scale = n_den * den ** (len(n_ints) - 1)
                v_scale2 = (v_den * den ** (len(v_ints) - 1)) ** 2
                a = _sqrt_bounds(v_min * v_min * n_scale,
                                 n_high * v_scale2, bits)[0]
                b = _sqrt_bounds(v_max * v_max * n_scale,
                                 n_low * v_scale2, bits)[1]
                if a == b:
                    return sign * a
                if math.nextafter(a, math.inf) == b:
                    mid = (Fraction(a) + Fraction(b)) / 2
                    s = root.sign(add(mul(v, v), scale(norm2, -mid * mid)))
                    return sign * (b if s > 0 else a if s else float(mid))
            bits += 2 * _REFINE_STEPS

    def _rounds(self, v_ints, v_den, n_ints, b) -> int:
        """Rounds of _rounded after which sound bounds of x = |v| /
        sqrt(norm2) are within a relative 7 rho, rho = 2^-60, so they
        round to one double or two adjacent ones: |V| = |v_den v| >=
        2^-b (Root._floor), so N = n_den norm2 >= (2^-b / v_den)^2;
        enclosures within rho times these bound x within a relative
        4 rho, and 2^-bits < rho 2^-b / (v_den sqrt(N_max)) <= rho x."""
        root, rho = self.root, 60
        b_v = b + v_den.bit_length()
        halvings = max(root._halvings(v_ints, b + rho),
                       root._halvings(n_ints, 2 * b_v + rho))
        bound = math.ceil(max(abs(root.lo), abs(root.hi)))
        n_max = sum(abs(c) * bound ** j for j, c in enumerate(n_ints))
        bits = b_v + n_max.bit_length() // 2 + 1 + rho
        # round r reads the interval of 8 (r + 1) - 1 halvings
        return max(-(-(halvings + 1) // _REFINE_STEPS),
                   -(-(bits - _SQRT_BITS) // (2 * _REFINE_STEPS)), 0) + 1

    def sign_of(self, terms) -> int:
        """The sign (-1, 0 or 1) at the unit vector u = v/|v| of the
        polynomial sum c_alpha u^alpha over the pairs (alpha, c_alpha)
        of terms, exactly.

        With N = |v|^2 and J the largest half degree,
        N^J p(u) = E + O/sqrt(N), where E collects the even-degree parts
        p_k(v) N^(J - k/2) and O the odd ones p_k(v) N^(J - (k-1)/2); so
        p(u) = 0 iff E^2 N = O^2 and E O <= 0, and otherwise its sign is
        that of the larger of E sqrt(N) and O in absolute value.
        """
        root, norm2 = self.root, self._norm2()
        parts = {}
        for alpha, c in terms:
            if not c:
                continue
            term = (Fraction(c),)
            for v, a in zip(self.coords, alpha):
                for _ in range(a):
                    term = root.reduce(mul(term, v))
            parts[sum(alpha)] = add(parts.get(sum(alpha), ()), term)
        if not parts:
            return 0
        top = max(parts) // 2
        even = odd = ()
        for k, part in parts.items():
            for _ in range(top - k // 2):
                part = root.reduce(mul(part, norm2))
            if k % 2:
                odd = add(odd, part)
            else:
                even = add(even, part)
        s_even, s_odd = root.sign(even), root.sign(odd)
        if s_even * s_odd >= 0:
            return s_even or s_odd
        gap = root.sign(add(root.reduce(mul(mul(even, even), norm2)),
                            scale(root.reduce(mul(odd, odd)), -1)))
        return s_even if gap > 0 else s_odd if gap < 0 else 0
