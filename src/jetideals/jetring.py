"""Exact arithmetic in truncated polynomial rings of m-jets.

A jet is a polynomial of total degree at most m in n variables with
exact rational coefficients; the ring product is the polynomial product
with every term of degree above m discarded.  A jet holds one exact
form: integer numerators, one per monomial of monomials(m, n) in that
order, over a positive common denominator, with the content
gcd(numerators, denominator) divided out (content and primitive part
as in Geddes, Czapor and Labahn, Algorithms for Computer Algebra, 1992).
So equal jets have equal fields, whatever order they were built in, and
every reader sees their coefficients in the same order.  The product is
an integer convolution over the monomial product table.  All values are
immutable and all operations are pure.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from fractions import Fraction

from .errors import (DegreeOverflowError, DimensionMismatchError, ParseError,
                     SignatureMismatchError)
from .exactlin import rref

MORE_THAN_M = "more_than_m"


def variable_names(n: int):
    if n <= 4:
        return ("x", "y", "z", "w")[:n]
    return tuple(f"x{i + 1}" for i in range(n))


@functools.lru_cache(maxsize=None)
def monomials(m: int, n: int):
    """All exponent tuples of total degree <= m, in graded lex order."""
    out = []
    for deg in range(m + 1):
        level = [e for e in itertools.product(range(deg + 1), repeat=n)
                 if sum(e) == deg]
        level.sort(reverse=True)
        out.extend(level)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _index(m: int, n: int):
    """exponent -> its column in monomials(m, n)."""
    return {a: i for i, a in enumerate(monomials(m, n))}


@functools.lru_cache(maxsize=None)
def _degrees(m: int, n: int):
    """The total degree of each column of monomials(m, n)."""
    return tuple(map(sum, monomials(m, n)))


@functools.lru_cache(maxsize=None)
def _products(m: int, n: int):
    """The monomial product table of P^m(R^n) by columns: row i holds
    the column of a_i + b_j for each column j with |a_i| + |b_j| <= m,
    a prefix of the columns since monomials(m, n) is graded."""
    table = monomials(m, n)
    index = _index(m, n)
    return tuple(tuple(index[tuple(map(operator.add, a, b))]
                       for b in table if sum(a) + sum(b) <= m)
                 for a in table)


class RingSignature:
    """The pair (m, n): jet degree bound and ambient dimension."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError("need m >= 1 and n >= 1")
        self.m = m
        self.n = n

    def __eq__(self, other):
        return isinstance(other, RingSignature) and (self.m, self.n) == (other.m, other.n)

    def __hash__(self):
        return hash((self.m, self.n))

    def __repr__(self):
        return f"RingSignature(m={self.m}, n={self.n})"

    @property
    def monomials(self):
        return monomials(self.m, self.n)

    @property
    def dim(self) -> int:
        """dim P^m(R^n) = C(m+n, n)."""
        return math.comb(self.m + self.n, self.n)

    @property
    def dim0(self) -> int:
        """dim P_0^m(R^n): jets with zero constant term."""
        return self.dim - 1

    @property
    def variables(self):
        return variable_names(self.n)


class Jet:
    """An element of P^m(R^n): the polynomial sum of
    nums[i] / den * x^alpha_i over the columns alpha_i of monomials(m, n),
    with den > 0 and gcd(*nums, den) = 1."""

    __slots__ = ("sig", "nums", "den")

    def __init__(self, sig: RingSignature, coeffs):
        index = _index(sig.m, sig.n)
        values = [0] * sig.dim
        for alpha, c in coeffs.items():
            alpha = tuple(alpha)
            i = index.get(alpha)
            if i is None:
                if len(alpha) != sig.n:
                    raise DimensionMismatchError(
                        f"exponent {alpha} has wrong arity")
                if sum(alpha) > sig.m:
                    raise DegreeOverflowError(
                        f"monomial {alpha} exceeds degree {sig.m}")
                raise ValueError(f"exponent {alpha} is not a monomial")
            values[i] += c if type(c) is Fraction else Fraction(c)
        den = math.lcm(*(v.denominator for v in values))
        self.sig = sig
        self.nums = tuple(v.numerator * (den // v.denominator) for v in values)
        self.den = den

    @classmethod
    def _dense(cls, sig: RingSignature, nums, den: int = 1) -> "Jet":
        """The jet of integer numerators nums (in column order) over
        den > 0, with their content divided out."""
        g = math.gcd(*nums, den)
        jet = object.__new__(cls)
        jet.sig = sig
        jet.nums = tuple([a // g for a in nums] if g > 1 else nums)
        jet.den = den // g
        return jet

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(sig: RingSignature) -> "Jet":
        return Jet(sig, {})

    @staticmethod
    def constant(sig: RingSignature, c) -> "Jet":
        return Jet(sig, {(0,) * sig.n: Fraction(c)})

    @staticmethod
    def variable(sig: RingSignature, i: int) -> "Jet":
        """x_i: columns 1..n of monomials(m, n) are x_1..x_n."""
        e = [0] * sig.n
        e[i] = 1
        return Jet._dense(sig, (0, *e) + (0,) * (sig.dim - sig.n - 1))

    @staticmethod
    def monomial(sig: RingSignature, alpha, c=1) -> "Jet":
        return Jet(sig, {tuple(alpha): Fraction(c)})

    # -- structure ------------------------------------------------------
    @property
    def coeffs(self):
        """A fresh dict {exponent: Fraction} of the nonzero
        coefficients, in column order."""
        den = self.den
        return {a: Fraction(c, den)
                for a, c in zip(self.sig.monomials, self.nums) if c}

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other):
        return (isinstance(other, Jet) and self.sig == other.sig
                and self.nums == other.nums and self.den == other.den)

    def __hash__(self):
        return hash((self.sig, self.nums, self.den))

    def degree(self):
        """Polynomial degree (max total degree present); None if zero."""
        return max((d for d, c in zip(_degrees(self.sig.m, self.sig.n),
                                      self.nums) if c), default=None)

    def order_of_vanishing(self):
        """Minimal degree with a nonzero homogeneous part.

        Returns 0 for a nonzero constant term and MORE_THAN_M for the
        zero jet.
        """
        return min((d for d, c in zip(_degrees(self.sig.m, self.sig.n),
                                      self.nums) if c), default=MORE_THAN_M)

    def homogeneous_part(self, k: int) -> "Jet":
        degs = _degrees(self.sig.m, self.sig.n)
        return Jet._dense(self.sig, [c if d == k else 0
                                     for d, c in zip(degs, self.nums)],
                          self.den)

    def lowest_homogeneous_part(self) -> "Jet":
        """The nonzero homogeneous component of minimal degree.

        Undefined for the zero jet and for jets with nonzero constant
        term (order 0); both raise ValueError.
        """
        k = self.order_of_vanishing()
        if k == MORE_THAN_M:
            raise ValueError("zero jet has no lowest homogeneous part")
        if k == 0:
            raise ValueError("jet has order of vanishing 0")
        return self.homogeneous_part(k)

    # -- arithmetic -----------------------------------------------------
    def _check_sig(self, other: "Jet"):
        if self.sig != other.sig:
            raise SignatureMismatchError(f"{self.sig} vs {other.sig}")

    def __add__(self, other: "Jet") -> "Jet":
        self._check_sig(other)
        a, b = self.den, other.den
        if a == b:
            return Jet._dense(self.sig, list(map(operator.add, self.nums,
                                                 other.nums)), a)
        return Jet._dense(self.sig, [x * b + y * a for x, y in
                                     zip(self.nums, other.nums)], a * b)

    def __neg__(self) -> "Jet":
        return Jet._dense(self.sig, [-a for a in self.nums], self.den)

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-other)

    def scale(self, c) -> "Jet":
        c = Fraction(c)
        return Jet._dense(self.sig, [c.numerator * a for a in self.nums],
                          c.denominator * self.den)

    def __mul__(self, other: "Jet") -> "Jet":
        """Jet product: full product truncated at degree m, convolved
        over the product table."""
        self._check_sig(other)
        sig = self.sig
        out = [0] * len(self.nums)
        right = other.nums
        for row, x in zip(_products(sig.m, sig.n), self.nums):
            if x:
                for k, y in zip(row, right):
                    if y:
                        out[k] += x * y
        return Jet._dense(sig, out, self.den * other.den)

    # -- printing -------------------------------------------------------
    def __str__(self):
        return format_jet(self)

    def __repr__(self):
        return f"Jet({self.sig.m},{self.sig.n}: {format_jet(self)})"


def format_jet(p: Jet) -> str:
    if p.is_zero():
        return "0"
    names = p.sig.variables
    parts = []
    for alpha, c in p.coeffs.items():
        factors = []
        for name, e in zip(names, alpha):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# Parsing: one grammar for jets and expressions (symfun._ExprParser).
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^|\*|\+|-|/|\(|\)|,))")


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        mt = _TOKEN_RE.match(text, pos)
        if not mt or mt.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        num, name, op = mt.groups()
        if num is not None:
            tokens.append(("num", Fraction(num), pos))
        elif name is not None:
            tokens.append(("name", name, pos))
        else:
            tokens.append(("op", op, pos))
        pos = mt.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser over the variables of R^n: a sum of
    terms; a term is factors joined by '*', '/' or juxtaposition ("2x"
    and "x(x+y)" are products); a factor is a number, a name, a
    parenthesized sum or a negated factor, with an optional ^k for an
    integer k.  Values are built only by a subclass's hooks const, named,
    add, neg, mul, div(a, b, pos) and power(base, k, pos), pos being
    that of the '/' or of the exponent's first token."""

    bad_exponent = "exponent must be an integer"

    def __init__(self, text, n):
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = n
        self.names = {name: i for i, name in enumerate(variable_names(n))}

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        out = self.parse_sum()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return out

    def parse_sum(self):
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
        out = self.parse_product()
        if kind == "op" and val == "-":
            out = self.neg(out)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_product()
                out = self.add(out, self.neg(rhs) if val == "-" else rhs)
            else:
                return out

    def parse_product(self):
        out = self.parse_factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                out = self.mul(out, self.parse_factor())
            elif kind == "op" and val == "/":
                self.next()
                out = self.div(out, self.parse_factor(), pos)
            elif kind == "name" or (kind == "op" and val == "("):
                out = self.mul(out, self.parse_factor())
            else:
                return out

    def parse_factor(self):
        kind, val, pos = self.next()
        if kind == "num":
            base = self.const(val)
        elif kind == "name":
            base = self.named(val, pos)
        elif kind == "op" and val == "(":
            base = self.parse_sum()
            self.expect_op(")")
        elif kind == "op" and val == "-":
            return self.neg(self.parse_factor())
        else:
            raise ParseError("expected a term", pos)
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, k, pos = self.next()
            sign = -1 if (kind, k) == ("op", "-") else 1
            if sign < 0:
                kind, k, _ = self.next()
            if kind != "num" or k.denominator != 1:
                raise ParseError(self.bad_exponent, pos)
            return self.power(base, sign * int(k), pos)
        return base


class _PolyParser(_Parser):
    """Parser into an untruncated _Poly over QQ in n variables; it
    divides only by a nonzero constant and takes powers k >= 0.  A
    number keeps its monomial even at 0: a sum orders its monomials by
    first appearance, and "0 + (y + 1)" puts the constant first."""

    bad_exponent = "exponent must be a non-negative integer"

    def const(self, value):
        return _Poly({(0,) * self.n: value})

    def named(self, name, pos):
        if name not in self.names:
            raise ParseError(f"unknown variable {name!r}", pos)
        return _Poly({tuple(int(i == self.names[name]) for i in range(self.n)):
                      Fraction(1)})

    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)

    def neg(self, a):
        return a * -1

    def div(self, a, b, pos):
        if any(map(sum, b)):
            raise ParseError("division by a non-constant polynomial", pos)
        if not any(b.values()):
            raise ParseError("division by zero", pos)
        return a * (1 / sum(b.values()))

    def power(self, base, k, pos):
        if k < 0:
            raise ParseError(self.bad_exponent, pos)
        return functools.reduce(operator.mul, [base] * k,
                                self.const(Fraction(1)))


class _Poly(dict):
    """A polynomial over QQ, {exponent tuple: Fraction}; the zero
    polynomial is the empty dict, and dict equality is polynomial
    equality.  It has +, products and powers k >= 1, which drop zero
    coefficients, and scalar multiples (on the right; -1 for a
    difference), which keep every monomial unless the scalar is 0, so
    that a parsed 0 keeps its place.  diff is a partial derivative.
    rem is the remainder modulo {r_j^2 - s_j} in the verifier's identity
    ring, whose generators r_j come before the variables.  No gcd and no
    division."""

    __slots__ = ()

    def __add__(self, other):
        return _collect(itertools.chain(self.items(), other.items()))

    def __mul__(self, other):
        if not isinstance(other, _Poly):
            if not other:
                return _Poly()
            return _Poly({m: c * other for m, c in self.items()})
        return _collect((tuple(map(operator.add, m, n)), c * d)
                        for m, c in self.items() for n, d in other.items())

    def __pow__(self, k):
        return functools.reduce(operator.mul, [self] * k)

    def diff(self, i):
        """The partial derivative in variable i."""
        return _Poly({m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                      for m, c in self.items() if m[i]})

    def rem(self, squares):
        """The remainder modulo {r_j^2 - s_j} (squares lists the s_j):
        each r_j^e becomes r_j^(e mod 2) s_j^(e div 2)."""
        out = self
        for j, s in enumerate(squares):
            terms = []
            for m, c in out.items():
                low = _Poly({m[:j] + (m[j] % 2,) + m[j + 1:]: c})
                terms += (low * s ** (m[j] // 2) if m[j] > 1 else low).items()
            out = _collect(terms)
        return out


def _collect(terms):
    """The _Poly sum of (monomial, coefficient) pairs."""
    out = {}
    for m, c in terms:
        out[m] = out[m] + c if m in out else c
    return _Poly({m: c for m, c in out.items() if c})


def jet_parse(text: str, sig: RingSignature, truncate=False) -> Jet:
    """Parse polynomial text into a canonical jet.

    Terms of degree above m are an error unless truncate=True.
    """
    poly = _PolyParser(text, sig.n).parse()
    over = [k for k in poly if sum(k) > sig.m]
    if over and not truncate:
        worst = max(over, key=sum)
        names = variable_names(sig.n)
        term = "*".join(f"{nm}^{e}" if e > 1 else nm
                        for nm, e in zip(names, worst) if e) or "1"
        raise DegreeOverflowError(
            f"term {term} has degree {sum(worst)} > m={sig.m}")
    return Jet(sig, {k: v for k, v in poly.items() if sum(k) <= sig.m})


# ---------------------------------------------------------------------------
# Diffeomorphism jets and composition.
# ---------------------------------------------------------------------------

class DiffeoJet:
    """Jet of an origin-fixing C^m map with invertible linear part.

    `_powers` holds the products phi^alpha = prod phi_i^alpha_i that
    compositions have needed so far (see `_power`), so every jet composed
    with one map shares them.
    """

    __slots__ = ("sig", "components", "_powers")

    def __init__(self, sig: RingSignature, components):
        components = tuple(components)
        if len(components) != sig.n:
            raise DimensionMismatchError("need one component jet per variable")
        for comp in components:
            if comp.sig != sig:
                raise SignatureMismatchError("component signature mismatch")
            if comp.order_of_vanishing() == 0:
                raise ValueError("component has nonzero constant term")
        self.sig = sig
        self.components = components
        if not _invertible(self.linear_matrix()):
            raise ValueError("linear part is not invertible")
        self._powers = {(0,) * sig.n: Jet.constant(sig, 1)}

    def _power(self, alpha) -> Jet:
        """J^m(phi^alpha), built once as phi^(alpha - e_i) * phi_i for
        the last i with alpha_i > 0."""
        powers = self._powers
        if alpha not in powers:
            i = max(k for k, e in enumerate(alpha) if e)
            lower = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            powers[alpha] = self._power(lower) * self.components[i]
        return powers[alpha]

    def linear_matrix(self):
        """The n x n matrix of degree-1 coefficients (rows = components):
        columns 1..n of monomials(m, n) are x_1..x_n."""
        return [[Fraction(c, comp.den) for c in comp.nums[1:self.sig.n + 1]]
                for comp in self.components]

    @staticmethod
    def identity(sig: RingSignature) -> "DiffeoJet":
        return DiffeoJet(sig, [Jet.variable(sig, i) for i in range(sig.n)])

    @staticmethod
    def linear(sig: RingSignature, matrix) -> "DiffeoJet":
        comps = []
        for row in matrix:
            coeffs = {}
            for j, c in enumerate(row):
                if c != 0:
                    e = [0] * sig.n
                    e[j] = 1
                    coeffs[tuple(e)] = Fraction(c)
            comps.append(Jet(sig, coeffs))
        return DiffeoJet(sig, comps)


def _invertible(matrix) -> bool:
    return len(rref(matrix)[1]) == len(matrix)


def jet_compose(p: Jet, phi: DiffeoJet) -> Jet:
    """J^m(p o phi): the sum of c * phi^alpha over the terms c x^alpha
    of p, the powers phi^alpha truncated at degree m, summed as integer
    rows over a common denominator."""
    if p.sig != phi.sig:
        raise SignatureMismatchError("jet and diffeo-jet signatures differ")
    out, den = [0] * len(p.nums), 1
    for alpha, c in zip(p.sig.monomials, p.nums):
        if c:
            power = phi._power(alpha)
            if den % power.den:
                step = power.den // math.gcd(den, power.den)
                out = [x * step for x in out]
                den *= step
            c *= den // power.den
            for k, y in enumerate(power.nums):
                if y:
                    out[k] += c * y
    return Jet._dense(p.sig, out, den * p.den)
