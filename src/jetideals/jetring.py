"""Exact arithmetic in truncated polynomial rings of m-jets.

A jet is a polynomial of total degree at most m in n variables with
exact rational coefficients; the ring product is the polynomial product
with every term of degree above m discarded.  All values are immutable
and all operations are pure.
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
from .interval import Interval

MORE_THAN_M = "more_than_m"
_ZERO = Fraction(0)


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
def _products(m: int, n: int):
    """The monomial product table of P^m(R^n): for each exponent a, the
    map b -> a + b over the exponents b with |a| + |b| <= m.  Products
    are the tuples of monomials(m, n) themselves."""
    table = monomials(m, n)
    canon = {a: a for a in table}
    return {a: {b: canon[tuple(map(operator.add, a, b))]
                for b in table if sum(a) + sum(b) <= m}
            for a in table}


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
    """An element of P^m(R^n): exact rational coefficients per monomial."""

    __slots__ = ("sig", "coeffs")

    def __init__(self, sig: RingSignature, coeffs):
        self.sig = sig
        clean = {}
        for alpha, c in coeffs.items():
            alpha = tuple(alpha)
            if len(alpha) != sig.n:
                raise DimensionMismatchError(f"exponent {alpha} has wrong arity")
            if sum(alpha) > sig.m:
                raise DegreeOverflowError(f"monomial {alpha} exceeds degree {sig.m}")
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[alpha] = clean[alpha] + c if alpha in clean else c
        self.coeffs = {a: c for a, c in clean.items() if c != 0}

    @classmethod
    def _of(cls, sig: RingSignature, coeffs) -> "Jet":
        """The jet of Fraction coefficients on monomials of sig, as ring
        operations on jets produce them: only zeros are dropped."""
        jet = object.__new__(cls)
        jet.sig = sig
        jet.coeffs = {a: c for a, c in coeffs.items() if c}
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
        e = [0] * sig.n
        e[i] = 1
        return Jet(sig, {tuple(e): Fraction(1)})

    @staticmethod
    def monomial(sig: RingSignature, alpha, c=1) -> "Jet":
        return Jet(sig, {tuple(alpha): Fraction(c)})

    # -- structure ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, Jet) and self.sig == other.sig
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.sig, frozenset(self.coeffs.items())))

    def degree(self):
        """Polynomial degree (max total degree present); None if zero."""
        if not self.coeffs:
            return None
        return max(sum(a) for a in self.coeffs)

    def order_of_vanishing(self):
        """Minimal degree with a nonzero homogeneous part.

        Returns 0 for a nonzero constant term and MORE_THAN_M for the
        zero jet.
        """
        if not self.coeffs:
            return MORE_THAN_M
        return min(sum(a) for a in self.coeffs)

    def homogeneous_part(self, k: int) -> "Jet":
        return Jet._of(self.sig, {a: c for a, c in self.coeffs.items()
                                  if sum(a) == k})

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

    def coordinates(self, include_constant=True):
        """Coefficient vector over the signature's monomial table."""
        table = self.sig.monomials
        if not include_constant:
            table = table[1:]
        return tuple(self.coeffs.get(a, _ZERO) for a in table)

    # -- arithmetic -----------------------------------------------------
    def _check_sig(self, other: "Jet"):
        if self.sig != other.sig:
            raise SignatureMismatchError(f"{self.sig} vs {other.sig}")

    def __add__(self, other: "Jet") -> "Jet":
        self._check_sig(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out[a] + c if a in out else c
        return Jet._of(self.sig, out)

    def __neg__(self) -> "Jet":
        return Jet._of(self.sig, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-other)

    def scale(self, c) -> "Jet":
        c = Fraction(c)
        return Jet._of(self.sig, {a: c * v for a, v in self.coeffs.items()})

    def __mul__(self, other: "Jet") -> "Jet":
        """Jet product: full product truncated at degree m."""
        self._check_sig(other)
        products = _products(self.sig.m, self.sig.n)
        out = {}
        for a, ca in self.coeffs.items():
            row = products[a]
            for b, cb in other.coeffs.items():
                key = row.get(b)
                if key is not None:
                    c = ca * cb
                    out[key] = out[key] + c if key in out else c
        return Jet._of(self.sig, out)

    def pow(self, k: int) -> "Jet":
        if k < 0:
            raise ValueError("negative jet power")
        out = Jet.constant(self.sig, 1)
        for _ in range(k):
            out = out * self
        return out

    # -- evaluation -----------------------------------------------------
    def eval(self, point, mode="exact"):
        """Value of the polynomial at a point (or interval box)."""
        if len(point) != self.sig.n:
            raise DimensionMismatchError("point has wrong dimension")
        if mode == "exact":
            total = Fraction(0)
            coords = [Fraction(x) for x in point]
            for a, c in self.coeffs.items():
                term = c
                for xi, ai in zip(coords, a):
                    term *= xi ** ai
                total += term
            return total
        if mode == "interval":
            box = [x if isinstance(x, Interval) else Interval.exact(x)
                   for x in point]
            total = Interval(0.0, 0.0)
            for a, c in self.coeffs.items():
                term = Interval.exact(c)
                for xi, ai in zip(box, a):
                    if ai:
                        term = term * xi.ipow(ai)
                total = total + term
            return total
        if mode == "float":
            total = 0.0
            for a, c in self.coeffs.items():
                term = float(c)
                for xi, ai in zip(point, a):
                    term *= float(xi) ** ai
                total += term
            return total
        raise ValueError(f"unknown eval mode {mode!r}")

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
    for alpha in p.sig.monomials:
        if alpha not in p.coeffs:
            continue
        c = p.coeffs[alpha]
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
    that a parsed 0 keeps its place.  rem is the remainder modulo
    {r_j^2 - s_j} in the verifier's identity ring, whose generators r_j
    come before the variables.  No gcd and no division."""

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
        """The n x n matrix of degree-1 coefficients (rows = components)."""
        n = self.sig.n
        rows = []
        for comp in self.components:
            row = []
            for j in range(n):
                e = [0] * n
                e[j] = 1
                row.append(comp.coeffs.get(tuple(e), Fraction(0)))
            rows.append(row)
        return rows

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
    of p, the powers phi^alpha truncated at degree m."""
    if p.sig != phi.sig:
        raise SignatureMismatchError("jet and diffeo-jet signatures differ")
    out = {}
    for alpha, c in p.coeffs.items():
        for key, v in phi._power(alpha).coeffs.items():
            v = c * v
            out[key] = out[key] + v if key in out else v
    return Jet._of(p.sig, out)
