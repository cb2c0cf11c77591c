"""Exact arithmetic in truncated polynomial rings of m-jets.

A jet is a polynomial of total degree at most m in n variables with
exact rational coefficients; the ring product is the polynomial product
with every term of degree above m discarded.  All values are immutable
and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import lru_cache

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


@lru_cache(maxsize=None)
def monomials(m: int, n: int):
    """All exponent tuples of total degree <= m, in graded lex order."""
    out = []
    for deg in range(m + 1):
        level = [e for e in itertools.product(range(deg + 1), repeat=n)
                 if sum(e) == deg]
        level.sort(reverse=True)
        out.extend(level)
    return tuple(out)


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
        return Jet(self.sig, {a: c for a, c in self.coeffs.items() if sum(a) == k})

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

    @staticmethod
    def from_coordinates(sig: RingSignature, vec, include_constant=True):
        table = sig.monomials
        if not include_constant:
            table = table[1:]
        if len(vec) != len(table):
            raise DimensionMismatchError("coordinate vector has wrong length")
        return Jet(sig, dict(zip(table, vec)))

    # -- arithmetic -----------------------------------------------------
    def _check_sig(self, other: "Jet"):
        if self.sig != other.sig:
            raise SignatureMismatchError(f"{self.sig} vs {other.sig}")

    def __add__(self, other: "Jet") -> "Jet":
        self._check_sig(other)
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, Fraction(0)) + c
        return Jet(self.sig, out)

    def __neg__(self) -> "Jet":
        return Jet(self.sig, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-other)

    def scale(self, c) -> "Jet":
        c = Fraction(c)
        return Jet(self.sig, {a: c * v for a, v in self.coeffs.items()})

    def __mul__(self, other: "Jet") -> "Jet":
        """Jet product: full product truncated at degree m."""
        self._check_sig(other)
        m, n = self.sig.m, self.sig.n
        out = {}
        for a, ca in self.coeffs.items():
            da = sum(a)
            for b, cb in other.coeffs.items():
                if da + sum(b) > m:
                    continue
                key = tuple(a[i] + b[i] for i in range(n))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return Jet(self.sig, out)

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
            coords = [Fraction(x) if not isinstance(x, float) else Fraction(x)
                      for x in point]
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
# Parsing.  Grammar: sum of terms; a term is *-separated factors; a factor
# is an integer or rational literal, a variable with optional ^power, or a
# parenthesized subexpression.  '/' is accepted between a factor and a
# constant (so "1/2*x" and "x/2" both work); division by a non-constant
# polynomial is rejected.
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
            if "." in num:
                tokens.append(("num", Fraction(num).limit_denominator(10 ** 12), pos))
            else:
                tokens.append(("num", Fraction(int(num)), pos))
        elif name is not None:
            tokens.append(("name", name, pos))
        else:
            tokens.append(("op", op, pos))
        pos = mt.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Token stream of a recursive-descent parser over the variables of
    R^n; a subclass gives the top rule parse_sum."""

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


class _PolyParser(_Parser):
    """Recursive-descent parser producing an untruncated polynomial dict."""

    def parse_sum(self):
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        poly = _poly_scale(self.parse_product(), sign)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_product()
                poly = _poly_add(poly, _poly_scale(rhs, -1 if val == "-" else 1))
            else:
                return poly

    def parse_product(self):
        poly = self.parse_factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                poly = _poly_mul(poly, self.parse_factor(), self.n)
            elif kind == "op" and val == "/":
                self.next()
                divisor = self.parse_factor()
                const = _poly_as_constant(divisor)
                if const is None:
                    raise ParseError("division by a non-constant polynomial", pos)
                if const == 0:
                    raise ParseError("division by zero", pos)
                poly = _poly_scale(poly, Fraction(1, 1) / const)
            elif kind in ("name",) or (kind == "op" and val == "("):
                # implicit product, e.g. "2x" is rejected but "x(x+y)" allowed
                poly = _poly_mul(poly, self.parse_factor(), self.n)
            else:
                return poly

    def parse_factor(self):
        kind, val, pos = self.next()
        if kind == "num":
            base = {(0,) * self.n: val}
        elif kind == "name":
            if val not in self.names:
                raise ParseError(f"unknown variable {val!r}", pos)
            e = [0] * self.n
            e[self.names[val]] = 1
            base = {tuple(e): Fraction(1)}
        elif kind == "op" and val == "(":
            base = self.parse_sum()
            self.expect_op(")")
        elif kind == "op" and val == "-":
            return _poly_scale(self.parse_factor(), -1)
        else:
            raise ParseError("expected a term", pos)
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, exp, pos = self.next()
            if kind != "num" or exp.denominator != 1 or exp < 0:
                raise ParseError("exponent must be a non-negative integer", pos)
            out = {(0,) * self.n: Fraction(1)}
            for _ in range(int(exp)):
                out = _poly_mul(out, base, self.n)
            return out
        return base


def _poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v != 0}


def _poly_scale(a, c):
    c = Fraction(c)
    if c == 0:
        return {}
    return {k: c * v for k, v in a.items()}


def _poly_mul(a, b, n):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(ka[i] + kb[i] for i in range(n))
            out[key] = out.get(key, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def _poly_as_constant(a):
    if not a:
        return Fraction(0)
    if len(a) == 1:
        (k, v), = a.items()
        if sum(k) == 0:
            return v
    return None


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
    """Jet of an origin-fixing C^m map with invertible linear part."""

    __slots__ = ("sig", "components")

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

    def linear_inverse(self) -> "DiffeoJet":
        """Inverse of the linear part as a linear diffeo-jet."""
        return DiffeoJet.linear(self.sig, _matrix_inverse(self.linear_matrix()))


def _invertible(matrix) -> bool:
    return len(rref(matrix)[1]) == len(matrix)


def _matrix_inverse(matrix):
    """The right half of rref([A | I]), whose left half is I iff A is
    invertible."""
    n = len(matrix)
    reduced, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                            for i, row in enumerate(matrix)])
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [list(row[n:]) for row in reduced]


def jet_compose(p: Jet, phi: DiffeoJet) -> Jet:
    """J^m(p o phi): substitute component jets and truncate at degree m."""
    if p.sig != phi.sig:
        raise SignatureMismatchError("jet and diffeo-jet signatures differ")
    sig = p.sig
    # powers[i][k] = phi_i^k as a jet
    powers = []
    for comp in phi.components:
        pk = [Jet.constant(sig, 1)]
        for _ in range(sig.m):
            pk.append(pk[-1] * comp)
        powers.append(pk)
    out = Jet.zero(sig)
    for alpha, c in p.coeffs.items():
        term = Jet.constant(sig, c)
        for i, ai in enumerate(alpha):
            if ai:
                term = term * powers[i][ai]
        out = out + term
    return out
