"""Ideals generated by finite families of jets without constant term.

The ideal generated by g_1..g_r inside the jets vanishing at the origin
is the rational span of all truncated products x^beta * g_i with
|beta| <= m-1 (including beta = 0).  Multiples of degree m or more
truncate to zero, so this finite family spans the whole ideal and the
canonical representation is a subspace of coefficient vectors.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .errors import SignatureMismatchError
from .exactlin import Subspace
from .jetring import DiffeoJet, Jet, RingSignature, jet_compose, monomials


@lru_cache(maxsize=None)
def _shifted_columns(m: int, n: int):
    """For each multiplier x^beta with |beta| <= m-1 (the useful ones,
    including beta = 0), the map alpha -> coordinate index of
    x^(alpha + beta) over the nonconstant exponents alpha that survive
    truncation.  Coordinates are a jet's without the constant term."""
    table = monomials(m, n)
    column = {a: i - 1 for i, a in enumerate(table)}
    return tuple({a: column[tuple(x + y for x, y in zip(a, beta))]
                  for a in table[1:] if sum(a) + sum(beta) <= m}
                 for beta in table if sum(beta) <= m - 1)


class JetIdeal:
    """Finitely generated ideal of jets vanishing at the origin.

    `_allowed` holds this instance's allowed sets by patch budget
    (filled by `directions.allow_overapprox`).  It lives on the instance,
    not in a cache keyed by `==`: equal spans can have generators with
    different lowest parts, hence different allowed sets.
    """

    __slots__ = ("sig", "generators", "span", "_allowed")

    def __init__(self, sig: RingSignature, generators):
        generators = tuple(generators)
        for g in generators:
            if g.sig != sig:
                raise SignatureMismatchError("generator signature mismatch")
            if (0,) * sig.n in g.coeffs:
                raise ValueError("generators must vanish at the origin")
        self.sig = sig
        self.generators = generators
        # each product x^beta * g is g's coefficients at shifted
        # exponents, cut at degree m; a row may be any nonzero multiple
        # of the product, so g's denominators are cleared once
        vectors = []
        dim0 = sig.dim0
        shifts = _shifted_columns(sig.m, sig.n)
        for g in generators:
            den = lcm(*(c.denominator for c in g.coeffs.values()))
            terms = [(a, c.numerator * (den // c.denominator))
                     for a, c in g.coeffs.items()]
            for columns in shifts:
                row = [0] * dim0
                for a, c in terms:
                    j = columns.get(a)
                    if j is not None:
                        row[j] = c
                if any(row):
                    vectors.append(row)
        self.span = Subspace(dim0, vectors)
        self._allowed = {}

    @classmethod
    def _spanning(cls, sig: RingSignature, space: Subspace) -> "JetIdeal":
        """The ideal whose span is `space`, generated by its RREF basis.

        Only for a space already closed under multiplication by the
        variables (an ideal), whose re-span by all multiples x^beta * b
        is the space itself."""
        self = object.__new__(cls)
        self.sig = sig
        self.generators = tuple(
            Jet.from_coordinates(sig, v, include_constant=False)
            for v in space.basis)
        self.span = space
        self._allowed = {}
        return self

    @property
    def dim(self) -> int:
        return self.span.dim

    def __eq__(self, other):
        return (isinstance(other, JetIdeal) and self.sig == other.sig
                and self.span == other.span)

    def __hash__(self):
        return hash((self.sig, self.span))

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"JetIdeal(m={self.sig.m}, n={self.sig.n}, <{gens}>, dim={self.dim})"

    def contains(self, p: Jet) -> bool:
        if p.sig != self.sig:
            raise SignatureMismatchError("jet signature mismatch")
        if (0,) * self.sig.n in p.coeffs:
            return False
        return self.span.contains(p.coordinates(include_constant=False))

    def basis_jets(self):
        """Canonical (RREF) basis of the ideal as jets."""
        return [Jet.from_coordinates(self.sig, v, include_constant=False)
                for v in self.span.basis]

    def add(self, other: "JetIdeal") -> "JetIdeal":
        """Ideal sum: just pool the generators."""
        if self.sig != other.sig:
            raise SignatureMismatchError("ideal signatures differ")
        return JetIdeal(self.sig, self.generators + other.generators)

    def intersect_space(self, other: "JetIdeal") -> Subspace:
        """The intersection as a subspace of coefficient vectors.

        The intersection of two ideals is again an ideal, but it need
        not be presented by a small generating family, so we return the
        linear object; intersect() wraps it with its basis as generators.
        """
        if self.sig != other.sig:
            raise SignatureMismatchError("ideal signatures differ")
        return self.span.intersect(other.span)

    def intersect(self, other: "JetIdeal") -> "JetIdeal":
        return JetIdeal._spanning(self.sig, self.intersect_space(other))

    def transform(self, phi: DiffeoJet) -> "JetIdeal":
        """The ideal generated by g o phi for each generator g."""
        return JetIdeal(self.sig, [jet_compose(g, phi) for g in self.generators])
