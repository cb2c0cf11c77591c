"""Ideals generated by finite families of jets without constant term.

The ideal generated by g_1..g_r inside the jets vanishing at the origin
is the rational span of all truncated products x^beta * g_i with
|beta| <= m-1 (including beta = 0).  Multiples of degree m or more
truncate to zero, so this finite family spans the whole ideal and the
canonical representation is a subspace of coefficient vectors.
"""

from __future__ import annotations

import itertools

from .errors import SignatureMismatchError
from .exactlin import Subspace
from .jetring import DiffeoJet, Jet, RingSignature, jet_compose


def _multiplier_monomials(sig: RingSignature):
    """Exponent tuples of degree 0..m-1 (the useful multipliers)."""
    return [a for a in sig.monomials if sum(a) <= sig.m - 1]


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
        vectors = []
        for g in generators:
            for beta in _multiplier_monomials(sig):
                prod = Jet.monomial(sig, beta) * g
                if not prod.is_zero():
                    vectors.append(prod.coordinates(include_constant=False))
        self.span = Subspace(sig.dim0, vectors)
        self._allowed = {}

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
        linear object; intersect() re-wraps its basis as generators.
        """
        if self.sig != other.sig:
            raise SignatureMismatchError("ideal signatures differ")
        return self.span.intersect(other.span)

    def intersect(self, other: "JetIdeal") -> "JetIdeal":
        space = self.intersect_space(other)
        gens = [Jet.from_coordinates(self.sig, v, include_constant=False)
                for v in space.basis]
        return JetIdeal(self.sig, gens)

    def transform(self, phi: DiffeoJet) -> "JetIdeal":
        """The ideal generated by g o phi for each generator g."""
        return JetIdeal(self.sig, [jet_compose(g, phi) for g in self.generators])


def power_ideal(sig: RingSignature, k: int) -> JetIdeal:
    """The ideal spanned by all monomials of degree >= k (1 <= k <= m)."""
    if not 1 <= k <= sig.m:
        raise ValueError("need 1 <= k <= m")
    gens = [Jet.monomial(sig, a) for a in
            itertools.product(range(k + 1), repeat=sig.n) if sum(a) == k]
    return JetIdeal(sig, gens)
