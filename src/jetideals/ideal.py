"""Ideals generated by finite families of jets without constant term.

The ideal generated by g_1..g_r inside the jets vanishing at the origin
is the rational span of all truncated products x^beta * g_i with
|beta| <= m-1 (including beta = 0).  Multiples of degree m or more
truncate to zero, so this finite family spans the whole ideal and the
canonical representation is a subspace of coefficient vectors.  The
rows are written from the generators' integer numerators (a jet's
canonical form), and a basis jet is a span row over its pivot entry.
"""

from __future__ import annotations

from .errors import SignatureMismatchError
from .exactlin import Subspace
from .jetring import DiffeoJet, Jet, RingSignature, _products, jet_compose


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
            if g.nums[0]:
                raise ValueError("generators must vanish at the origin")
        self.sig = sig
        self.generators = generators
        # the product x^beta * g is g's numerators shifted to the columns
        # that the product table pairs with beta's, cut at degree m; a
        # row may be any nonzero multiple of the product, so g's
        # denominator is dropped.  The rows join in the graded order of
        # beta, up to the first beta whose product is cut to zero
        vectors = []
        dim0 = sig.dim0
        for g in generators:
            for shift in _products(sig.m, sig.n):
                row = [0] * dim0
                for k, c in zip(shift, g.nums):
                    if c:
                        row[k - 1] = c
                if not any(row):
                    break
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
        self.generators = tuple(_basis_jets(sig, space))
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
        return not p.nums[0] and self.span.contains(p.nums[1:])

    def basis_jets(self):
        """Canonical (RREF) basis of the ideal as jets."""
        return _basis_jets(self.sig, self.span)

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
        """The ideal generated by g o phi for each generator g; the
        compositions share phi's powers."""
        return JetIdeal(self.sig, [jet_compose(g, phi) for g in self.generators])


def _basis_jets(sig: RingSignature, space: Subspace):
    """The jets whose coordinates without the constant term are the
    rows of space's RREF basis: each primitive row over its pivot
    entry."""
    return [Jet._dense(sig, (0, *row), row[p])
            for row, p in zip(space.rows, space.pivots)]
