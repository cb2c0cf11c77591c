"""Exact rational linear algebra: RREF canonicity and subspace lattice."""

import random
from fractions import Fraction
from math import gcd

from jetideals.exactlin import Subspace, rref

import scalar_reference as ref
from conftest import random_fraction


def random_vectors(rng, dim, count):
    return [[random_fraction(rng) for _ in range(dim)] for _ in range(count)]


def test_rref_idempotent_and_canonical():
    rng = random.Random(11)
    for _ in range(50):
        dim = rng.randint(1, 6)
        vecs = random_vectors(rng, dim, rng.randint(0, 6))
        rows, pivots = rref(vecs)
        again, pivots2 = rref(rows)
        assert rows == again and pivots == pivots2
        # each row is primitive with a positive pivot, the only nonzero
        # entry of its pivot column
        for i, p in enumerate(pivots):
            assert rows[i][p] > 0 and gcd(*rows[i]) == 1
            assert all(rows[j][p] == 0 for j in range(len(rows)) if j != i)


def test_subspace_equality_independent_of_presentation():
    v1 = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    v2 = [[Fraction(2), Fraction(3)], [Fraction(1), Fraction(-1)]]
    assert Subspace(2, v1) == Subspace(2, v2)


def test_contains_and_coordinates():
    rng = random.Random(21)
    for _ in range(40):
        dim = rng.randint(2, 6)
        space = Subspace(dim, random_vectors(rng, dim, rng.randint(1, dim)))
        # random combinations of the basis lie in the space
        combo = [Fraction(0)] * dim
        basis = ref.subspace_basis(space)
        weights = [random_fraction(rng) for _ in basis]
        for w, b in zip(weights, basis):
            combo = [c + w * x for c, x in zip(combo, b)]
        assert space.contains(combo)


def test_grassmann_identity():
    """dim U + dim W = dim(U + W) + dim(U intersect W)."""
    rng = random.Random(31)
    for _ in range(60):
        dim = rng.randint(1, 7)
        U = Subspace(dim, random_vectors(rng, dim, rng.randint(0, dim)))
        W = Subspace(dim, random_vectors(rng, dim, rng.randint(0, dim)))
        S = U.add(W)
        I = U.intersect(W)
        assert U.dim + W.dim == S.dim + I.dim
        assert S.contains_subspace(U) and S.contains_subspace(W)
        assert U.contains_subspace(I) and W.contains_subspace(I)


def test_intersection_is_largest_common_subspace():
    rng = random.Random(41)
    for _ in range(30):
        dim = rng.randint(2, 6)
        U = Subspace(dim, random_vectors(rng, dim, rng.randint(1, dim)))
        W = Subspace(dim, random_vectors(rng, dim, rng.randint(1, dim)))
        I = U.intersect(W)
        for v in ref.subspace_basis(I):
            assert U.contains(v) and W.contains(v)

