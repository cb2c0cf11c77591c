"""Integer elimination and the compiled per-cell forbidden-cone
evaluation give exactly what the Fraction elimination, the Zassenhaus
intersection and the per-monomial evaluation in scalar_reference.py
give."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

import scalar_reference as ref
from jetideals.directions import _compile_scaled, _eval_scaled
from jetideals.exactlin import Subspace, rref
from jetideals.geometry import sphere_cover
from jetideals.ideal import JetIdeal
from jetideals.interval import Interval
from jetideals.jetring import DiffeoJet, Jet, RingSignature, _invertible

from conftest import random_diffeo, random_jet


def _entry(rng):
    kind = rng.random()
    if kind < 0.35:
        return 0
    if kind < 0.55:
        return rng.randint(-9, 9)
    if kind < 0.95:
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    return rng.choice((0.5, -0.25, 3.0))


def _random_rows(rng, max_rows=7, max_cols=8):
    """A matrix of ints, Fractions and floats, often with dependent rows."""
    cols = rng.randint(1, max_cols)
    rows = [[_entry(rng) for _ in range(cols)]
            for _ in range(rng.randint(0, max_rows))]
    if rows and rng.random() < 0.5:
        a, b = rng.choice(rows), rng.choice(rows)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 5))
        rows.append([Fraction(x) + c * Fraction(y) for x, y in zip(a, b)])
    return cols, rows


def _fraction_rows(rows, pivots):
    """The Fraction RREF rows that rref's integer rows stand for."""
    return [tuple(Fraction(a, row[p]) for a in row)
            for row, p in zip(rows, pivots)]


def _assert_canonical(rows, pivots):
    """rref's contract: tuples of ints, each primitive with a positive
    pivot that is the only nonzero entry of its column."""
    assert all(type(row) is tuple for row in rows)
    assert all(type(x) is int for row in rows for x in row)
    for i, (row, p) in enumerate(zip(rows, pivots)):
        assert row[p] > 0 and gcd(*row) == 1
        assert all(other[p] == 0 for j, other in enumerate(rows) if j != i)


def test_rref_equals_fraction_elimination():
    rng = random.Random(2024)
    for _ in range(3000):
        _, rows = _random_rows(rng)
        got, pivots = rref(rows)
        want_basis, want_pivots = ref.rref(rows)
        assert pivots == want_pivots
        assert _fraction_rows(got, pivots) == want_basis
        _assert_canonical(got, pivots)


_entries = st.one_of(st.integers(-30, 30), st.fractions(max_denominator=12))


@st.composite
def _matrices(draw):
    cols = draw(st.integers(1, 7))
    return draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                         max_size=6))


@given(_matrices())
def test_rref_rows_are_the_canonical_integer_rows(rows):
    got, pivots = rref(rows)
    _assert_canonical(got, pivots)
    assert (_fraction_rows(got, pivots), pivots) == ref.rref(rows)


@given(_matrices(), st.data())
def test_presentations_of_one_span_give_equal_rows_and_hashes(rows, data):
    """Scaled rows, sums of rows and repeats, shuffled, span the same
    space, which must come out with the same rows."""
    cols = len(rows[0]) if rows else 1
    weights = st.fractions(max_denominator=6).filter(bool)
    other = []
    for row in rows:
        c = data.draw(weights)
        other.append([c * x for x in row])
    if rows:
        for _ in range(data.draw(st.integers(0, 3))):
            a, b = (data.draw(st.sampled_from(rows)) for _ in range(2))
            c = data.draw(weights)
            other.append([x + c * y for x, y in zip(a, b)])
    other = data.draw(st.permutations(other))
    U, W = Subspace(cols, rows), Subspace(cols, other)
    assert U.rows == W.rows and U.pivots == W.pivots
    assert U == W and hash(U) == hash(W)
    assert ref.subspace_basis(U) == ref.rref(rows)[0]


def test_contains_and_coordinates_equal_fraction_reduction():
    rng = random.Random(2025)
    for _ in range(1000):
        cols, rows = _random_rows(rng)
        space = Subspace(cols, rows)
        combo = [Fraction(0)] * cols
        for b in ref.subspace_basis(space):
            w = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            combo = [c + w * x for c, x in zip(combo, b)]
        junk = [_entry(rng) for _ in range(cols)]
        for vector in (combo, junk, [c + Fraction(junk[0]) for c in combo]):
            assert space.contains(vector) is ref.subspace_contains(
                ref.subspace_basis(space), space.pivots, vector)


def test_membership_rejects_a_wrong_length():
    with pytest.raises(ValueError):
        Subspace(3, [[1, 2, 3]]).contains([1, 2])


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_ideal_span_equals_the_span_of_jet_products(m, n):
    """Rows written by exponent shift span what the products x^beta * g
    span, row for row."""
    rng = random.Random(m * 10 + n)
    sig = RingSignature(m, n)
    for _ in range(15):
        gens = [random_jet(rng, sig, density=4, allow_constant=False)
                for _ in range(rng.randint(1, 3))]
        products = [ref.jet_coordinates(Jet.monomial(sig, beta) * g,
                                        include_constant=False)
                    for g in gens for beta in sig.monomials
                    if sum(beta) <= m - 1]
        products = [v for v in products if any(v)]
        want = ref.rref(products)
        span = JetIdeal(sig, gens).span
        assert (ref.subspace_basis(span), span.pivots) == want


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_intersection_span_equals_its_re_span(m, n):
    rng = random.Random(100 + m * 10 + n)
    sig = RingSignature(m, n)
    for _ in range(10):
        gens = [random_jet(rng, sig, density=4, allow_constant=False)
                for _ in range(rng.randint(1, 3))]
        I = JetIdeal(sig, gens)
        J = I.transform(random_diffeo(rng, sig))
        K = I.intersect(J)
        assert K.span == I.intersect_space(J)
        basis = ref.subspace_basis(K.span)
        again = Subspace(K.span.ambient_dim, basis)
        assert (basis, K.span.pivots) \
            == (ref.subspace_basis(again), again.pivots)
        assert JetIdeal(sig, K.generators).span == K.span
        assert K.basis_jets() == list(K.generators)


def test_intersection_is_already_reduced():
    """Subspace.intersect keeps the right halves of its RREF as they
    are; re-reducing them changes neither basis nor pivots."""
    rng = random.Random(2026)
    for _ in range(500):
        cols, rows = _random_rows(rng)
        _, more = _random_rows(rng, max_cols=cols)
        more = [(r + [0] * cols)[:cols] for r in more]
        if rng.random() < 0.5:   # overlap: share some of the first rows
            more += rows[:rng.randint(0, len(rows))]
        inter = Subspace(cols, rows).intersect(Subspace(cols, more))
        basis = ref.subspace_basis(inter)
        again = Subspace(cols, basis)
        assert basis == ref.subspace_basis(again)
        assert inter.pivots == again.pivots
        assert all(type(row) is tuple for row in basis)
        assert all(type(x) is Fraction for row in basis for x in row)
        assert all(Subspace(cols, rows).contains(v)
                   and Subspace(cols, more).contains(v) for v in basis)


@given(st.integers(1, 7).flatmap(lambda cols: st.tuples(
    *(st.lists(st.lists(_entries, min_size=cols, max_size=cols),
               max_size=6) for _ in range(2)))), st.data())
def test_intersection_equals_zassenhaus(matrices, data):
    rows, more = matrices
    if rows and data.draw(st.booleans()):   # overlap: share a few rows
        more = more + data.draw(st.lists(st.sampled_from(rows), max_size=3))
    cols = len((rows or more or [[0]])[0])
    U, W = Subspace(cols, rows), Subspace(cols, more)
    got, want = U.intersect(W), ref.subspace_intersect(U, W)
    assert (got.rows, got.pivots) == (want.rows, want.pivots)
    _assert_canonical(got.rows, got.pivots)


def _random_matrix(rng, n, singular):
    rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)]
    if singular:
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        rows[i] = [c * x for x in rows[j]]
    return rows


@pytest.mark.parametrize("n", [2, 3])
def test_invertible_and_inverse_equal_gauss_jordan(n):
    rng = random.Random(7 + n)
    seen = set()
    for trial in range(400):
        A = _random_matrix(rng, n, singular=trial % 2 == 1)
        want = ref.invertible(A)
        seen.add(want)
        assert _invertible(A) is want
        if want:
            assert ref.integer_matrix_inverse(A) == ref.matrix_inverse(A)
        else:
            with pytest.raises(ValueError, match="singular matrix"):
                ref.integer_matrix_inverse(A)
            with pytest.raises(ValueError, match="singular matrix"):
                ref.matrix_inverse(A)
    assert seen == {True, False}


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_matrix_inverse_equals_the_reference(A):
    if not ref.invertible(A):
        with pytest.raises(ValueError, match="singular matrix"):
            ref.integer_matrix_inverse(A)
        return
    inv = ref.integer_matrix_inverse(A)
    assert inv == ref.matrix_inverse(A)
    assert all(type(x) is Fraction for row in inv for x in row)


def test_linear_inverse_composes_to_identity():
    sig = RingSignature(2, 3)
    rng = random.Random(3)
    for _ in range(20):
        A = _random_matrix(rng, 3, singular=False)
        if not ref.invertible(A):
            continue
        phi = DiffeoJet.linear(sig, A)
        inv = ref.linear_inverse(phi).linear_matrix()
        prod = [[sum(A[i][k] * inv[k][j] for k in range(3)) for j in range(3)]
                for i in range(3)]
        assert prod == [[int(i == j) for j in range(3)] for i in range(3)]


def _bits(iv):
    return (iv.lo.hex(), iv.hi.hex())


@pytest.mark.parametrize("m,n", [(2, 2), (4, 2), (3, 3)])
def test_compiled_eval_scaled_equals_per_monomial_evaluation(m, n):
    rng = random.Random(50 + m + n)
    sig = RingSignature(m, n)
    patches = sphere_cover(n, 2)
    for _ in range(40):
        jets = [j for j in (random_jet(rng, sig, density=5,
                                       allow_constant=False)
                            for _ in range(rng.randint(1, 3)))
                if not j.is_zero()]
        if not jets:
            continue
        compiled = _compile_scaled(jets)
        for _ in range(10):
            a, b = sorted(rng.random() for _ in range(2))
            s = Interval(a, b)
            u_box = rng.choice(patches).direction_enclosure()
            assert _bits(_eval_scaled(compiled, s, u_box)) \
                == _bits(ref.eval_scaled(jets, s, u_box))
