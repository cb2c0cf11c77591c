"""Ideals that the source paper proves closed: I^m(E) for E a union of
rational lines through 0 in the plane.

Every I^m(E) is closed.  A C^m function f vanishing on E has a jet P
with P(t v) = o(t^m) on each line R v, and P has degree at most m, so
every homogeneous part of P vanishes at v; such a P vanishes on E and is
its own f.  So I^m(E) is the kernel of one rational matrix, degree by
degree, and has homogeneous generators.  check_strong_global concludes
"p is not in I itself, so I is not closed" from a pass with p outside I,
so on these ideals no certificate may pass for such a p, at any scale.
"""

from fractions import Fraction

import pytest

from jetideals.directions import allow_overapprox
from jetideals.exactlin import rref
from jetideals.ideal import JetIdeal
from jetideals.jetring import DiffeoJet, Jet, RingSignature, jet_parse
from jetideals.symfun import Const, expr_parse, mul
from jetideals.verifier import ImplicationCertificate, check_strong_global


def lines_ideal(sig, lines):
    """I^m(E) for E the union of the lines R v, v in lines (integer
    vectors): per degree d, the forms whose coefficients c_alpha meet
    sum c_alpha v^alpha = 0 at every v, a kernel read off rref."""
    gens = []
    for d in range(1, sig.m + 1):
        monos = [a for a in sig.monomials if sum(a) == d]
        rows, pivots = rref([[Fraction(v[0]) ** a[0] * Fraction(v[1]) ** a[1]
                              for a in monos] for v in lines])
        for free in (j for j in range(len(monos)) if j not in pivots):
            coeffs = {monos[free]: Fraction(1)}
            for row, p in zip(rows, pivots):
                coeffs[monos[p]] = Fraction(-row[free], row[p])
            gens.append(Jet(sig, coeffs))
    return JetIdeal(sig, gens)


CASES = [
    # (m, lines): k lines with m >= k
    (2, [(1, 0)]),
    (3, [(1, 0)]),
    (2, [(1, 0), (1, 1)]),
    (3, [(1, 0), (1, 1)]),
    (3, [(1, 0), (0, 1), (1, 2)]),
]


# rational invertible maps A of the plane
MAPS = [
    [[1, 2], [0, 1]],
    [[2, -1], [1, 1]],
    [[0, 3], [Fraction(1, 2), Fraction(-5, 7)]],
]


def test_the_x_axis_gives_y():
    sig = RingSignature(2, 2)
    assert lines_ideal(sig, [(1, 0)]) == JetIdeal(sig, [jet_parse("y", sig)])


@pytest.mark.parametrize("m,lines", CASES)
def test_allowed_set_is_the_2k_directions(m, lines):
    allowed = allow_overapprox(lines_ideal(RingSignature(m, 2), lines))
    assert allowed.exact
    want = sorted(tuple(s * c / (v[0] ** 2 + v[1] ** 2) ** 0.5 for c in v)
                  for v in lines for s in (1, -1))
    got = sorted(d.vec for d in allowed.directions)
    assert len(got) == 2 * len(lines)
    assert all(abs(a - b) < 1e-12 for u, w in zip(got, want)
               for a, b in zip(u, w))


@pytest.mark.parametrize("m,lines", CASES)
def test_no_certificate_concludes_not_closed(m, lines):
    # F = p with no terms, for each monomial p outside I, at scales
    # 10^-j: a pass would conclude that the closed I is not closed
    sig = RingSignature(m, 2)
    ideal = lines_ideal(sig, lines)
    outside = [a for a in sig.monomials
               if sum(a) and not ideal.contains(Jet.monomial(sig, a))]
    assert outside
    for alpha in outside:
        p = Jet.monomial(sig, alpha)
        F = expr_parse(str(p), 2)
        for j in range(7):
            scale = Fraction(1, 10 ** j)
            report = check_strong_global(ImplicationCertificate(
                ideal, p.scale(scale), [], mul(Const(scale), F)))
            assert report["verdict"] != "pass", (alpha, j)
            assert "conclusions" not in report


@pytest.mark.parametrize("A", MAPS)
@pytest.mark.parametrize("m,lines", CASES)
def test_lines_ideals_are_covariant(m, lines, A):
    # f vanishes on A E iff f o A vanishes on E, so I^m(E) is
    # I^m(A E) composed with A, and its allowed directions go to A's
    sig = RingSignature(m, 2)
    moved = [tuple(a * v[0] + b * v[1] for a, b in A) for v in lines]
    ideal, image = lines_ideal(sig, lines), lines_ideal(sig, moved)
    assert ideal == image.transform(DiffeoJet.linear(sig, A))
    allowed, allowed_image = allow_overapprox(ideal), allow_overapprox(image)
    assert allowed.exact == allowed_image.exact
    want = []
    for d in allowed.directions:
        u = [float(a) * d.vec[0] + float(b) * d.vec[1] for a, b in A]
        want.append(tuple(c / (u[0] ** 2 + u[1] ** 2) ** 0.5 for c in u))
    got = sorted(d.vec for d in allowed_image.directions)
    assert len(got) == len(want)
    assert all(abs(a - b) < 1e-12 for u, w in zip(got, sorted(want))
               for a, b in zip(u, w))
