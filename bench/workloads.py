"""The three benchmark workloads: seeded op sequences with oracles.

A workload turns a seed into a deterministic sequence of ops, made of
blocks of BLOCK ops that share one mix of op kinds.  Op i is drawn
from its own random stream, so its inputs do not depend on how many
ops ran before it.  Each op calls the public jetideals API once
(``run``) and an oracle then checks the output (``check``, which
returns a list of problems; empty means correct).  The oracles only
test properties that every correct program has: they never pin a
verdict that a sound fix elsewhere could legitimately move.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from jetideals import (Gauge, JetIdeal, RingSignature, DiffeoJet, Jet,
                       ImplicationCertificate, allow_overapprox,
                       check_annulus_condition, check_strong_global,
                       estimate_tangent_directions, exact_zero_residual,
                       expr_derive, expr_eval, expr_parse, gauge_regularize,
                       jet_parse, verify_forbidden_certificate)
from jetideals.symfun import Const, mul
from jetideals.verifier import chi_expr, expr_scale_coords

POLES = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]


class Op:
    """One call into the public API plus the oracle for its output."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _op_rng(seed, index):
    return random.Random(seed * 1_000_003 + index)


def _rational(rng, lo, hi):
    """A rational in [lo, hi] with a fresh-looking denominator."""
    den = rng.randint(50, 400)
    num = rng.randint(math.ceil(lo * den), math.floor(hi * den))
    return Fraction(num, den)


def _verdict_problems(verdict):
    if verdict not in ("pass", "fail", "inconclusive"):
        return [f"unknown verdict {verdict!r}"]
    return []


# ---------------------------------------------------------------------------
# annulus: check_annulus_condition on the introductory cutoff certificate.
# ---------------------------------------------------------------------------

class Annulus:
    """C and C* on the same draw, alternating, and one C** per block.

    The certificate is xy = S*(y^2 - xz) + F near the poles, m = 2,
    n = 3, with S = -(y/z) theta(|(x,y)|, 5e-13) and F = (y^3/z)
    theta(|(x,y)|, 5e-25).  Draws follow acceptance criterion 08:
    rho, eps and A are scaled by factors from [0.8, 1.25], [0.5, 2] and
    [0.5, 2], stratified per block; 3 of a block's 13 draws flip the
    sign of S.
    """

    name = "annulus"
    why = ("float evaluation of cutoff derivative trees is nearly all of "
           "the time; ring, RREF and direction layers sit idle")
    PAIRS = 12                 # C/C* pairs per block, then one C**
    BLOCK = 2 * PAIRS + 1
    BLOCK_SECONDS = 30.0       # one block on the reference machine
    FLIPPED = 3                # draws per block with the sign of S flipped

    def __init__(self, seed):
        self.seed = seed
        sig = RingSignature(2, 3)
        self.m, self.n = 2, 3
        self.p = jet_parse("x*y", sig)
        self.Q = [jet_parse("y^2 - x*z", sig)]
        s1 = Fraction(1e-12) * Fraction(5e-13)
        s2 = Fraction(5e-13)
        self.F = expr_parse(f"(y^3/z) * theta(norm(x,y), "
                            f"{s1.numerator}/{s1.denominator})", 3)
        theta_s = f"theta(norm(x,y), {s2.numerator}/{s2.denominator})"
        self.S = {False: expr_parse(f"-(y/z) * {theta_s}", 3),
                  True: expr_parse(f"(y/z) * {theta_s}", 3)}
        self._blocks = {}      # block index -> its draws
        self.c_verdicts = {}   # (block, pair) -> verdict of its C op

    def _block(self, block):
        """The block's PAIRS + 1 draws (the last one is for C**).  Each
        of rho, eps and A takes one value from every equal-width stratum
        of its range, in seeded order, so every block covers the ranges
        alike; FLIPPED seeded draws flip the sign of S."""
        if block not in self._blocks:
            rng = _op_rng(self.seed, 10_000_000 + block)
            k = self.PAIRS + 1
            columns = []
            for lo, hi in ((0.8, 1.25), (0.5, 2.0), (0.5, 2.0)):
                column = [lo + (hi - lo) * (j + rng.random()) / k
                          for j in range(k)]
                rng.shuffle(column)
                columns.append(column)
            flipped = set(rng.sample(range(k), self.FLIPPED))
            r = 1e-12
            self._blocks[block] = [
                ({"A": 1e9 * a_f, "eps": 1e-3 * eps_f, "delta": r, "r": r,
                  "rho": (r / 2) * rho_f}, rng.randrange(10), j in flipped)
                for j, (rho_f, eps_f, a_f) in enumerate(zip(*columns))]
        return self._blocks[block]

    def warmup(self):
        params, check_seed, _ = self._block(-1)[0]
        return self._op("C", params, check_seed, False, draw=None)

    def op(self, i):
        block, pos = divmod(i, self.BLOCK)
        pair = pos // 2
        params, check_seed, flipped = self._block(block)[pair]
        if pos == self.BLOCK - 1:
            variant = "C**"
        else:
            variant = "C" if pos % 2 == 0 else "C*"
        return self._op(variant, params, check_seed, flipped, (block, pair))

    def _op(self, variant, params, check_seed, flipped, draw):
        S = self.S[flipped]

        def run():
            return check_annulus_condition(variant, params, self.p, self.Q,
                                           self.F, [S], POLES,
                                           seed=check_seed)

        def check(rep):
            return self._check(rep, variant, params, S, flipped, draw)

        kind = variant + (" flipped" if flipped else "")
        return Op(kind, run, check)

    def _named_exprs(self, variant, params, S, rep):
        """The functions whose derivatives each bound row measures, and
        the bound each row is held to, rebuilt from the definitions."""
        m = self.m
        A, eps, rho = params["A"], params["eps"], params["rho"]
        if variant == "C":
            return {"F": (self.F, lambda a: eps * rho ** (m - sum(a))),
                    "S1": (S, lambda a: A * rho ** (-sum(a)))}
        rho_q = Fraction(rho)
        F_t = mul(Const(Fraction(1) / (Fraction(eps) * rho_q ** m)),
                  expr_scale_coords(self.F, rho_q))
        S_t = mul(Const(Fraction(1) / Fraction(A)), expr_scale_coords(S, rho_q))
        if variant == "C*":
            return {"Ftilde": (F_t, lambda a: 1.0),
                    "Stilde1": (S_t, lambda a: 1.0)}
        chi = chi_expr(self.n)
        target = rep["A_target"]
        return {"Fstar": (mul(chi, F_t), lambda a: target),
                "Sstar1": (mul(Const(Fraction(A)), chi, S_t),
                           lambda a: target)}

    def _check(self, rep, variant, params, S, flipped, draw):
        verdict = rep.get("verdict")
        problems = _verdict_problems(verdict)
        if flipped and verdict == "pass":
            problems.append(f"{variant} passed a certificate with S flipped")
        named = self._named_exprs(variant, params, S, rep)
        witnesses = 0
        for row in rep.get("bounds", []):
            w = row.get("witness")
            if w is None:
                continue
            witnesses += 1
            expr, bound = named[row["name"]]
            alpha = tuple(w["alpha"])
            value = abs(expr_eval(expr_derive(expr, alpha), w["point"]))
            if not value > bound(alpha):
                problems.append(
                    f"{variant} witness {row['name']} d^{alpha} at "
                    f"{w['point']} re-evaluates to {value}, not above "
                    f"its bound {bound(alpha)}")
        identity_zero = rep.get("identity", {}).get("zero")
        if verdict == "fail" and not witnesses and identity_zero is not False:
            problems.append(f"{variant} fail carries no witness")
        if not flipped and identity_zero is False:
            problems.append(f"{variant} rejected the identity of a true "
                            f"certificate")
        if variant == "C":
            self.c_verdicts[draw] = verdict
        elif variant == "C*" and draw in self.c_verdicts:
            c_verdict = self.c_verdicts.pop(draw)
            if c_verdict != verdict:
                problems.append(f"C gave {c_verdict} but C* gave {verdict} "
                                f"on the same draw")
        return problems


# ---------------------------------------------------------------------------
# implication: check_strong_global on the paper's two families.
# ---------------------------------------------------------------------------

FAMILY_B = (("x^3", "x^2/(x^2 + y^2)"),
            ("x^2*y", "x*y/(x^2 + y^2)"),
            ("x*y^2", "y^2/(x^2 + y^2)"))


class Implication:
    """Strong implication on seeded members of both families.

    (a) c*xy = (-c*y/z)(y^2 - xz) + c*y^3/z in <x^2, y^2 - xz>, m = 2,
        n = 3; (b) c*x^3, c*x^2*y, c*x*y^2 in <x(x^2 + y^2)>, m = 3,
        n = 2; (v) random targets of the vacuous <x^2 + y^2>.  c is a
        rational in [1/9, 3] with a denominator in [50, 400], so the
        sympy cache rarely sees a repeat.  A seeded quarter of the (a)
        and (b) ops flips the sign of S.
    """

    name = "implication"
    why = ("fresh coefficients keep the sympy cache cold; time splits "
           "over interval, float-eval and sympy layers")
    PATTERN = "aabaaavaaaav"
    BLOCK = len(PATTERN)
    BLOCK_SECONDS = 7.5
    FLIP_SHARE = 0.25          # share of (a) and (b) ops with S flipped

    def __init__(self, seed):
        self.seed = seed
        self.sig_a = RingSignature(2, 3)
        self.sig_b = RingSignature(3, 2)
        self.sig_v = RingSignature(2, 2)
        self.ideal_a = JetIdeal(self.sig_a, [jet_parse("x^2", self.sig_a),
                                             jet_parse("y^2 - x*z", self.sig_a)])
        self.ideal_b = JetIdeal(self.sig_b, [jet_parse("x(x^2 + y^2)",
                                                       self.sig_b)])
        self.ideal_v = JetIdeal(self.sig_v, [jet_parse("x^2 + y^2",
                                                       self.sig_v)])

    def warmup(self):
        return self._op("a", _op_rng(self.seed, -1), False)

    def op(self, i):
        kind = self.PATTERN[i % self.BLOCK]
        rng = _op_rng(self.seed, i)
        flipped = kind != "v" and rng.random() < self.FLIP_SHARE
        # (b) targets take turns, so every run sees all three alike
        member = (i // self.BLOCK + self.seed) % len(FAMILY_B)
        return self._op(kind, rng, flipped, member)

    def _op(self, kind, rng, flipped, member=0):
        check_seed = rng.randrange(10)
        c = _rational(rng, Fraction(1, 9), 3)
        sign = -1 if flipped else 1
        if kind == "a":
            cert = ImplicationCertificate(
                self.ideal_a, jet_parse(f"{c}*x*y", self.sig_a),
                [(self.ideal_a.generators[1],
                  expr_parse(f"{-sign * c}*y/z", 3), 50.0)],
                expr_parse(f"{c}*y^3/z", 3))
        elif kind == "b":
            target, S = FAMILY_B[member]
            cert = ImplicationCertificate(
                self.ideal_b, jet_parse(f"{c}*{target}", self.sig_b),
                [(self.ideal_b.generators[0],
                  expr_parse(f"{sign * c}*{S}", 2), 50.0)],
                expr_parse("0", 2))
        else:
            target = _random_jet(rng, self.sig_v, 4)
            cert = ImplicationCertificate(self.ideal_v, target, [],
                                          expr_parse("0", 2))

        def run():
            return check_strong_global(cert, seed=check_seed)

        def check(rep):
            verdict = rep.get("verdict")
            problems = _verdict_problems(verdict)
            if flipped and verdict != "fail":
                problems.append(f"({kind}) with S flipped gave {verdict}")
            if not flipped and verdict == "fail":
                problems.append(f"({kind}) true certificate failed")
            return problems

        return Op(kind + (" flipped" if flipped else ""), run, check)


# ---------------------------------------------------------------------------
# toolkit: ideal studies, plus gauge and tangent ops.
# ---------------------------------------------------------------------------

def _random_jet(rng, sig, density, allow_constant=False):
    monos = [a for a in sig.monomials if allow_constant or sum(a) > 0]
    coeffs = {}
    for alpha in rng.sample(monos, min(density, len(monos))):
        coeffs[alpha] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Jet(sig, coeffs)


def _random_diffeo(rng, sig):
    """Identity-plus-perturbation map with a triangular, invertible
    linear part, so no draw is ever rejected."""
    comps = []
    for i in range(sig.n):
        coeffs = {}
        for j in range(sig.n):
            e = [0] * sig.n
            e[j] = 1
            if j == i:
                coeffs[tuple(e)] = Fraction(rng.choice((-2, -1, 1, 2)),
                                            rng.randint(1, 3))
            elif j > i and rng.random() < 0.5:
                coeffs[tuple(e)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        higher = _random_jet(rng, sig, 2)
        comps.append(Jet(sig, coeffs)
                     + Jet(sig, {a: c for a, c in higher.coeffs.items()
                                 if sum(a) >= 2}))
    return DiffeoJet(sig, comps)


def _small(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))


def _definite_quadratic(rng, sig):
    """a x^2 + b xy + c y^2 with a, c > 0 and b^2 < 4ac: no real zeros."""
    while True:
        a = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        c = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        b = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        if b * b < 4 * a * c:
            return Jet(sig, {(2, 0): a, (1, 1): b, (0, 2): c})


def _rotated_form(rng, sig, kappa, angle):
    """A definite binary quadratic form lam*(u^2 + kappa*v^2) in
    coordinates (u, v) rotated by about ``angle`` (in (-pi/2, pi/2)):
    its smaller eigenvalue is lam, its condition number kappa (as a
    rational).  The rotation is exact: cos = (1 - t^2)/(1 + t^2) and
    sin = 2t/(1 + t^2) for t = tan(angle/2) as a small fraction."""
    lam = Fraction(rng.randint(1, 12), rng.randint(1, 4))
    kap = Fraction(kappa).limit_denominator(8)
    t = Fraction(math.tan(angle / 2)).limit_denominator(16)
    cs, sn = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    return Jet(sig, {(2, 0): lam * (cs * cs + kap * sn * sn),
                     (1, 1): 2 * lam * cs * sn * (1 - kap),
                     (0, 2): lam * (sn * sn + kap * cs * cs)})


def _circle_minimum(q):
    """Exact minimum of a definite binary quadratic form on the unit
    circle: its smaller eigenvalue."""
    a, b, c = (q.coeffs.get(k, Fraction(0)) for k in ((2, 0), (1, 1), (0, 2)))
    return float((a + c) / 2) - math.sqrt(((a - c) / 2) ** 2 + (b / 2) ** 2)


def _plane_factor(rng, sig, degree):
    """A product of random rational linear forms and definite quadratic
    forms of the given total degree."""
    out = Jet.constant(sig, 1)
    while degree:
        if degree >= 2 and rng.random() < 0.4:
            out = out * _definite_quadratic(rng, sig)
            degree -= 2
        else:
            out = out * Jet(sig, {(1, 0): _small(rng), (0, 1): _small(rng)})
            degree -= 1
    return out


def _plane_generators(rng, sig):
    """One to three generators whose lowest parts are products of
    rational linear and definite quadratic forms (sharing a linear
    factor half of the time), plus random terms of higher degree.  Every
    allowed direction then has rational slope; bench/NOTES.md says why
    irrational slopes are left out for now."""
    shared = _plane_factor(rng, sig, 1) if rng.random() < 0.5 else None
    gens = []
    for _ in range(rng.randint(1, 3)):
        order = rng.randint(1, sig.m - 1 if shared else sig.m)
        lowest = _plane_factor(rng, sig, order)
        if shared:
            lowest = lowest * shared
            order += 1
        higher = _random_jet(rng, sig, 2)
        gens.append(lowest + Jet(sig, {a: c for a, c in higher.coeffs.items()
                                       if sum(a) > order}))
    return gens


def _paper_variant(rng, sig):
    """Rational variant of <x^2, y^2 - xz>: allowed set = the poles."""
    a = _rational(rng, Fraction(1, 4), 4)
    b = _rational(rng, Fraction(1, 4), 4)
    c = _rational(rng, Fraction(1, 4), 4)
    d = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    g1 = Jet(sig, {(2, 0, 0): a})
    g2 = Jet(sig, {(0, 2, 0): b, (1, 0, 1): -c, (1, 1, 0): d})
    if sig.m >= 3 and rng.random() < 0.5:
        g1 = g1 + Jet(sig, {(0, 3, 0): _rational(rng, Fraction(1, 4), 2)})
    return [g1, g2]


SIGNATURES = ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3))


class Toolkit:
    """Ideal studies, with gauge regularization and tangent estimates.

    A study's position in its block fixes its signature (SIGNATURES in
    turn) and, for n = 2, whether its ideal is a definite quadratic
    form (positions 20q, 20q + 1 and 20q + 2) or has generators from
    _plane_generators; for n = 3 it is a rational variant of
    <x^2, y^2 - xz>.  So every block has the same mix of studies.
    A study builds the span, checks the closure x_i * b in I for every
    basis jet b, multiplies random jets by basis jets, transforms the
    ideal by a random diffeo-jet, intersects the ideal with its
    transform, computes the allowed set and, for a definite form (whose
    allowed set is empty), verifies a forbidden certificate at a c in
    [0.5, 0.8] of the exact minimum of the form.  The form's condition
    number and c set how deep that interval branch-and-bound goes, so
    both are stratified per block (see _block_draws).
    """

    name = "toolkit"
    why = ("exact RREF and ring products with no expression evaluation; "
           "interval branch-and-bound over polynomial jets")
    BLOCK = 256                # op 0 of a block is a gauge op
    BLOCK_SECONDS = 8.0
    TANGENT_EVERY = 16         # ops 8, 24, 40, ... are tangent ops

    DEFINITE_EVERY = 20        # positions 20q + (0, 1, 2) are definite
    KAPPA = (1.5, 16.0)        # condition numbers of the definite forms

    def __init__(self, seed):
        self.seed = seed
        self._draws = {}       # block -> {position: (kappa, angle, frac)}

    def _is_study(self, pos):
        return pos != 0 and (pos % self.TANGENT_EVERY
                             != self.TANGENT_EVERY // 2)

    def _block_draws(self, block):
        """(kappa, angle, c / minimum) for each definite study of the
        block.  The depth of the forbidden-certificate search turns on
        all three, the angle most (at fixed kappa and c it takes from
        1 ms to 0.3 s), so the block's k draws cover one fixed grid: the
        j-th takes kappa from the j-th of k equal strata of KAPPA (log
        scale), the angle and c / minimum from strata of (-pi/2, pi/2)
        and [0.5, 0.8] in a fixed pairing, each at a seeded point of its
        stratum.  The draws go to the definite studies in seeded order."""
        if block not in self._draws:
            rng = _op_rng(self.seed, 10_000_000 + block)
            slots = [pos for pos in range(self.BLOCK)
                     if self._is_study(pos) and self._definite_at(pos)]
            k = len(slots)
            angle_of, frac_of = list(range(k)), list(range(k))
            random.Random(1).shuffle(angle_of)
            random.Random(2).shuffle(frac_of)

            def stratum(j, lo, hi):
                return lo + (hi - lo) * (j + rng.random()) / k

            lo, hi = (math.log(v) for v in self.KAPPA)
            draws = [(math.exp(stratum(j, lo, hi)),
                      stratum(angle_of[j], -math.pi / 2, math.pi / 2),
                      stratum(frac_of[j], 0.5, 0.8)) for j in range(k)]
            rng.shuffle(draws)
            self._draws[block] = dict(zip(slots, draws))
        return self._draws[block]

    def _definite_at(self, pos):
        """Positions 20q + r with r < 5 whose signature has n = 2."""
        return (SIGNATURES[pos % len(SIGNATURES)][1] == 2
                and pos % self.DEFINITE_EVERY < len(SIGNATURES))

    def warmup(self):
        return self._study(_op_rng(self.seed, -1), 1, None)

    def op(self, i):
        rng = _op_rng(self.seed, i)
        block, pos = divmod(i, self.BLOCK)
        if pos == 0:
            return self._gauge(rng)
        if not self._is_study(pos):
            return self._tangent(rng)
        return self._study(rng, pos, self._block_draws(block).get(pos))

    def _study(self, rng, pos, draw):
        m, n = SIGNATURES[pos % len(SIGNATURES)]
        sig = RingSignature(m, n)
        definite = None
        if n == 3:
            gens = _paper_variant(rng, sig)
        elif draw is not None:
            kappa, angle, frac = draw
            form = _rotated_form(rng, sig, kappa, angle)
            definite = (form, _circle_minimum(form))
            gens = [form]
        else:
            gens = _plane_generators(rng, sig)
        factors = [_random_jet(rng, sig, 3, allow_constant=True)
                   for _ in range(3)]
        phi = _random_diffeo(rng, sig)

        def run():
            I = JetIdeal(sig, gens)
            basis = I.basis_jets()
            closure = all(
                prod.is_zero() or I.contains(prod)
                for b in basis for prod in
                (Jet.variable(sig, k) * b for k in range(n)))
            absorbed = all(I.contains(f * b) or (f * b).is_zero()
                           for f in factors for b in basis[:3])
            J = I.transform(phi)
            K = I.intersect(J)
            allowed = allow_overapprox(I)
            forbidden = None
            if allowed.is_empty() and definite is not None:
                forbidden = verify_forbidden_certificate(
                    [definite[0]], frac * definite[1])
            return {"I": I, "J": J, "K": K, "closure": closure,
                    "absorbed": absorbed, "allowed": allowed,
                    "forbidden": forbidden}

        def check(out):
            I, J, K = out["I"], out["J"], out["K"]
            problems = []
            if not out["closure"]:
                problems.append("x_i * b left the ideal")
            if not out["absorbed"]:
                problems.append("f * b left the ideal")
            if J.dim != I.dim:
                problems.append(f"transform changed dim {I.dim} -> {J.dim}")
            if not (I.span.contains_subspace(K.span)
                    and J.span.contains_subspace(K.span)):
                problems.append("intersection not inside both ideals")
            allowed = out["allowed"]
            if allowed.is_finite:
                lowest = [g.lowest_homogeneous_part() for g in gens]
                if any(exact_zero_residual(d, q) != 0
                       for d in allowed.directions if d.sym is not None
                       for q in lowest):
                    problems.append("allowed direction with nonzero residual")
            if definite is not None and not allowed.is_empty():
                problems.append("definite form has allowed directions")
            if out["forbidden"] is not None:
                verdict, bound, _ = out["forbidden"]
                if verdict == "pass" and bound > definite[1] * (1 + 1e-12):
                    problems.append(f"forbidden bound {bound} exceeds the "
                                    f"exact minimum {definite[1]}")
            return problems

        return Op(f"study m{m}n{n}" + (" definite" if definite else ""),
                  run, check)

    def _gauge(self, rng):
        power = rng.uniform(0.2, 1.0)

        def run():
            g = Gauge.from_function(f"pow{power:.4f}",
                                    lambda t: min(1.0, t ** power))
            return gauge_regularize(g)

        def check(reg):
            rep = reg.report
            problems = []
            for key in ("envelope_dominates", "quasi_doubling_ok", "decays"):
                if not rep[key]:
                    problems.append(f"gauge t^{power:.4f}: {key} is false")
            return problems

        return Op("gauge", run, check)

    def _tangent(self, rng):
        n = rng.choice((2, 3))
        count = rng.randint(1, 3)
        lines = []
        while len(lines) < count:
            v = [rng.gauss(0.0, 1.0) for _ in range(n)]
            norm = math.sqrt(sum(c * c for c in v))
            u = tuple(c / norm for c in v)
            if all(min(math.dist(u, w), math.dist(u, [-c for c in w])) > 0.1
                   for w in lines):
                lines.append(u)
        truth = lines + [tuple(-c for c in u) for u in lines]
        points = [tuple(s * 2.0 ** -k * c for c in u)
                  for k in range(21) for u in lines for s in (1.0, -1.0)]

        def run():
            return estimate_tangent_directions(points, 1e-3)

        def check(dirs):
            got = [d.vec for d in dirs]
            near = lambda a, bs: any(math.dist(a, b) <= 1e-9 for b in bs)
            if all(near(a, truth) for a in got) and \
                    all(near(b, got) for b in truth):
                return []
            return [f"tangent directions {got} != {truth}"]

        return Op("tangent", run, check)


WORKLOADS = {w.name: w for w in (Annulus, Implication, Toolkit)}
