"""Command-line frontend.

Every subcommand prints a UTF-8 JSON document on stdout (pretty-printed
with --pretty) and exits 0 on pass/success, 1 on fail, 2 on
inconclusive, 64 on a usage error (a parse error, an option out of
range or a --cert file that is not JSON), 65 on input that parses but
is rejected (any other JetIdealsError, such as a DomainError on a
certificate's parameters or a certificate missing a field), and 70 on a
fault in this program (the traceback goes to stderr).  Exit codes 2, 65
and 70 are deliberately distinct from 1: neither one-sided verification
nor a malformed input nor a crash may masquerade as disproof in shell
pipelines.  All sampling is seeded (--seed, default 0), so repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from fractions import Fraction

from .corpus import case_by_id, corpus_cases, run_case
from .directions import (allow_overapprox, forbidden_certificate_search,
                         verify_forbidden_certificate)
from .errors import JetIdealsError, ParseError
from .geometry import (Cone, Direction, estimate_tangent_directions,
                       read_point_cloud)
from .ideal import JetIdeal
from .jetring import DiffeoJet, RingSignature, jet_compose, jet_parse
from .symfun import Gauge, expr_parse, gauge_regularize
from .verifier import (ImplicationCertificate, check_annulus_condition,
                       check_flat, check_negligible, check_strong_global,
                       check_tame)

USAGE_ERROR = 64
_VERDICT_EXIT = {"pass": 0, "fail": 1, "inconclusive": 2}


def _emit(doc, pretty):
    if pretty:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    else:
        json.dump(doc, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def _given(**options):
    """The options given, as keywords: one left out keeps its default."""
    return {k: v for k, v in options.items() if v is not None}


def _sig(args) -> RingSignature:
    try:
        return RingSignature(args.m, args.n)
    except ValueError as exc:
        _usage_error(exc)


def _gens(args, sig):
    gens = [jet_parse(g.strip(), sig) for g in args.gens.split(";")
            if g.strip()]
    if not gens:
        _usage_error("--gens needs at least one generator")
    return gens


def _parse_direction(text, n):
    """n exact rationals: "3,4" is the ray of (3, 4) itself.  Each must
    be at most the largest double in size."""
    try:
        parts = [Fraction(c) for c in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        _usage_error(f"direction {text!r}: {exc}")
    if len(parts) != n:
        _usage_error(f"direction needs {n} components")
    if any(abs(c) > sys.float_info.max for c in parts):
        _usage_error(f"direction {text!r}: a component is past the "
                     "largest double")
    return parts


def _field(doc, key):
    """doc[key] of a certificate document; a missing field rejects the
    certificate (exit 65)."""
    if not isinstance(doc, dict) or key not in doc:
        raise JetIdealsError(f"certificate has no field {key!r}")
    return doc[key]


def _value(doc, key, convert=float):
    """convert(doc[key]) of a certificate document; a value that convert
    rejects, like a missing field, rejects the certificate (exit 65)."""
    value = _field(doc, key)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise JetIdealsError(
            f"certificate field {key!r} has a bad value {value!r}: {exc}"
        ) from None


def _dimension(value):
    if int(value) < 1:
        raise ValueError("need an integer >= 1")
    return int(value)


def _text(value):
    """A jet or an expression of a certificate: a string."""
    if not isinstance(value, str):
        raise TypeError("need a string")
    return value


def _list(values):
    if not isinstance(values, list):
        raise TypeError("need a list")
    return values


def _texts(values):
    return [_text(v) for v in _list(values)]


def _vectors(n):
    """Directions of a certificate: a list of lists of n numbers."""
    def convert(ws):
        vectors = [tuple(map(float, _list(w))) for w in _list(ws)]
        if any(len(w) != n for w in vectors):
            raise ValueError(f"need lists of {n} numbers")
        return vectors
    return convert


def _load_certificate(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            _usage_error(f"{path} is not JSON: {exc}")
    ideal_doc = _field(doc, "ideal")
    sig = RingSignature(_value(ideal_doc, "m", _dimension),
                        _value(ideal_doc, "n", _dimension))
    I = JetIdeal(sig, [jet_parse(g, sig)
                       for g in _value(ideal_doc, "generators", _texts)])
    target = jet_parse(_value(doc, "target", _text), sig)
    terms = [(jet_parse(_value(t, "Q", _text), sig),
              expr_parse(_value(t, "S", _text), sig.n), _value(t, "C"))
             for t in (_value(doc, "terms", _list) if "terms" in doc else [])]
    F = expr_parse(_value(doc, "F", _text), sig.n)
    scope = doc.get("scope", "global")
    if scope != "global":
        scope = _value(doc, "scope", _vectors(sig.n))
    cert = ImplicationCertificate(I, target, terms, F, scope=scope,
                                  annulus=doc.get("annulus"))
    return cert, doc


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (document, exit_code).
# ---------------------------------------------------------------------------

def cmd_mul(args):
    sig = _sig(args)
    p = jet_parse(args.operands[0], sig, truncate=True)
    q = jet_parse(args.operands[1], sig, truncate=True)
    return {"result": str(p * q)}, 0


def cmd_compose(args):
    sig = _sig(args)
    p = jet_parse(args.operands[0], sig)
    comps = [jet_parse(c.strip(), sig) for c in args.phi.split(";")]
    phi = DiffeoJet(sig, comps)
    return {"result": str(jet_compose(p, phi))}, 0


def cmd_order(args):
    sig = _sig(args)
    p = jet_parse(args.operands[0], sig)
    order = p.order_of_vanishing()
    return {"order": order if isinstance(order, int) else f"more than {sig.m}"}, 0


def cmd_lowpart(args):
    sig = _sig(args)
    p = jet_parse(args.operands[0], sig)
    order = p.order_of_vanishing()
    if not isinstance(order, int) or order == 0:
        return {"order": order if isinstance(order, int)
                else f"more than {sig.m}",
                "error": "no lowest homogeneous part"}, 1
    return {"order": order, "lowest_part": str(p.lowest_homogeneous_part())}, 0


def cmd_ideal_basis(args):
    sig = _sig(args)
    I = JetIdeal(sig, _gens(args, sig))
    return {"dim": I.dim, "basis": [str(b) for b in I.basis_jets()]}, 0


def cmd_member(args):
    sig = _sig(args)
    I = JetIdeal(sig, _gens(args, sig))
    p = jet_parse(args.operands[0], sig)
    member = I.contains(p)
    return {"member": member}, 0 if member else 1


def cmd_allow(args):
    sig = _sig(args)
    I = JetIdeal(sig, _gens(args, sig))
    aset = allow_overapprox(I, **_given(budget=args.budget))
    return aset.to_json(), 0


def cmd_forbid_cert(args):
    sig = _sig(args)
    gens = _gens(args, sig)
    omega = (Direction(_parse_direction(args.omega, sig.n), normalize=True)
             if args.omega else None)
    budget = _given(budget=args.budget)
    if args.c is not None:
        verdict, bound, depth = verify_forbidden_certificate(
            gens, args.c, omega=omega, **budget)
        return ({"verdict": verdict, "c": args.c,
                 "interval_lower_bound": bound, "max_depth": depth},
                _VERDICT_EXIT[verdict])
    cert = forbidden_certificate_search(gens, omega, **budget)
    if cert is None:
        return {"verdict": "inconclusive",
                "note": "no certificate found within the budget"}, 2
    return {"verdict": "pass", "certificate": cert.to_json()}, 0


def cmd_tangent(args):
    with open(args.points, encoding="utf-8") as fh:
        points = read_point_cloud(fh.read())
    dirs = estimate_tangent_directions(points, args.delta_out)
    return {"directions": [list(d.vec) for d in dirs]}, 0


def _cone_region(args, n):
    if not args.omega:
        return None
    omegas = [Direction(_parse_direction(w, n), normalize=True)
              for w in args.omega.split(";")]
    try:
        return Cone(omegas, args.delta, 1.0)
    except ValueError as exc:
        _usage_error(exc)


def cmd_verify_flat(args):
    sig = _sig(args)
    F = expr_parse(args.operands[0], sig.n)
    report = check_flat(F, _cone_region(args, sig.n), sig.m, sig.n,
                        **_given(seed=args.seed))
    return report.to_json(), _VERDICT_EXIT[report.verdict]


def cmd_verify_tame(args):
    sig = _sig(args)
    S = expr_parse(args.operands[0], sig.n)
    report = check_tame(S, _cone_region(args, sig.n), sig.m, sig.n,
                        **_given(seed=args.seed, bound=args.bound))
    return report.to_json(), _VERDICT_EXIT[report.verdict]


def cmd_verify_negligible(args):
    sig = _sig(args)
    F = expr_parse(args.operands[0], sig.n)
    omegas = [_parse_direction(w, sig.n) for w in args.omega.split(";")]
    cert = check_negligible(F, omegas, sig.m, sig.n)
    return cert.to_json(), _VERDICT_EXIT[cert.verdict]


def cmd_verify_implication(args):
    cert, _ = _load_certificate(args.cert)
    report = check_strong_global(cert, **_given(seed=args.seed))
    return report, _VERDICT_EXIT[report["verdict"]]


def cmd_verify_annulus(args):
    cert, doc = _load_certificate(args.cert)
    annulus = _field(doc, "annulus")
    params = {k: _value(annulus, k) for k in ("A", "eps", "delta", "r", "rho")}
    if "A_target" in annulus:
        params["A_target"] = _value(annulus, "A_target")
    n = cert.target.sig.n
    omegas = (_value(annulus, "omegas", _vectors(n)) if "omegas" in annulus
              else [])
    Q_list = [Q for Q, _, _ in cert.terms]
    S_list = [S for _, S, _ in cert.terms]
    report = check_annulus_condition(args.variant, params, cert.target,
                                     Q_list, cert.F, S_list, omegas,
                                     **_given(seed=args.seed))
    return report, _VERDICT_EXIT[report["verdict"]]


_NAMED_GAUGES = {
    "sqrt": math.sqrt,
    "pow0.3": lambda t: min(1.0, t ** 0.3),
    "log": lambda t: 1.0 / (1.0 + math.log(1.0 / t)) if t < 1 else 1.0,
}


def cmd_gauge_reg(args):
    fn = _NAMED_GAUGES.get(args.gauge)
    if fn is None:
        _usage_error(f"unknown gauge {args.gauge!r}; "
                     f"choose from {sorted(_NAMED_GAUGES)}")
    if args.scales is not None and args.scales < 1:
        _usage_error("--scales needs an integer >= 1")
    g = Gauge.from_function(args.gauge, fn)
    reg = gauge_regularize(g, **_given(check_scales=args.scales))
    report = dict(reg.report)
    ok = (report["envelope_dominates"] and report["quasi_doubling_ok"]
          and report["decays"])
    report["verdict"] = "pass" if ok else "fail"
    return report, _VERDICT_EXIT[report["verdict"]]


def cmd_corpus(args):
    if args.action == "list":
        return {"cases": [{"id": c.id, "description": c.description}
                          for c in corpus_cases()]}, 0
    if args.case == "all":
        cases = corpus_cases()
    else:
        try:
            cases = [case_by_id(args.case)]
        except KeyError:
            _usage_error(f"unknown corpus case {args.case!r}")
    results = [run_case(c) for c in cases]
    overall = ("pass" if all(r["verdict"] == "pass" for r in results)
               else "fail")
    return {"verdict": overall, "results": results}, _VERDICT_EXIT[overall]


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def build_parser():
    """Each subcommand takes --pretty and exactly the options it reads."""
    parser = _Parser(prog="jetideals")
    sub = parser.add_subparsers(dest="command")

    def options(*flags, **kw):      # a parent parser of shared options
        p = argparse.ArgumentParser(add_help=False)
        for flag in flags:
            p.add_argument(flag, **kw)
        return p

    ring = options("--m", "--n", type=int, required=True)
    gens = options("--gens", required=True, help="generators, ';'-separated")
    budget, seed = options("--budget", type=int), options("--seed", type=int)
    cert = options("--cert", required=True, help="certificate JSON file")
    cone = options("--omega", help="cone directions, ';'-separated")
    cone.add_argument("--delta", type=float, default=0.5)

    def command(name, fn, *parents, operands=0, operand_name="poly"):
        p = sub.add_parser(name, parents=parents)
        p.add_argument("--pretty", action="store_true")
        if operands:
            p.add_argument("operands", nargs=operands, metavar=operand_name)
        p.set_defaults(fn=fn)
        return p

    command("mul", cmd_mul, ring, operands=2)
    command("compose", cmd_compose, ring, operands=1).add_argument(
        "--phi", required=True,
        help="component jets of the map, ';'-separated")
    command("order", cmd_order, ring, operands=1)
    command("lowpart", cmd_lowpart, ring, operands=1)
    command("ideal-basis", cmd_ideal_basis, ring, gens)
    command("member", cmd_member, ring, gens, operands=1)
    command("allow", cmd_allow, ring, gens, budget)
    p = command("forbid-cert", cmd_forbid_cert, ring, gens, budget)
    p.add_argument("--omega", help="direction, comma-separated components")
    p.add_argument("--c", type=float, help="constant to verify (omit to search)")
    p = command("tangent", cmd_tangent)
    p.add_argument("--points", required=True, help="CSV point cloud file")
    p.add_argument("--delta-out", type=float, default=1e-3)
    command("verify-flat", cmd_verify_flat, ring, cone, seed, operands=1,
            operand_name="expr")
    command("verify-tame", cmd_verify_tame, ring, cone, seed, operands=1,
            operand_name="expr").add_argument("--bound", type=float)
    command("verify-negligible", cmd_verify_negligible, ring,
            operands=1, operand_name="expr").add_argument(
        "--omega", required=True, help="directions, ';'-separated")
    command("verify-implication", cmd_verify_implication, cert, seed)
    command("verify-annulus", cmd_verify_annulus, cert, seed).add_argument(
        "--variant", choices=["C", "C*", "C**"], default="C")
    p = command("gauge-reg", cmd_gauge_reg)
    p.add_argument("--gauge", required=True)
    p.add_argument("--scales", type=int)
    p = command("corpus", cmd_corpus)
    p.add_argument("action", choices=["list", "run"])
    p.add_argument("case", nargs="?", default="all")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code else 0
    if not getattr(args, "fn", None):
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        doc, code = args.fn(args)
    except SystemExit as e:
        return e.code if e.code else 0
    except ParseError as e:
        _emit({"error": "parse", "message": str(e),
               "position": e.position}, args.pretty)
        return USAGE_ERROR
    except JetIdealsError as e:
        _emit({"error": type(e).__name__, "message": str(e)}, args.pretty)
        return 65       # EX_DATAERR, beside USAGE_ERROR's EX_USAGE
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:
        traceback.print_exc()
        return 70       # EX_SOFTWARE: a fault in this program, not its input
    _emit(doc, args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
