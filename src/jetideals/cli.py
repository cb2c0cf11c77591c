"""Command-line frontend.

Every subcommand prints a UTF-8 JSON document on stdout (pretty-printed
with --pretty) and exits 0 on pass/success, 1 on fail, 2 on
inconclusive, 64 on a usage error (a parse error, an option out of
range or a --cert file that is not JSON), 65 on input that parses but
is rejected (any other JetIdealsError, such as a DomainError on a
certificate's parameters or a certificate missing a field).  Exit codes
2 and 65 are deliberately distinct from 1: neither one-sided
verification nor a malformed input may masquerade as disproof in shell
pipelines.  All sampling is seeded (--seed, default 0), so repeated
runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

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


def _sig(args) -> RingSignature:
    if args.m is None or args.n is None:
        raise SystemExit(USAGE_ERROR)
    try:
        return RingSignature(args.m, args.n)
    except ValueError as exc:
        _usage_error(exc)


def _gens(args, sig):
    if not args.gens:
        _usage_error("--gens is required")
    return [jet_parse(g.strip(), sig) for g in args.gens.split(";")
            if g.strip()]


def _parse_direction(text, n):
    try:
        parts = [float(c) for c in text.split(",")]
    except ValueError as exc:
        _usage_error(f"direction {text!r}: {exc}")
    if len(parts) != n:
        _usage_error(f"direction needs {n} components")
    return Direction(parts, normalize=True)


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
                       for g in _field(ideal_doc, "generators")])
    target = jet_parse(_field(doc, "target"), sig)
    terms = [(jet_parse(_field(t, "Q"), sig),
              expr_parse(_field(t, "S"), sig.n), _value(t, "C"))
             for t in doc.get("terms", [])]
    F = expr_parse(_field(doc, "F"), sig.n)
    scope = doc.get("scope", "global")
    if scope != "global":
        scope = _value(doc, "scope",
                       lambda ws: [tuple(map(float, w)) for w in ws])
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
    aset = allow_overapprox(I, budget=args.budget or 8)
    return aset.to_json(), 0


def cmd_forbid_cert(args):
    sig = _sig(args)
    gens = _gens(args, sig)
    omega = _parse_direction(args.omega, sig.n) if args.omega else None
    if args.c is not None:
        verdict, bound, depth = verify_forbidden_certificate(
            gens, args.c, omega=omega, budget=args.budget or 12)
        return ({"verdict": verdict, "c": args.c,
                 "interval_lower_bound": bound, "max_depth": depth},
                _VERDICT_EXIT[verdict])
    cert = forbidden_certificate_search(gens, omega, budget=args.budget or 12)
    if cert is None:
        return {"verdict": "inconclusive",
                "note": "no certificate found within the budget"}, 2
    return {"verdict": "pass", "certificate": cert.to_json()}, 0


def cmd_tangent(args):
    with open(args.points, encoding="utf-8") as fh:
        points = read_point_cloud(fh.read())
    dirs = estimate_tangent_directions(points, args.delta_out)
    return {"directions": [list(d.vec) for d in dirs]}, 0


def _cone_region(args):
    if not getattr(args, "omega", None):
        return None
    omegas = [_parse_direction(w, args.n) for w in args.omega.split(";")]
    try:
        return Cone(omegas, args.delta, 1.0)
    except ValueError as exc:
        _usage_error(exc)


def cmd_verify_flat(args):
    F = expr_parse(args.operands[0], args.n)
    report = check_flat(F, _cone_region(args), args.m, args.n,
                        seed=args.seed)
    return report.to_json(), _VERDICT_EXIT[report.verdict]


def cmd_verify_tame(args):
    S = expr_parse(args.operands[0], args.n)
    report = check_tame(S, _cone_region(args), args.m, args.n,
                        seed=args.seed, bound=args.bound)
    return report.to_json(), _VERDICT_EXIT[report.verdict]


def cmd_verify_negligible(args):
    F = expr_parse(args.operands[0], args.n)
    if not args.omega:
        _usage_error("--omega is required")
    omegas = [tuple(d.vec) for d in
              (_parse_direction(w, args.n) for w in args.omega.split(";"))]
    eps_grid = ([args.eps] if args.eps is not None
                else (1.0, 0.1, 0.01, 0.001))
    cert = check_negligible(F, omegas, args.m, args.n, eps_grid=eps_grid,
                            budget=args.budget or 64, seed=args.seed)
    return cert.to_json(), _VERDICT_EXIT[cert.verdict]


def cmd_verify_implication(args):
    cert, _ = _load_certificate(args.cert)
    report = check_strong_global(cert, budget=args.budget or 64,
                                 seed=args.seed)
    return report, _VERDICT_EXIT[report["verdict"]]


def cmd_verify_annulus(args):
    cert, doc = _load_certificate(args.cert)
    annulus = _field(doc, "annulus")
    params = {k: _value(annulus, k) for k in ("A", "eps", "delta", "r", "rho")
              + (("A_target",) if "A_target" in annulus else ())}
    omegas = annulus.get("omegas", [])
    Q_list = [Q for Q, _, _ in cert.terms]
    S_list = [S for _, S, _ in cert.terms]
    report = check_annulus_condition(args.variant, params, cert.target,
                                     Q_list, cert.F, S_list, omegas,
                                     seed=args.seed)
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
    g = Gauge.from_function(args.gauge, fn)
    reg = gauge_regularize(g, check_scales=args.scales)
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
    parser = _Parser(prog="jetideals")
    sub = parser.add_subparsers(dest="command")

    def common(p, operands=0, operand_name="poly"):
        p.add_argument("--m", type=int)
        p.add_argument("--n", type=int)
        p.add_argument("--gens", help="generators, ';'-separated")
        p.add_argument("--cert", help="certificate JSON file")
        p.add_argument("--eps", type=float)
        p.add_argument("--depth", type=int)
        p.add_argument("--budget", type=int)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--pretty", action="store_true")
        if operands:
            p.add_argument("operands", nargs=operands,
                           metavar=operand_name)
        return p

    common(sub.add_parser("mul"), 2).set_defaults(fn=cmd_mul)
    p = common(sub.add_parser("compose"), 1)
    p.add_argument("--phi", required=True,
                   help="component jets of the map, ';'-separated")
    p.set_defaults(fn=cmd_compose)
    common(sub.add_parser("order"), 1).set_defaults(fn=cmd_order)
    common(sub.add_parser("lowpart"), 1).set_defaults(fn=cmd_lowpart)
    common(sub.add_parser("ideal-basis")).set_defaults(fn=cmd_ideal_basis)
    common(sub.add_parser("member"), 1).set_defaults(fn=cmd_member)
    common(sub.add_parser("allow")).set_defaults(fn=cmd_allow)
    p = common(sub.add_parser("forbid-cert"))
    p.add_argument("--omega", help="direction, comma-separated components")
    p.add_argument("--c", type=float, help="constant to verify (omit to search)")
    p.set_defaults(fn=cmd_forbid_cert)
    p = common(sub.add_parser("tangent"))
    p.add_argument("--points", required=True, help="CSV point cloud file")
    p.add_argument("--delta-out", type=float, default=1e-3)
    p.set_defaults(fn=cmd_tangent)
    p = common(sub.add_parser("verify-flat"), 1, "expr")
    p.add_argument("--omega", help="cone directions, ';'-separated")
    p.add_argument("--delta", type=float, default=0.5)
    p.set_defaults(fn=cmd_verify_flat)
    p = common(sub.add_parser("verify-tame"), 1, "expr")
    p.add_argument("--bound", type=float)
    p.add_argument("--omega", help="cone directions, ';'-separated")
    p.add_argument("--delta", type=float, default=0.5)
    p.set_defaults(fn=cmd_verify_tame)
    p = common(sub.add_parser("verify-negligible"), 1, "expr")
    p.add_argument("--omega", help="directions, ';'-separated")
    p.set_defaults(fn=cmd_verify_negligible)
    common(sub.add_parser("verify-implication")).set_defaults(
        fn=cmd_verify_implication)
    p = common(sub.add_parser("verify-annulus"))
    p.add_argument("--variant", choices=["C", "C*", "C**"], default="C")
    p.set_defaults(fn=cmd_verify_annulus)
    p = common(sub.add_parser("gauge-reg"))
    p.add_argument("--gauge", required=True)
    p.add_argument("--scales", type=int, default=20)
    p.set_defaults(fn=cmd_gauge_reg)
    p = common(sub.add_parser("corpus"))
    p.add_argument("action", choices=["list", "run"])
    p.add_argument("case", nargs="?", default="all")
    p.set_defaults(fn=cmd_corpus)
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
    _emit(doc, args.pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
