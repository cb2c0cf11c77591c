"""CLI: JSON output, exit codes, determinism."""

import json
import math
from pathlib import Path

import pytest

from jetideals import cli
from jetideals.cli import build_parser, main
from jetideals.corpus import case_by_id


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_mul_truncates_to_zero(capsys):
    code, doc = run(capsys, "mul", "--m", "3", "--n", "1", "x^3", "x")
    assert code == 0 and doc == {"result": "0"}


def test_order_and_lowpart(capsys):
    code, doc = run(capsys, "order", "--m", "3", "--n", "2", "x*y + y^3")
    assert code == 0 and doc["order"] == 2
    code, doc = run(capsys, "lowpart", "--m", "3", "--n", "2", "x*y + y^3")
    assert code == 0 and doc["lowest_part"] == "x*y"


def test_order_of_zero_jet(capsys):
    code, doc = run(capsys, "order", "--m", "2", "--n", "1", "0")
    assert code == 0 and doc["order"] == "more than 2"


def test_allow_exact_set(capsys):
    code, doc = run(capsys, "allow", "--m", "2", "--n", "3",
                    "--gens", "x^2;y^2-x*z")
    assert code == 0 and doc["exact"]
    assert sorted(map(tuple, doc["directions"])) == [
        (0.0, 0.0, -1.0), (0.0, 0.0, 1.0)]


def test_member_exit_codes(capsys):
    code, doc = run(capsys, "member", "--m", "2", "--n", "1",
                    "--gens", "x", "x^2")
    assert code == 0 and doc["member"]
    code, doc = run(capsys, "member", "--m", "2", "--n", "3",
                    "--gens", "x^2;y^2-x*z", "x*y")
    assert code == 1 and not doc["member"]


def test_forbid_cert_verify_and_search(capsys):
    code, doc = run(capsys, "forbid-cert", "--m", "2", "--n", "2",
                    "--gens", "x^2+y^2", "--c", "0.5")
    assert code == 0 and doc["verdict"] == "pass"
    assert doc["max_depth"] <= 6
    code, doc = run(capsys, "forbid-cert", "--m", "2", "--n", "2",
                    "--gens", "x^2+y^2")
    assert code == 0 and doc["certificate"]["c"] > 0


def test_forbid_cert_over_a_zero_in_the_dome_is_inconclusive(capsys):
    # 7y - 12x vanishes at (7, 12)/sqrt(193), within delta = 1 of omega
    code, doc = run(capsys, "forbid-cert", "--m", "2", "--n", "2",
                    "--gens", "7*y - 12*x", "--omega", "1,0")
    assert code == 2 and doc["verdict"] == "inconclusive"
    assert "certificate" not in doc


def test_tangent_subcommand(tmp_path, capsys):
    csv = tmp_path / "points.csv"
    rows = [f"0,{2.0 ** -k}" for k in range(20)]
    rows += [f"0,{-(2.0 ** -k)}" for k in range(20)]
    csv.write_text("\n".join(rows))
    code, doc = run(capsys, "tangent", "--points", str(csv),
                    "--delta-out", "0.001")
    assert code == 0
    assert sorted(map(tuple, doc["directions"])) == [(0.0, -1.0), (0.0, 1.0)]


def test_verify_tame_exit_by_verdict(capsys):
    code, doc = run(capsys, "verify-tame", "--m", "2", "--n", "2",
                    "x^2/(x^2+y^2)")
    assert code == 0 and doc["verdict"] == "pass"
    code, doc = run(capsys, "verify-tame", "--m", "2", "--n", "2",
                    "--bound", "0.1", "x^2/(x^2+y^2)")
    assert code == 1 and doc["verdict"] == "fail"


def test_verify_flat_inconclusive_exit(capsys):
    # a borderline function: exit 2 distinguishes inconclusive from fail
    code, doc = run(capsys, "verify-flat", "--m", "2", "--n", "2",
                    "--omega", "1,0", "x^2")
    assert code == 2 and doc["verdict"] == "inconclusive"


def test_verify_negligible(capsys):
    code, doc = run(capsys, "verify-negligible", "--m", "2", "--n", "3",
                    "--omega", "0,0,1;0,0,-1", "y^3/z")
    assert code == 0 and doc["verdict"] == "pass"


@pytest.mark.parametrize("F,code", [
    # a gap-0 row nonzero at omega fails for every eps below its value
    ("x*y/10000", 1), ("x*y", 1), ("x^3", 0)])
def test_verify_negligible_decides_every_eps(capsys, F, code):
    got, doc = run(capsys, "verify-negligible", "--m", "2", "--n", "2",
                   "--omega", "1,0", F)
    assert got == code and len(doc["records"]) == 1


@pytest.mark.parametrize("omega,code", [
    ("3,4", 0), ("0.6,0.8", 0), ("3,4;-6,-8", 0), ("1/3,4/9", 0),
    ("4,3", 1)])
def test_verify_negligible_reads_the_typed_direction_exactly(capsys, omega,
                                                             code):
    # F vanishes to third order on the line 4x = 3y, so every row of
    # gap 0 is zero on its rays; fl(0.6) : fl(0.8) is off that line
    got, doc = run(capsys, "verify-negligible", "--m", "1", "--n", "2",
                   "--omega", omega, "(4*x - 3*y)^3/(x^2 + y^2)")
    assert got == code
    assert doc["verdict"] == ("pass" if code == 0 else "fail")


def test_verify_negligible_rejects_a_component_that_is_not_rational(capsys):
    assert main(["verify-negligible", "--m", "1", "--n", "2",
                 "--omega", "1,inf", "x"]) == 64
    assert "direction '1,inf'" in capsys.readouterr().err


@pytest.mark.parametrize("scale,F",[("0.0001", "x^2/10000"), ("1", "x^2")])
def test_a_closed_ideal_is_never_concluded_open(tmp_path, capsys, scale, F):
    # <y> = I^2(x-axis) is closed (every I^m(E) is), so F = p with no
    # terms must fail for p = x^2 at every scale, and conclude nothing
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({
        "ideal": {"m": 2, "n": 2, "generators": ["y"]},
        "target": f"{scale}*x^2", "terms": [], "F": F, "scope": "global"}))
    code, doc = run(capsys, "verify-implication", "--cert", str(path))
    assert code == 1 and doc["verdict"] == "fail"
    assert "conclusions" not in doc


def _implication_cert():
    return {"ideal": {"m": 2, "n": 3, "generators": ["x^2", "y^2 - x*z"]},
            "target": "x*y",
            "terms": [{"Q": "y^2 - x*z", "S": "-y/z", "C": 50.0}],
            "F": "y^3/z", "scope": "global"}


def test_verify_implication_cert_file(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_implication_cert()))
    code, doc = run(capsys, "verify-implication", "--cert", str(path))
    assert code == 0 and doc["verdict"] == "pass"
    assert len(doc["conclusions"]) == 2


def test_a_decimal_with_thirteen_places_keeps_its_value(tmp_path, capsys):
    # S read 1.0000000000001 as 1, which made S*Q equal the target
    # x*y exactly, so this false certificate passed
    cert = {"ideal": {"m": 2, "n": 2, "generators": ["x*y"]},
            "target": "x*y",
            "terms": [{"Q": "x*y", "S": "1.0000000000001", "C": 50}],
            "F": "0"}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, doc = run(capsys, "verify-implication", "--cert", str(path))
    assert code == 1 and doc["verdict"] != "pass"
    assert [d["identity_residual_zero"] for d in doc["directions"]] \
        == [False] * len(doc["directions"])


def _intro_annulus_cert():
    inputs = case_by_id("annulus-intro").inputs
    return {"ideal": {"m": 2, "n": 3, "generators": inputs["Q"]},
            "target": inputs["p"],
            "terms": [{"Q": inputs["Q"][0], "S": inputs["S"][0], "C": 1.0}],
            "F": inputs["F"],
            "annulus": {**inputs["params"], "omegas": inputs["omegas"]}}


@pytest.mark.parametrize("variant", ["C", "C*", "C**"])
@pytest.mark.parametrize("key,value", [("A", -1e9), ("eps", -1e-3),
                                       ("A", 0.0)])
def test_verify_annulus_rejects_bad_parameters(tmp_path, capsys, variant, key,
                                               value):
    cert = _intro_annulus_cert()
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, doc = run(capsys, "verify-annulus", "--variant", variant,
                    "--cert", str(path))
    assert code == 0 and doc["verdict"] == "pass"
    cert["annulus"][key] = value
    path.write_text(json.dumps(cert))
    code, doc = run(capsys, "verify-annulus", "--variant", variant,
                    "--cert", str(path))
    # a rejected input exits 65, apart from a refuting verdict's 1
    assert code == 65 and doc["error"] == "DomainError"


def test_verify_annulus_reads_a_target(tmp_path, capsys):
    cert = _intro_annulus_cert()
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, doc = run(capsys, "verify-annulus", "--variant", "C**",
                    "--cert", str(path))
    assert code == 0 and doc["verdict"] == "pass"
    assert doc["A_target"] > 1e9
    # a target far below chi_constant * (A + 1) fails the S* rows
    cert["annulus"]["A_target"] = 2.5
    path.write_text(json.dumps(cert))
    code, doc = run(capsys, "verify-annulus", "--variant", "C**",
                    "--cert", str(path))
    assert code == 1 and doc["verdict"] == "fail"
    assert doc["A_target"] == 2.5
    assert any(row["witness"] for row in doc["bounds"])


def test_usage_errors(capsys):
    assert main(["bogus"]) == 64
    capsys.readouterr()
    assert main(["allow", "--m", "2", "--n", "2"]) == 64   # missing --gens
    capsys.readouterr()
    assert main(["tangent", "--points", "/nonexistent.csv"]) == 64
    capsys.readouterr()


def test_zero_delta_is_usage_error(capsys):
    assert main(["verify-tame", "--m", "2", "--n", "2", "--omega", "1,0",
                 "--delta", "0", "x*y"]) == 64
    assert "delta" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-tame", "verify-flat"])
@pytest.mark.parametrize("delta", ["nan", "inf", "-inf", "1e-15"])
def test_nonfinite_or_tiny_delta_is_usage_error(capsys, command, delta):
    assert main([command, "--m", "2", "--n", "2", "--omega", "1,0",
                 "--delta", delta, "x*y"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "delta" in captured.err


def test_direction_that_is_not_a_number_is_usage_error(capsys):
    assert main(["verify-tame", "--m", "2", "--n", "2", "--omega", "1,a",
                 "x*y"]) == 64
    assert "'1,a'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-flat", "verify-tame",
                                     "verify-negligible"])
@pytest.mark.parametrize("omega", ["1e400,1", "1,-1e400"])
def test_direction_past_the_largest_double_is_usage_error(capsys, command,
                                                          omega):
    assert main([command, "--m", "2", "--n", "2", "--omega", omega,
                 "x^3"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and f"'{omega}'" in captured.err


def test_direction_at_the_largest_double_is_read(capsys):
    code, doc = run(capsys, "verify-negligible", "--m", "2", "--n", "2",
                    "--omega", f"{1.7976931348623157e308},1", "x^3")
    ((x, y),) = doc["omegas"]
    assert code == 0 and x == 1.0 and 0 < y < 1e-308


def test_zero_degree_is_usage_error(capsys):
    assert main(["allow", "--m", "0", "--n", "2", "--gens", "x"]) == 64
    assert "need m >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-flat", "--m", "-1", "--n", "2", "x*y"],
    ["verify-tame", "--m", "0", "--n", "2", "x*y"],
    ["verify-negligible", "--m", "2", "--n", "0", "--omega", "1", "x"]],
    ids=["flat", "tame", "negligible"])
def test_verify_commands_validate_m_and_n(capsys, argv):
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "need m >= 1 and n >= 1" in captured.err


@pytest.mark.parametrize("C", ["nan", "inf", "-inf"])
def test_a_tameness_constant_that_is_not_finite_is_rejected(tmp_path, capsys,
                                                            C):
    # a NaN constant passed every comparison, so nothing was checked
    cert = _implication_cert()
    cert["terms"][0]["C"] = C
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, doc = run(capsys, "verify-implication", "--cert", str(path))
    assert code == 65 and doc["error"] == "DomainError"
    code, doc = run(capsys, "verify-tame", "--m", "2", "--n", "3",
                    f"--bound={C}", "y/z")
    assert code == 65 and doc["error"] == "DomainError"


def test_certificate_that_is_not_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text("{not json")
    assert main(["verify-implication", "--cert", str(path)]) == 64
    assert "is not JSON" in capsys.readouterr().err


def test_certificate_without_an_ideal_is_rejected(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"target": "x*y", "F": "0"}))
    code, doc = run(capsys, "verify-implication", "--cert", str(path))
    assert code == 65
    assert doc == {"error": "JetIdealsError",
                   "message": "certificate has no field 'ideal'"}


@pytest.mark.parametrize("command,path,value", [
    ("verify-implication", ("ideal", "m"), 0),
    ("verify-implication", ("terms", 0, "C"), "abc"),
    ("verify-annulus", ("annulus", "rho"), "abc"),
    ("verify-annulus", ("annulus", "omegas"), [["a", 0, 1]]),
    ("verify-annulus", ("annulus", "omegas"), [[0, 0, 1, 5]]),
    ("verify-implication", ("scope",), [[0, 0, 1, 1], [0, 0, -1]]),
    ("verify-implication", ("ideal", "generators"), "x^2"),
    ("verify-implication", ("ideal", "generators"), ["x^2", 5]),
    ("verify-implication", ("target",), None),
    ("verify-implication", ("terms",), 5),
    ("verify-implication", ("terms", 0, "Q"), 5),
    ("verify-implication", ("terms", 0, "S"), [1]),
    ("verify-implication", ("F",), 0)],
    ids=["m", "C", "rho", "omega-not-a-number", "omega-of-4-numbers",
         "scope-of-4-numbers", "generators-a-string",
         "generator-not-a-string", "target", "terms", "Q", "S", "F"])
def test_certificate_field_with_a_bad_value_is_rejected(tmp_path, capsys,
                                                        command, path, value):
    cert = (_intro_annulus_cert() if command == "verify-annulus"
            else _implication_cert())
    doc = cert
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value
    file = tmp_path / "cert.json"
    file.write_text(json.dumps(cert))
    code, doc = run(capsys, command, "--cert", str(file))
    assert code == 65 and doc["error"] == "JetIdealsError"
    assert doc["message"].startswith(f"certificate field {path[-1]!r}")


@pytest.mark.parametrize("S", ["(y^2/x^2)*theta(1/norm(x,y), 1/8)",
                               f"(y^2/x^2)*theta(norm(x,y), 1/{10 ** 30})"])
def test_strong_certificate_with_a_cutoff_is_inconclusive(tmp_path, capsys,
                                                          S):
    # y^2 = S x^2 holds nowhere near 0 for the first S (theta is 0 on
    # |x| < 1), and the second S = y^2/x^2 is not tame where theta is 1:
    # neither may conclude that <x^2> is not closed
    cert = {"ideal": {"m": 2, "n": 2, "generators": ["x^2"]},
            "target": "y^2", "terms": [{"Q": "x^2", "S": S, "C": 1.0}],
            "F": "0", "scope": "global"}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, doc = run(capsys, "verify-implication", "--cert", str(path))
    assert code == 2 and doc["verdict"] == "inconclusive"
    assert "conclusions" not in doc
    for sub in doc["directions"]:
        assert sub["identity_residual_zero"] is None
        assert sub["uncertified"] == [S[S.index("theta"):]]


def test_division_by_zero_is_rejected_in_an_expression_not_parsed(capsys):
    # a jet divides only by a nonzero constant, a rule of its grammar
    # (parse error, 64); an expression may divide by anything, and only
    # building x/0 rejects it (65)
    code, doc = run(capsys, "order", "--m", "2", "--n", "1", "x/0")
    assert code == 64 and doc["error"] == "parse"
    code, doc = run(capsys, "verify-tame", "--m", "2", "--n", "1",
                    "--omega", "1", "x/0")
    assert code == 65 and doc["error"] == "DomainError"


def test_parse_error_is_usage_error(capsys):
    code, doc = run(capsys, "order", "--m", "2", "--n", "1", "x +")
    assert code == 64 and doc["error"] == "parse"
    code, doc = run(capsys, "verify-tame", "--m", "2", "--n", "2",
                    "gauge(sqrt, x)")
    assert code == 64 and doc["error"] == "parse"
    assert doc["message"] == "unknown name 'gauge' (at position 0)"
    assert doc["position"] == 0


def test_gauge_reg(capsys):
    code, doc = run(capsys, "gauge-reg", "--gauge", "sqrt")
    assert code == 0 and doc["verdict"] == "pass"
    assert main(["gauge-reg", "--gauge", "nope"]) == 64
    capsys.readouterr()


def test_corpus_list_and_single_case(capsys):
    code, doc = run(capsys, "corpus", "list")
    assert code == 0 and len(doc["cases"]) >= 10
    ids = {c["id"] for c in doc["cases"]}
    assert "ex4-negligible" in ids
    code, doc = run(capsys, "corpus", "run", "ring-truncation-zero")
    assert code == 0 and doc["verdict"] == "pass"


def test_corpus_run_all_matches_golden_output(capsys):
    # frozen `jetideals corpus run all` output; a deliberate change to a
    # corpus expectation updates tests/data/corpus_run_all.json with it
    golden = Path(__file__).parent / "data" / "corpus_run_all.json"
    assert main(["corpus", "run", "all"]) == 0
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_deterministic_output(capsys):
    outs = []
    for _ in range(2):
        assert main(["verify-negligible", "--m", "2", "--n", "3",
                     "--omega", "0,0,1", "y^3/z"]) == 0
        outs.append(capsys.readouterr().out)
    assert json.loads(outs[0])["verdict"] == "pass"
    assert outs[0] == outs[1]


def test_tangent_rejects_a_cell_that_is_not_a_number(tmp_path, capsys):
    csv = tmp_path / "points.csv"
    csv.write_text("0,0.5\n0,abc\n")
    code, doc = run(capsys, "tangent", "--points", str(csv))
    assert code == 65 and doc["error"] == "JetIdealsError"
    assert "'abc'" in doc["message"]


def test_a_gauge_with_a_nan_sample_exits_65(monkeypatch):
    monkeypatch.setitem(cli._NAMED_GAUGES, "nan",
                        lambda t: math.nan if t < 1e-9 else 0.5)
    assert main(["gauge-reg", "--gauge", "nan"]) == 65


@pytest.mark.parametrize("scales", ["0", "-3"])
def test_gauge_reg_rejects_scales_below_one(capsys, scales):
    assert main(["gauge-reg", "--gauge", "sqrt", "--scales", scales]) == 64
    assert "--scales" in capsys.readouterr().err


def test_a_fault_in_a_handler_exits_70_with_its_traceback(monkeypatch,
                                                          capsys):
    def broken(args):
        raise RuntimeError("a fault in the program")

    monkeypatch.setattr(cli, "cmd_order", broken)
    assert main(["order", "--m", "2", "--n", "1", "x"]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert "RuntimeError: a fault in the program" in captured.err


# ---------------------------------------------------------------------------
# Every option a subcommand declares is read.
# ---------------------------------------------------------------------------

RING = ["--m", "2", "--n", "1", "--pretty"]


def _every_option(tmp_path):
    """Per subcommand, arguments that give every option it declares."""
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(_intro_annulus_cert()))
    points = tmp_path / "points.csv"
    points.write_text("0,0.5\n0,0.25\n")
    return {
        "mul": RING + ["x", "x"],
        "compose": RING + ["--phi", "x", "x"],
        "order": RING + ["x"],
        "lowpart": RING + ["x"],
        "ideal-basis": RING + ["--gens", "x"],
        "member": RING + ["--gens", "x", "x"],
        "allow": RING + ["--gens", "x", "--budget", "3"],
        "forbid-cert": RING + ["--gens", "x", "--budget", "3",
                               "--omega", "1", "--c", "0.5"],
        "tangent": ["--points", str(points), "--delta-out", "0.1",
                    "--pretty"],
        "verify-flat": RING + ["--omega", "1", "--delta", "0.3",
                               "--seed", "1", "x"],
        "verify-tame": RING + ["--omega", "1", "--delta", "0.3",
                               "--seed", "1", "--bound", "2", "x"],
        "verify-negligible": RING + ["--omega", "1", "x"],
        "verify-implication": ["--cert", str(cert), "--seed", "1",
                               "--pretty"],
        "verify-annulus": ["--cert", str(cert), "--variant", "C*",
                           "--seed", "1", "--pretty"],
        "gauge-reg": ["--gauge", "sqrt", "--scales", "5", "--pretty"],
        "corpus": ["run", "all", "--pretty"],
    }


class _Stub:
    """Any result of a stubbed library call, a pass in every shape that
    a handler reads one."""
    verdict = "pass"
    report = {"envelope_dominates": True, "quasi_doubling_ok": True,
              "decays": True}

    def __call__(self, *args, **kwargs):
        return self

    def __getitem__(self, key):
        return "pass"

    def to_json(self):
        return {"verdict": "pass"}


class _Recorder:
    """Parsed arguments that record each name a handler reads; reading a
    name the subcommand does not declare raises KeyError."""

    def __init__(self, values):
        self._values = values
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return self._values[name]


@pytest.mark.parametrize("command", sorted(
    build_parser()._subparsers._group_actions[0].choices))
def test_every_declared_option_is_read(tmp_path, monkeypatch, command):
    stub = _Stub()
    for name in ("allow_overapprox", "forbidden_certificate_search",
                 "check_flat", "check_tame", "check_negligible",
                 "check_strong_global", "check_annulus_condition",
                 "gauge_regularize", "run_case"):
        monkeypatch.setattr(cli, name, stub)
    monkeypatch.setattr(cli, "verify_forbidden_certificate",
                        lambda *a, **k: ("pass", 1.0, 0))
    monkeypatch.setattr(cli, "estimate_tangent_directions",
                        lambda *a, **k: [])
    monkeypatch.setattr(cli.Gauge, "from_function", stub)
    parser = build_parser()
    subparser = parser._subparsers._group_actions[0].choices[command]
    # --pretty is read by main, which prints the handler's document
    declared = {a.dest for a in subparser._actions
                if a.option_strings and a.dest not in ("help", "pretty")}
    args = parser.parse_args([command] + _every_option(tmp_path)[command])
    recorder = _Recorder(vars(args))
    doc, code = args.fn(recorder)
    assert code == 0
    assert declared <= recorder.read


def test_no_subcommand_takes_an_option_it_does_not_read(capsys):
    assert main(["mul", "--m", "3", "--n", "1", "--depth", "9",
                 "x", "x"]) == 64
    assert "--depth" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "mul", "compose", "order", "lowpart", "ideal-basis", "member", "allow",
    "forbid-cert", "verify-flat", "verify-tame", "verify-negligible"])
def test_ring_commands_require_m_and_n(tmp_path, capsys, command):
    argv = _every_option(tmp_path)[command]
    assert argv[:len(RING)] == RING
    assert main([command] + argv[len(RING):]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--m, --n" in captured.err
