import csv
import io
import json
import time
from fractions import Fraction

import pytest

from z2rep import singular_solver, submodule_quotient
from z2rep.cli import load_run_config, main, parse_mutation
from z2rep.graded_algebra import Element
from z2rep.rationals import parse_rational
from z2rep.verma import Vector, VermaModule


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_algebra_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-algebra")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] and data["jacobi_triples"] == 1000


def test_verify_algebra_mutation_fails(capsys):
    code, out, _ = run_cli(capsys, "verify-algebra", "--mutate", "[R,Lp]=Lp")
    assert code == 1
    data = json.loads(out)
    assert not data["passed"]
    assert data["failure"]["check"] == "jacobi"


def test_verify_algebra_csv(capsys):
    code, out, _ = run_cli(capsys, "verify-algebra", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,count,status,detail"
    assert "jacobi,1000,pass," in lines


def test_parse_mutation():
    (x, y), elem = parse_mutation("[R,Lp]=Lp")
    assert (x, y) == ("R", "Lp") and elem == Element.gen("Lp")
    (_, _), elem = parse_mutation("{ap,am}=2*R - Lp")
    assert elem == Element({"R": 2, "Lp": -1})
    (_, _), elem = parse_mutation("[Lp,Lm]=0")
    assert elem.is_zero()
    with pytest.raises(ValueError):
        parse_mutation("[R,Lp] Lp")
    with pytest.raises(ValueError):
        parse_mutation("[R,Zed]=Lp")


@pytest.mark.parametrize("spec", ["[R,Lp]=2*Lp+", "[R,Lp]=-", "[R,Lp]=++Lp"])
def test_mutation_with_a_stray_sign_is_a_usage_error(spec, capsys):
    # each sign must lead a term; none may be dropped or merged with another
    with pytest.raises(ValueError, match="cannot parse mutation"):
        parse_mutation(spec)
    code, out, err = run_cli(capsys, "verify-algebra", "--mutate", spec)
    assert code == 2 and out == "" and err.startswith("error: cannot parse mutation")


def test_singular_level(capsys):
    code, out, _ = run_cli(capsys, "singular", "--kind", "mr", "--r", "-2",
                           "--level", "3")
    assert code == 0
    reports = json.loads(out)
    assert [r["sector"] for r in reports] == [[0, 1], [1, 0]]
    assert all(r["closed_form_match"] == "exact" for r in reports)
    assert reports[0]["rtilde"] == {"computed": "3/1", "stated": "3/1"}


def test_singular_sweep_hits_only_level_one(capsys):
    code, out, _ = run_cli(capsys, "singular", "--kind", "mrl", "--r", "1",
                           "--lambda", "1", "--sweep", "--level-cap", "8")
    assert code == 0
    reports = json.loads(out)
    hits = [(r["level"], tuple(r["sector"])) for r in reports if r["nullspace"]]
    assert hits == [(1, (0, 1)), (1, (1, 0))]


def test_singular_sweep_no_hits(capsys):
    code, out, _ = run_cli(capsys, "singular", "--kind", "mr", "--r", "1/2",
                           "--sweep", "--level-cap", "9")
    assert code == 0
    reports = json.loads(out)
    assert all(not r["nullspace"] for r in reports)


def test_singular_rejects_bad_rational(capsys):
    code, _, err = run_cli(capsys, "singular", "--kind", "mr", "--r", "0.5",
                           "--level", "1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv, text", [
    (["singular", "--kind", "mr", "--r=1/0", "--level", "1"], "1/0"),
    (["classify", "--kind", "mrl", "--r", "1", "--lambda=3/0"], "3/0"),
    (["cartan", "--n", "3", "--r", "0", "--c=1/0"], "1/0")])
def test_zero_denominator_is_a_usage_error_that_names_its_input(argv, text, capsys):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err == f"error: zero denominator in {text!r}\n"


@pytest.mark.parametrize("text", ["2.5", "1e3", "1/2/3", "abc", "1_0", "\u0663", "1/0_3"])
@pytest.mark.parametrize("argv", [("singular", "--kind", "mr", "--level", "1", "--r={}"),
                                  ("cartan", "--n", "5", "--r", "0", "--c=1,{}")])
def test_malformed_rational_is_a_usage_error_that_names_its_input(argv, text, capsys):
    code, out, err = run_cli(capsys, *(a.format(text) for a in argv))
    assert code == 2 and out == ""
    assert err == f"error: malformed rational {text!r}: expected p/q or an integer\n"


def test_singular_requires_lambda_for_mrl(capsys):
    code, _, err = run_cli(capsys, "singular", "--kind", "mrl", "--r", "1",
                           "--level", "1")
    assert code == 2


def test_classify_cases(capsys):
    code, out, _ = run_cli(capsys, "classify", "--kind", "mr", "--r", "-4")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "ii" and data["dimension"] == 25 and data["M"] == 2

    code, out, _ = run_cli(capsys, "classify", "--kind", "mr", "--r", "3")
    assert code == 0
    assert json.loads(out)["case"] == "i"

    code, out, _ = run_cli(capsys, "classify", "--kind", "mrl", "--r", "0",
                           "--lambda", "16")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "iv" and data["dimension"] == "infinite"


def test_dims_output(capsys):
    code, out, _ = run_cli(capsys, "dims", "--kind", "mr", "--r", "-2",
                           "--max-level", "6")
    assert code == 0
    table = json.loads(out)
    assert [row["quotient_dim"] for row in table] == [1, 2, 3, 2, 1, 0, 0]

    code, out, _ = run_cli(capsys, "dims", "--kind", "mrl", "--r", "1",
                           "--lambda", "1", "--max-level", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,r,lambda,level,verma_dim,submodule_dim,quotient_dim"
    assert lines[2] == "MrLambda,1/1,1/1,1,4,2,2"


def test_cartan_command(capsys):
    code, out, _ = run_cli(capsys, "cartan", "--n", "1", "--r", "3")
    assert code == 0
    data = json.loads(out)
    assert data["constituents"] == [{"kind": "nu_r", "r": "3/1"}]

    code, out, _ = run_cli(capsys, "cartan", "--n", "2", "--r", "0", "--c", "5")
    assert code == 0
    data = json.loads(out)
    assert data["constituents"] == [{"kind": "nu_r_lambda", "r": "0/1",
                                     "lambda": "5/1"}]

    code, out, _ = run_cli(capsys, "cartan", "--n", "4", "--r", "0", "--c", "0,1")
    assert code == 0
    data = json.loads(out)
    assert all(c["kind"] in ("nu_r", "nu_r_lambda") for c in data["constituents"])


def test_cartan_60_bit_closing_coefficient(capsys):
    # the root finder's cost grows with bit size, not with sqrt(c)
    code, out, _ = run_cli(capsys, "cartan", "--n", "2", "--r", "0",
                           "--c", "1000000000000000003")
    assert code == 0
    assert json.loads(out)["constituents"] == [
        {"kind": "nu_r_lambda", "r": "0/1", "lambda": "1000000000000000003/1"}]


@pytest.mark.parametrize("c", [
    ",".join([str(2 ** 2047 + 1)] + ["0"] * 5),  # a 2048-bit coefficient
    ",".join(f"1/{2 ** 399 + k}" for k in (1, 3, 5, 7, 9, 11)),  # six 400-bit denominators
], ids=["2048-bit-coefficient", "400-bit-denominators"])
def test_cartan_refuses_closing_coefficients_above_the_bit_bound(c, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "cartan", "--n", "12", "--r", "0", f"--c={c}")
    assert code == 2 and out == "" and "above the bound 1024" in err
    assert time.perf_counter() - start < 1


def test_cartan_admits_a_1024_bit_closing_coefficient(capsys):
    c = ",".join([str(2 ** 1023 + 1)] + ["0"] * 5)
    code, out, _ = run_cli(capsys, "cartan", "--n", "12", "--r", "0", f"--c={c}")
    assert code == 0 and json.loads(out)["dim"] == 12


@pytest.mark.parametrize("argv", [
    ("classify", "--kind", "mr", f"--r=1/{2 ** 1024}"),  # a 1025-bit denominator
    ("singular", "--kind", "mr", f"--r={2 ** 1024 + 1}", "--level", "1"),  # 1025-bit numerator
    ("dims", "--kind", "mrl", "--r", "1", f"--lambda=-{2 ** 1030 + 1}/3"),
    ("singular", "--kind", "mrl", "--r", "1/3", f"--lambda=5/{2 ** 2000 + 1}", "--sweep"),
], ids=["classify-r-denominator", "singular-r-numerator", "dims-lambda-numerator",
        "sweep-lambda-denominator"])
def test_module_parameters_above_the_bit_bound_are_refused(argv, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "has a numerator or denominator above the bound 1024 bits" in err
    assert time.perf_counter() - start < 1


def test_module_parameters_of_1024_bits_are_admitted(capsys):
    r, lam = Fraction(1, 2 ** 1023 + 1), Fraction(-(2 ** 1024 - 1), 2 ** 1024 - 3)
    code, out, _ = run_cli(capsys, "singular", "--kind", "mrl", f"--r={r}", f"--lambda={lam}",
                           "--level", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(row["r"], row["lambda"]) for row in rows] == [(f"{r}", f"{lam}")] * 2


def test_cartan_bad_c_length(capsys):
    code, _, err = run_cli(capsys, "cartan", "--n", "4", "--r", "0", "--c", "1")
    assert code == 2


def test_bracket_table(capsys):
    code, out, _ = run_cli(capsys, "bracket-table")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 100
    lookup = {(r["x"], r["y"]): r["result"] for r in rows}
    assert lookup[("ap", "am")] == [{"gen": "R", "coeff": "2/1"}]


def test_determinism_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "singular", "--kind", "mr", "--r", "-2",
                               "--sweep", "--level-cap", "7")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify-algebra", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["passed"]


@pytest.mark.parametrize("argv", [["classify", "--kind", "mr", "--r", "-2"],
                                  ["cartan", "--n", "2", "--r", "0", "--c", "1"]])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    # a directory, and a file in a directory that does not exist
    for target in (tmp_path, tmp_path / "missing" / "x.json"):
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("c_args", [("--c", "1,,2"), ("--c=,1,2",), ("--c", "1,2,")])
def test_empty_c_field_is_a_usage_error(c_args, capsys):
    code, out, err = run_cli(capsys, "cartan", "--n", "5", "--r", "0", *c_args)
    assert code == 2 and out == "" and err.startswith("error:")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["singular", "--kind", "mr", "--r", "1"])  # --level/--sweep missing
    assert exc.value.code == 2


def test_bad_caps_rejected(capsys):
    code, _, err = run_cli(capsys, "singular", "--kind", "mr", "--r", "1",
                           "--sweep", "--level-cap", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("dims", "--kind", "mr", "--r", "1", "--max-level", "-3"),
    ("classify", "--kind", "mr", "--r", "-4", "--max-level", "-3"),
    ("classify", "--kind", "mrl", "--r", "-5", "--lambda", "9", "--max-level=-1"),
])
def test_negative_max_level_rejected(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "--max-level" in err


@pytest.mark.parametrize("argv", [
    ("dims", "--kind", "mr", "--r", "-16", "--max-level", "100000"),
    ("singular", "--kind", "mr", "--r", "1/3", "--sweep", "--level-cap", "100000"),
    ("classify", "--kind", "mr", "--r", "-1000"),  # its cap is raised to 2002
    ("singular", "--kind", "mr", "--r", "1/3", "--level", "100000"),
])
def test_levels_above_the_bound_rejected_at_once(argv, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "200" in err
    assert time.perf_counter() - start < 1


def test_lowest_admitted_levels(capsys):
    code, out, _ = run_cli(capsys, "dims", "--kind", "mr", "--r", "1", "--max-level", "0")
    assert code == 0 and [row["level"] for row in json.loads(out)] == [0]
    code, _, err = run_cli(capsys, "singular", "--kind", "mr", "--r", "1", "--level", "0")
    assert code == 2 and "--level must be from 1 to 200" in err


def test_env_config_level_cap_above_the_bound(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level_cap": 100000}))
    monkeypatch.setenv("Z2REP_CONFIG", str(cfg))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "singular", "--kind", "mr", "--r", "1/3", "--sweep")
    assert code == 2 and out == ""
    assert err.startswith("error: bad Z2REP_CONFIG")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("joined, split", [
    (("singular", "--kind", "mr", "--r=-1/3", "--level", "3"),
     ("singular", "--kind", "mr", "--r", "-1/3", "--level", "3")),
    (("classify", "--kind", "mrl", "--r=-3/2", "--lambda=-9/4", "--max-level", "4"),
     ("classify", "--kind", "mrl", "--r", "-3/2", "--lambda", "-9/4",
      "--max-level", "4")),
    (("dims", "--kind", "mrl", "--lambda=-9/4", "--r=-1/3", "--format", "csv"),
     ("dims", "--kind", "mrl", "--lambda", "-9/4", "--r", "-1/3", "--format", "csv")),
    (("cartan", "--n", "8", "--r=-2", "--c=-6,0,5,0"),
     ("cartan", "--n", "8", "--r", "-2", "--c", "-6,0,5,0")),
    (("cartan", "--n", "4", "--r=-1/2", "--c=-1/4,-3"),
     ("cartan", "--n", "4", "--r", "-1/2", "--c", "-1/4,-3")),
])
def test_negative_rationals_as_separate_tokens(joined, split, capsys):
    code, expected, _ = run_cli(capsys, *joined)
    assert code == 0 and expected
    assert run_cli(capsys, *split) == (0, expected, "")


def test_env_config(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level_cap": 5, "output_format": "csv"}))
    monkeypatch.setenv("Z2REP_CONFIG", str(cfg))
    config = load_run_config()
    assert config.level_cap == 5
    assert config.output_format == "csv"
    code, out, _ = run_cli(capsys, "singular", "--kind", "mr", "--r", "1/2",
                           "--sweep")
    assert code == 0
    assert out.startswith("kind,")  # csv came from the env config
    # sweep honored the configured level cap
    assert out.strip().splitlines()[-1].split(",")[3] == "5"
    # explicit flag still wins
    code, out, _ = run_cli(capsys, "singular", "--kind", "mr", "--r", "1/2",
                           "--sweep", "--format", "json")
    assert code == 0
    json.loads(out)


def test_env_config_defaults_per_file(tmp_path, monkeypatch, capsys):
    # the parser is built once per configuration; each file keeps its defaults
    out_path = tmp_path / "out.csv"
    configs = [({"level_cap": 3, "output_format": "csv"}, "kind,", "3"),
               ({"level_cap": 2}, "[", "2"),
               ({"level_cap": 3, "output_format": "csv", "output_path": str(out_path)},
                "", "3")]
    for i, (payload, head, last_level) in enumerate(configs * 2):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps(payload))
        monkeypatch.setenv("Z2REP_CONFIG", str(cfg))
        code, out, _ = run_cli(capsys, "singular", "--kind", "mr", "--r", "1/2",
                               "--sweep")
        assert code == 0 and out.startswith(head)
        if "output_path" in payload:
            out = out_path.read_text()
            out_path.unlink()
        if head == "[":
            assert json.loads(out)[-1]["level"] == int(last_level)
        else:
            assert out.strip().splitlines()[-1].split(",")[3] == last_level


def test_env_config_level_cap_ends_the_dims_table(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"level_cap": 3}))
    monkeypatch.setenv("Z2REP_CONFIG", str(cfg))
    code, out, _ = run_cli(capsys, "dims", "--kind", "mr", "--r", "-2")
    assert code == 0 and [row["level"] for row in json.loads(out)] == [0, 1, 2, 3]
    code, out, _ = run_cli(capsys, "dims", "--kind", "mr", "--r", "-2", "--max-level", "5")
    assert code == 0 and json.loads(out)[-1]["level"] == 5


@pytest.mark.parametrize("payload", [
    [{"level_cap": 5}],
    {"level_cap": "5"},
    {"level_cap": 2.5},
    {"level_cap": True},
    {"level_cap": 0},
    {"output_format": "xml"},
    {"output_path": 10 ** 6},
    {"output_path": None},
    {"level-cap": 3},
    {"level_cap": 3, "format": "csv"},
], ids=repr)
def test_env_config_malformed_values(payload, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    monkeypatch.setenv("Z2REP_CONFIG", str(cfg))
    code, out, err = run_cli(capsys, "singular", "--kind", "mr", "--r", "1/2",
                             "--sweep")
    assert code == 2 and out == ""
    assert err.startswith("error: bad Z2REP_CONFIG")


@pytest.mark.parametrize("argv", [
    ("classify", "--kind", "mr", "--r", "-4", "--level-cap", "5"),
    ("dims", "--kind", "mr", "--r", "1", "--level-cap", "5"),
    ("cartan", "--n", "1", "--r", "0", "--seed", "1"),
    ("verify-algebra", "--m-cap", "3"),
    ("bracket-table", "--samples", "2"),
])
def test_unread_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_failed_quotient_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(submodule_quotient, "_quotient_has_no_singular",
                        lambda module, w, n: False)
    code, out, err = run_cli(capsys, "classify", "--kind", "mrl", "--r", "-5",
                             "--lambda", "9")
    assert code == 1 and out == ""
    assert "unexpected singular vector" in err


@pytest.mark.parametrize("argv", [
    ("classify", "--kind", "mr", "--r=-6"),
    ("classify", "--kind", "mrl", "--r", "1/3", "--lambda", "169/9"),
    ("dims", "--kind", "mr", "--r=-6", "--max-level", "20"),
    ("dims", "--kind", "mrl", "--r", "1/3", "--lambda", "169/9", "--max-level", "20"),
])
def test_corrupted_closed_form_exits_1(argv, monkeypatch, capsys):
    # one coefficient of each seed doubled: am and atm no longer kill it
    right = submodule_quotient.closed_form

    def corrupted(module, which, M):
        vec = right(module, which, M)
        ket, c = vec.sorted_items()[0]
        return Vector(module, {**vec.terms, ket: 2 * c})

    monkeypatch.setattr(submodule_quotient, "closed_form", corrupted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "does not kill a seed" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("computed, shown", [(None, None), (Fraction(4), "4/1")],
                         ids=["not-a-multiple", "wrong-multiple"])
def test_failed_rtilde_relation_exits_1(computed, shown, fmt, monkeypatch, capsys):
    # Rt's image not proportional to the partner vector, then the wrong multiple
    monkeypatch.setattr(singular_solver, "rtilde_check", lambda module, which, M:
                        singular_solver.RtildeCheck(which, computed, Fraction(2 * M + 1)))
    code, out, _ = run_cli(capsys, "singular", "--kind", "mr", "--r=-2", "--level", "3",
                           "--format", fmt)
    assert code == 1
    if fmt == "json":
        assert json.loads(out)[0]["rtilde"] == {"computed": shown, "stated": "3/1"}
    else:
        row = next(csv.DictReader(io.StringIO(out)))
        assert (row["rtilde_computed"], row["rtilde_stated"]) == (shown or "", "3/1")


def test_env_config_bad_file(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{\"level_cap\": -1}")
    monkeypatch.setenv("Z2REP_CONFIG", str(cfg))
    code, _, err = run_cli(capsys, "verify-algebra")
    assert code == 2


def test_classify_order_above_32(capsys):
    # M = 33: the singular order lies beyond any fixed scan range
    code, out, _ = run_cli(capsys, "classify", "--kind", "mr", "--r", "-66")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "ii" and data["M"] == 33 and data["dimension"] == 4489


def test_case_ii_at_the_max_level_edge(capsys):
    # case ii at M needs level 4M + 2: M = 49 reaches MAX_LEVEL - 2, M = 50 overshoots it
    verdict = submodule_quotient.classify_module(VermaModule("Mr", Fraction(-98)))
    assert (verdict.case, verdict.M, verdict.dimension) == ("ii", 49, 99 ** 2)
    assert [row["level"] for row in verdict.per_level] == list(range(199))
    code, out, err = run_cli(capsys, "classify", "--kind", "mr", "--r", "-100")
    assert code == 2 and out == "" and "level 202" in err
