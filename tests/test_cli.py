import json

import pytest

from z2rep.cli import load_run_config, main, parse_mutation
from z2rep.graded_algebra import Element


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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["singular", "--kind", "mr", "--r", "1"])  # --level/--sweep missing
    assert exc.value.code == 2


def test_bad_caps_rejected(capsys):
    code, _, err = run_cli(capsys, "singular", "--kind", "mr", "--r", "1",
                           "--sweep", "--level-cap", "0")
    assert code == 2


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


@pytest.mark.parametrize("payload", [
    [{"level_cap": 5}],
    {"level_cap": "5"},
    {"level_cap": 2.5},
    {"level_cap": True},
    {"level_cap": 0},
    {"output_format": "xml"},
    {"output_path": 10 ** 6},
    {"output_path": None},
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
    ("cartan", "--n", "1", "--r", "0", "--seed", "1"),
    ("verify-algebra", "--m-cap", "3"),
    ("bracket-table", "--samples", "2"),
])
def test_unread_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


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
