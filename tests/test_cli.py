import io
import json

import pytest

from puiseux.cli import main
from puiseux.families import dumps_spec, loads_spec, FiniteGenerators, UnitFractionPowers


@pytest.fixture
def spec_file(tmp_path):
    def write(spec):
        path = tmp_path / "spec.json"
        path.write_text(dumps_spec(spec))
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv + ["--output", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_classify_exit_codes(capsys, spec_file):
    code, payload = run_json(capsys, ["classify", spec_file(UnitFractionPowers(2))])
    assert code == 0
    assert payload["class"] == "dense" and payload["rule"].startswith("D1")

    path = spec_file(loads_spec('{"variant": "prime_reciprocal_shift", "prime_bound": "all"}'))
    code, payload = run_json(capsys, ["classify", path])
    assert code == 2 and payload["class"] == "unknown"


def test_frobenius_output(capsys, spec_file):
    code, payload = run_json(capsys, ["frobenius", spec_file(FiniteGenerators([6, 9, 20]))])
    assert code == 0
    assert payload["frobenius"] == "43" and payload["conductor_min"] == "44"
    code = main(["frobenius", spec_file(UnitFractionPowers(2))])
    assert code == 1  # not finitely generated: input error


def test_member_and_certificate(capsys, spec_file):
    path = spec_file(FiniteGenerators([6, 9, 20]))
    code, payload = run_json(capsys, ["member", path, "44"])
    assert code == 0 and payload["status"] == "in"
    total = sum(
        __import__("fractions").Fraction(a) * m for a, m in payload["certificate"]
    )
    assert total == 44
    code, payload = run_json(capsys, ["member", path, "43"])
    assert code == 0 and payload["status"] == "out"


def test_member_unknown_exit_2(capsys, spec_file):
    path = spec_file(loads_spec('{"variant": "geometric", "ratio": "2/3"}'))
    code, payload = run_json(capsys, ["member", path, "1/3", "--depth", "6", "--budget", "100"])
    assert code == 2 and payload["status"] == "unknown"
    assert "kind" in payload["reason"]
    path = spec_file(FiniteGenerators(["1/10007", "1/10009"]))  # lcm past the canonical budget
    code, payload = run_json(capsys, ["member", path, "1"])
    assert code == 2 and payload["reason"]["kind"] == "canonicalization_budget"


def test_factorize_and_lengths(capsys, spec_file):
    path = spec_file(FiniteGenerators([2, 3]))
    code, payload = run_json(capsys, ["factorize", path, "6"])
    assert code == 0 and payload["complete"] and payload["count"] == 2
    code, payload = run_json(capsys, ["lengths", path, "12"])
    assert code == 0 and payload["lengths"] == [4, 5, 6]


def test_conductor_exit_codes(capsys, spec_file):
    code, payload = run_json(capsys, ["conductor", spec_file(FiniteGenerators([6, 9, 20]))])
    assert code == 0 and payload["kind"] == "tail" and payload["min"] == "44"
    path = spec_file(loads_spec('{"variant": "geometric", "ratio": "2/3"}'))
    code, payload = run_json(capsys, ["conductor", path])
    assert code == 2 and payload["kind"] == "unknown"


def test_probe(capsys, spec_file):
    path = spec_file(UnitFractionPowers(2))
    code, payload = run_json(
        capsys, ["probe", path, "--interval", "0", "10", "--eps", "1/1000", "--depth", "14"]
    )
    assert code == 0 and payload["result"] == "eps_dense"
    assert payload["elements_found"] == 163841


def test_isolate(capsys, spec_file):
    path = spec_file(FiniteGenerators([2, 3]))
    code, payload = run_json(capsys, ["isolate", path, "--T", "8"])
    assert code == 0
    assert payload["pairs"][0] == ["0", "2"]


def test_closure_and_gp(capsys, spec_file):
    path = spec_file(loads_spec('{"variant": "geometric", "ratio": "2/3"}'))
    code, payload = run_json(capsys, ["closure", path])
    assert code == 0 and payload["group"]["kind"] == "localized"
    assert payload["generators"][:2] == ["1", "1/3"]
    code, payload = run_json(capsys, ["gp", path])
    assert code == 0 and payload["density"]["kind"].startswith("group_dense")


def test_construct_round_trip_via_stdin(capsys, monkeypatch, spec_file):
    code = main(["construct", "cantor", "--depth", "3"])
    spec_json = capsys.readouterr().out
    assert code == 0
    spec = loads_spec(spec_json)
    assert dumps_spec(spec) == spec_json.strip()

    monkeypatch.setattr("sys.stdin", io.StringIO(spec_json))
    code, payload = run_json(capsys, ["classify", "-"])
    assert code == 0 and payload["class"] == "nowhere_dense"


def test_construct_increasing_and_dense_atoms(capsys):
    code = main(["construct", "increasing", "--form", "harmonic", "--limit", "2", "--coeff", "1/2"])
    out = capsys.readouterr().out
    assert code == 0
    spec = loads_spec(out)
    assert spec.bounded and spec.limit == 2

    code = main(["construct", "dense-atoms", "--count", "10"])
    out = capsys.readouterr().out
    assert code == 0 and loads_spec(out).count == 10

    code = main(["construct", "increasing", "--form", "geometric", "--ratio", "3/2"])
    out = capsys.readouterr().out
    assert json.loads(out)["variant"] == "geometric"


def test_input_errors_exit_1(capsys, tmp_path):
    assert main(["classify", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err  # position-annotated message
    worse = tmp_path / "worse.json"
    worse.write_text('{"variant": "finite", "generators": ["+1/2"]}')
    assert main(["classify", str(worse)]) == 1


def test_text_and_json_same_facts(capsys, spec_file):
    path = spec_file(FiniteGenerators([6, 9, 20]))
    code, payload = run_json(capsys, ["conductor", path])
    main(["conductor", path])
    text = capsys.readouterr().out
    for key, value in payload.items():
        assert key in text
        if isinstance(value, str):
            assert value in text


def test_budget_env_var(capsys, spec_file, monkeypatch):
    monkeypatch.setenv("PUISEUX_BUDGET", "100")
    path = spec_file(loads_spec('{"variant": "geometric", "ratio": "2/3"}'))
    code, payload = run_json(capsys, ["member", path, "1/3", "--depth", "6"])
    assert code == 2  # tiny budget from the environment forces unknown
