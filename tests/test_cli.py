import json

import pytest

from strcat import cli, families


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_algebra_info_reports_dimension(capsys):
    code, out, _ = run(capsys, "algebra", "info", "--family", "ae3", "--m", "2")
    assert code == 0
    assert "dim: 7" in out
    assert "P(1): dim 3" in out


def test_algebra_info_radical_series(capsys):
    code, out, _ = run(capsys, "algebra", "info", "--family", "ae1", "--m", "3")
    assert code == 0
    # the unique projective is uniserial of length four
    assert "P(0): dim 4, radical series S0 | S0 | S0 | S0" in out


def test_strings_listing(capsys):
    code, out, _ = run(capsys, "strings", "--family", "ae2", "--m", "2",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 8
    assert {r["name"] for r in rows} == {f"{s}{j}" for s in "MN" for j in range(4)}


def test_hom_command(capsys):
    code, out, _ = run(capsys, "hom", "--family", "ae1", "--m", "4", "V2", "V3")
    assert code == 0
    assert "dim Hom(V2, V3) = 3" in out


def test_hom_with_raw_literals(capsys):
    # End(M[b,r~,a]) is spanned by the identity and two socle shifts
    code, out, _ = run(capsys, "hom", "--family", "ae3", "--m", "2",
                       "--string", "b,r~,a", "b,r~,a", "--format", "json")
    assert code == 0
    assert json.loads(out)["dim"] == 3


def test_ext_command(capsys):
    code, out, _ = run(capsys, "ext", "--family", "ae3", "--m", "3",
                       "V3", "V3", "--format", "json")
    assert code == 0
    assert json.loads(out)["dim"] == 1


def test_syzygy_command(capsys):
    code, out, _ = run(capsys, "syzygy", "--family", "ae1", "--m", "4",
                       "V0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic_to"] == "V3"
    code, out, _ = run(capsys, "syzygy", "--family", "ae3", "--m", "2",
                       "V1", "--n", "2", "--format", "json")
    assert json.loads(out)["isomorphic_to"] == "U0"


def test_arquiver_dot(capsys):
    code, out, _ = run(capsys, "arquiver", "--family", "ae3", "--m", "2",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    node_lines = [l for l in out.splitlines() if l.endswith('";')]
    assert len(node_lines) == 8


def test_classify_json_matches_the_table(capsys):
    code, out, _ = run(capsys, "classify", "--family", "ae2", "--m", "3",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 8
    by_name = {r["module"]: r for r in rows}
    assert by_name["M0"]["udr"] == {"kind": "k"}
    assert by_name["M1"]["udr"] == {"kind": "power_series_quotient", "exponent": 3}
    assert by_name["N4"]["ext1_dim"] == 1


def test_classify_csv(capsys):
    code, out, _ = run(capsys, "classify", "--family", "ae1", "--m", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("module,string,stable_endo_dim")
    assert len(lines) == 3


def test_determinism_across_runs(capsys):
    args = ("classify", "--family", "ae3", "--m", "2", "--format", "json",
            "--seed", "5")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ("arquiver", "--family", "ae2", "--m", "2", "--format", "dot")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_passes_on_builtin_families(capsys):
    code, _, err = run(capsys, "classify", "--family", "ae3", "--m", "2",
                       "--verify")
    assert code == 0 and not err
    code, _, err = run(capsys, "arquiver", "--family", "ae1", "--m", "3",
                       "--verify")
    assert code == 0 and not err
    # --verify is a mode, not a classify-only flag
    code, _, err = run(capsys, "hom", "--family", "ae2", "--m", "2",
                       "M1", "M1", "--verify")
    assert code == 0 and not err


def test_verify_failure_exits_4(capsys, monkeypatch):
    from strcat import deformation

    def wrong_table(family, m):
        return {"V0": (0, deformation.trivial_ring())}

    monkeypatch.setattr(deformation, "expected_classification", wrong_table)
    code, _, err = run(capsys, "classify", "--family", "ae1", "--m", "2",
                       "--verify")
    assert code == 4
    assert err


def test_file_algebra_path(tmp_path, capsys):
    spec = {
        "vertices": [0],
        "arrows": [{"name": "a", "from": 0, "to": 0}],
        "rules": [{"lhs": ["a", "a", "a"], "rhs": None}],
        "prime": 32003,
        "dim_bound": 3,
    }
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "algebra", "info", "--family", "file",
                       "--spec", str(path))
    assert code == 0 and "dim: 3" in out
    code, out, _ = run(capsys, "strings", "--family", "file",
                       "--spec", str(path), "--format", "json")
    assert code == 0 and len(json.loads(out)) == 2


def test_cyclic_spec_without_relations_exits_3(tmp_path, capsys):
    spec = {
        "vertices": [0, 1],
        "arrows": [{"name": "x", "from": 0, "to": 1},
                   {"name": "y", "from": 1, "to": 0}],
        "rules": [],
        "prime": 32003,
        "dim_bound": 20,
    }
    path = tmp_path / "free.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "algebra", "info", "--family", "file",
                       "--spec", str(path))
    assert code == 3
    assert "irreducible paths" in err


def test_bad_flags_exit_2(capsys):
    for family in families.FAMILIES.values():
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "--family", family.name,
                      "--m", str(family.m_min - 1)])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--family", "file", "--spec", "x.json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["hom", "--family", "ae1", "--m", "2", "V0", "V0",
                  "--format", "dot"])
    assert exc.value.code == 2


@pytest.mark.parametrize("content", [
    None,
    "{not json",
    json.dumps({"vertices": [0], "arrows": [], "rules": []}),
    json.dumps({"vertices": 5, "arrows": [], "dim_bound": 3}),
], ids=["missing-file", "invalid-json", "no-dim-bound", "wrong-type"])
def test_bad_spec_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "alg.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        cli.main(["algebra", "info", "--family", "file", "--spec", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("STRCAT_SEED", "17")
    code, out, _ = run(capsys, "classify", "--family", "ae1", "--m", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["module"] == "V0"


def test_bad_env_seed_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("STRCAT_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--family", "ae1", "--m", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["hom", "--family", "ae1", "--m", "2", "V0", "V1",
                  "--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_output_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "arquiver", "--family", "ae1", "--m", "2",
                       "--format", "dot", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("digraph")
