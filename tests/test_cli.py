import csv
import dataclasses
import io
import json

import pytest

from strcat import arquiver, cli, deformation, families, homology, quiver_core, strings

from .builders import (
    INFINITE_SPEC,
    NON_MODULE_STRING_SPEC,
    NOT_SELF_INJECTIVE_SPEC,
    brauer_line_spec,
)
from .test_arquiver import syzygy_args, word_read_algebras


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def cli_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


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


def test_algebra_info_eliminates_nothing(capsys, monkeypatch):
    # the projectives' arrow matrices have one nonzero entry per row, so
    # their radical layers are counted off index maps
    from strcat import linalg

    calls = []
    rref = linalg.rref

    def counted_rref(mat, p):
        calls.append(mat.shape)
        return rref(mat, p)

    monkeypatch.setattr(linalg, "rref", counted_rref)
    code, out, _ = run(capsys, "algebra", "info", "--family", "ae3", "--m", "16")
    assert code == 0 and "P(0): dim" in out
    assert not calls


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


@pytest.mark.parametrize("literal", ["~b", "b~~"])
def test_stray_tilde_in_a_literal_exits_3(capsys, literal):
    code, out, err = run(capsys, "hom", "--family", "ae3", "--m", "3",
                         "--string", literal, "b")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


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


def test_classify_renders_an_unresolved_report(capsys, monkeypatch):
    # no family leaves a module unresolved and no golden file holds this
    # shape, so one report of ae3 m=3 is replaced by an unresolved one
    from strcat import deformation

    reason = "no tower reached this module"
    real = deformation.classify(quiver_core.build_family("ae3", 3), "ae3", 3)
    i = next(i for i, r in enumerate(real) if r.udr.exponent is not None)
    name = real[i].module
    reports = (*real[:i], dataclasses.replace(real[i], udr=deformation.unresolved(reason)),
               *real[i + 1:])
    monkeypatch.setattr(deformation, "classify", lambda *args: reports)
    argv = ("classify", "--family", "ae3", "--m", "3")
    by_name = {r["module"]: r for r in cli_json(capsys, *argv)}
    assert by_name[name]["udr"] == {"kind": "unresolved", "reason": reason}
    assert sum(r["udr"]["kind"] == "unresolved" for r in by_name.values()) == 1

    code, out, _ = run(capsys, *argv, "--format", "csv")
    header, *rows = csv.reader(io.StringIO(out))
    assert code == 0 and header[4:6] == ["udr_kind", "udr_exponent"]
    by_name = {row[0]: dict(zip(header, row)) for row in rows}
    assert by_name[name]["udr_kind"] == "unresolved"
    assert by_name[name]["udr_exponent"] == ""

    code, out, _ = run(capsys, *argv)
    assert code == 0 and f"unresolved: {reason}" in out


def test_classify_trail_names_a_tower_that_is_not_certified(capsys, monkeypatch):
    # every built-in tower certifies, so check_tower is made to fail on ae3 m=3;
    # the orbit rows carry its reason in JSON and CSV, and claim no certificate
    from strcat import deformation

    reason = "step 2: twist kernel is not the base module"
    monkeypatch.setattr(deformation, "check_tower",
                        lambda *args: deformation.unresolved(reason))
    said = f"not certified for {families.get('ae3').tower(3)[0]}: {reason}"
    argv = ("classify", "--family", "ae3", "--m", "3")
    orbit = [r for r in cli_json(capsys, *argv) if r["ext1_dim"] == 1]
    assert len(orbit) == 4
    for r in orbit:
        assert r["udr"] == {"kind": "unresolved", "reason": reason}
        assert any(line.endswith(said) for line in r["trail"])
        assert "certified for" not in "; ".join(r["trail"]).replace(said, "")

    code, out, _ = run(capsys, *argv, "--format", "csv")
    header, *rows = csv.reader(io.StringIO(out))
    trails = [row[-1] for row in rows if row[3] == "1"]
    assert code == 0 and header[-1] == "trail" and len(trails) == 4
    for trail in trails:
        assert said in trail and "certified for" not in trail.replace(said, "")


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


# a well-formed spec; each malformed one below changes one of its keys, or
# drops it when the new value is DROP
DROP = object()
LOOP_SPEC = {
    "vertices": [0],
    "arrows": [{"name": "a", "from": 0, "to": 0}],
    "rules": [{"lhs": ["a", "a", "a"], "rhs": None}],
    "prime": 32003,
    "dim_bound": 3,
}


def test_file_algebra_path(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(LOOP_SPEC))
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


def test_bad_flags_exit_2(capsys, monkeypatch):
    for family in families.FAMILIES.values():
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "--family", family.name,
                      "--m", str(family.m_min - 1)])
        assert exc.value.code == 2
    # an m far above the dimension cap is refused before the algebra is built
    # (ae1 alone would otherwise list 10**9 arrow names)
    def never_built(m):
        raise AssertionError(f"spec asked for with m={m}")

    capsys.readouterr()
    for family in families.FAMILIES.values():
        monkeypatch.setitem(families.FAMILIES, family.name,
                            dataclasses.replace(family, spec=never_built))
        with pytest.raises(SystemExit) as exc:
            cli.main(["algebra", "info", "--family", family.name, "--m", str(10**9)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and str(family.m_max) in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--family", "file", "--spec", "x.json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["hom", "--family", "ae1", "--m", "2", "V0", "V0",
                  "--format", "dot"])
    assert exc.value.code == 2
    for argv in (["syzygy", "--family", "ae1", "--m", "2", "V0", "--n", "0"],
                 ["syzygy", "--family", "ae1", "--m", "2", "V0", "--n", "-2"],
                 ["strings", "--family", "ae1", "--m", "2", "--length-cap", "3"],
                 ["syzygy", "--family", "ae1", "--m", "3", "V0", "--seed", "-5"],
                 ["hom", "--family", "ae1", "--m", "2", "V0", "V1", "--seed", "-1"],
                 ["hom", "--family", "ae1", "--m", "2", "V0", "V1", "--seed", "abc"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("prime", ["4", "2147483647", "2305843009213693951"],
                         ids=["composite", "above-bound", "61-bit"])
def test_unusable_prime_flag_exits_2(capsys, prime):
    # 2^31 - 1 and 2^61 - 1 are prime but overflow int64 products
    with pytest.raises(SystemExit) as exc:
        cli.main(["hom", "--family", "ae1", "--m", "2", "V0", "V1",
                  "--prime", prime])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and prime in captured.err


@pytest.mark.parametrize("content", [
    None,
    "{not json",
    json.dumps({"vertices": [0], "arrows": [], "rules": []}),
    json.dumps({"vertices": 5, "arrows": [], "dim_bound": 3}),
    json.dumps({"vertices": [0], "arrows": [], "prime": 4, "dim_bound": 3}),
    json.dumps({"vertices": [0], "arrows": [], "prime": 2147483647,
                "dim_bound": 3}),
    json.dumps([1, 2]),
], ids=["missing-file", "invalid-json", "no-dim-bound", "wrong-type",
        "composite-prime", "prime-above-bound", "not-an-object"])
def test_bad_spec_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "alg.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        cli.main(["algebra", "info", "--family", "file", "--spec", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("change,stage", [
    ({"dim_bound": 0}, "bound"),
    ({"dim_bound": -3}, "bound"),
    ({"dim_bound": quiver_core.MAX_DIM + 1}, "bound"),
    ({"dim_bound": 16000}, "bound"),
    ({"dim_bound": True}, "type"),
    ({"dim_bound": 1.5}, "type"),
    ({"prime": 3.7}, "type"),
    ({"prime": True}, "type"),
    ({"rules": [{"lhs": ["a", "a", "a"], "rhs": {"coeff": 1.5, "path": ["a"]}}]}, "type"),
    ({"rules": [{"lhs": ["z"], "rhs": None}]}, "build"),
    ({"arrows": [{"name": "a", "from": 0, "to": 7}]}, "build"),
    ({"vertices": [0, 0]}, "build"),
    ({"arrows": [{"name": "a", "from": 0, "to": 0}] * 2}, "build"),
    ({"vertices": [0, 1], "arrows": [{"name": "a", "from": 0, "to": 0},
                                     {"name": "b", "from": 0, "to": 1}],
      "rules": [{"lhs": ["a", "b"], "rhs": {"coeff": 1, "path": ["a"]}}]}, "build"),
    *[({"vertices": [v], "arrows": [{"name": "a", "from": v, "to": v}]}, "build")
      for v in ("x", 0.5, True, -1)],
    ({"vertices": [0, 1], "arrows": [{"name": "a", "from": True, "to": True}]}, "build"),
    *[({"arrows": [{"name": name, "from": 0, "to": 0}],
        "rules": [{"lhs": [name] * 3, "rhs": None}]}, "build")
      for name in ("a,b", "a~", "a b", "", "e0", "e12", 7)],
    ({"dim_bound": DROP}, "bound"),
    ({"vertices": DROP}, "build"),
    ({"vertices": 5}, "build"),
    ({"arrows": "a"}, "build"),
    ({"arrows": [{"name": "a", "from": 0}]}, "build"),
    ({"arrows": [["a", 0, 0]]}, "build"),
    ({"rules": None}, "build"),
    ({"rules": [["a", "a", "a"]]}, "build"),
    ({"rules": [{"rhs": None}]}, "build"),
    ({"rules": [{"lhs": "a", "rhs": None}]}, "build"),
    ({"rules": [{"lhs": ["a", "a", "a"], "rhs": {"coeff": 1}}]}, "build"),
    ({"rules": [{"lhs": ["a", "a", "a"], "rhs": {"coeff": 1, "path": "a"}}]}, "build"),
    ({"rules": [{"lhs": ["a", "a", "a"], "rhs": [1, ["a"]]}]}, "build"),
], ids=["dim-bound-0", "dim-bound-negative", "dim-bound-above-cap", "dim-bound-16000",
        "dim-bound-true", "dim-bound-fraction", "prime-fraction", "prime-true",
        "coeff-fraction", "unknown-arrow", "undeclared-vertex", "duplicate-vertex",
        "duplicate-arrow", "rule-endpoints", "vertex-string", "vertex-fraction",
        "vertex-true", "vertex-negative", "arrow-from-true", "name-comma", "name-tilde",
        "name-space", "name-empty", "name-trivial-e0", "name-trivial-e12",
        "name-number", "no-dim-bound", "no-vertices", "vertices-number", "arrows-string",
        "arrow-no-to", "arrow-list", "rules-null", "rule-list", "rule-no-lhs",
        "lhs-string", "rhs-no-path", "rhs-path-string", "rhs-list"])
def test_malformed_spec_exits_2_before_completion(tmp_path, capsys, monkeypatch,
                                                  change, stage):
    # the type and bound of prime and dim_bound are checked first, then the
    # quiver and rules are built; completion is never entered
    def never_completed(*args, **kwargs):
        raise AssertionError("complete_rewriting entered")

    monkeypatch.setattr(quiver_core, "complete_rewriting", never_completed)
    path = tmp_path / "alg.json"
    spec = {key: value for key, value in {**LOOP_SPEC, **change}.items() if value is not DROP}
    path.write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as exc:
        cli.main(["algebra", "info", "--family", "file", "--spec", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    if stage == "build":
        assert "spec:" in captured.err
    else:
        assert ("prime" if "prime" in change else
                "dim_bound" if "dim_bound" in change else "coeff") in captured.err


def test_brauer_line_strings_are_listed_in_full(tmp_path, capsys):
    path = tmp_path / "brauer.json"
    path.write_text(json.dumps(brauer_line_spec(2)))
    code, out, err = run(capsys, "strings", "--family", "file", "--spec", str(path),
                         "--format", "json")
    assert code == 0 and err == ""
    assert len(json.loads(out)) == 18


def test_representation_infinite_spec_exits_3(tmp_path, capsys):
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(INFINITE_SPEC))
    code, out, err = run(capsys, "strings", "--family", "file", "--spec", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "x,y~,x" in err


def test_syzygy_on_a_representation_infinite_spec(tmp_path, capsys):
    # one syzygy is named by the word its basis graph spells, with no
    # enumeration; a second needs the period test's bound, which counts
    # the strings, and exits 3
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(INFINITE_SPEC))
    argv = ("syzygy", "--family", "file", "--spec", str(path), "e0", "--n")
    code, out, err = run(capsys, *argv, "1")
    assert (code, err) == (0, "")
    assert out == "Omega^1(e0) has dimension vector (3,), isomorphic to x,y~\n"
    code, out, err = run(capsys, *argv, "2")
    assert code == 3 and out == "" and "infinitely many strings" in err


def assert_word_chain_equals_the_module_walk(build, monkeypatch) -> list:
    """``syzygy --n`` for n in 1..9 on every string of ``build()`` answers
    the same with the word reads as on a second ``build()`` where every
    read gives up, so that every step takes the module syzygy.  Returns
    the modules whose syzygy the word route took."""
    def answers(algebra):
        return [cli.cmd_syzygy(syzygy_args(w.literal(), n), algebra).payload
                for w in strings.enumerate_strings(algebra) for n in range(1, 10)]

    with monkeypatch.context() as patch:
        taken = count_syzygies(patch)
        chained = answers(build())
    with monkeypatch.context() as patch:
        patch.setattr(strings, "omega_string", lambda algebra, word: None)
        assert answers(build()) == chained
    return taken


@pytest.mark.parametrize("build", [b for _, b in word_read_algebras()],
                         ids=[name for name, _ in word_read_algebras()])
def test_word_chained_syzygy_equals_the_module_walk(build, monkeypatch):
    # on these self-injective string algebras no power needs a module syzygy
    assert not assert_word_chain_equals_the_module_walk(build, monkeypatch)


def test_word_chained_syzygy_of_a_projective_string_falls_back_to_zero(monkeypatch):
    # k[x]/(x^2) x k: e1 is S(1) = P(1), whose syzygy is zero; no word names
    # zero, so e1 alone takes a module syzygy, once
    def build():
        return quiver_core.load_algebra_spec(KX2_K_SPEC)

    taken = assert_word_chain_equals_the_module_walk(build, monkeypatch)
    assert [strings.module_word(M).literal() for M in taken] == ["e1"]
    assert cli.cmd_syzygy(syzygy_args("e1", 9), build()).payload["dim_vector"] == [0, 0]


def test_word_chained_syzygy_on_a_representation_infinite_spec(tmp_path, capsys,
                                                              monkeypatch):
    # --n 1 is read off one word; --n 2 needs the string count and exits 3,
    # as the module walk does
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps(INFINITE_SPEC))
    argv = ("syzygy", "--family", "file", "--spec", str(path), "e0", "--n")
    chained = [run(capsys, *argv, n) for n in ("1", "2")]
    assert [code for code, _, _ in chained] == [0, 3]
    monkeypatch.setattr(strings, "omega_string", lambda algebra, word: None)
    assert [run(capsys, *argv, n) for n in ("1", "2")] == chained


def test_syzygy_refuses_a_string_whose_module_fails_a_rule(tmp_path, capsys):
    # the word reads would answer for x2, whose module fails x1 -> x2; the
    # rules are checked on the word first, and a word that is no string
    # is refused before that
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(NON_MODULE_STRING_SPEC))
    argv = ("syzygy", "--family", "file", "--spec", str(path), "--n", "1")
    assert run(capsys, *argv, "x2") == (
        3, "", "error: rule x1 -> 1*x2 fails on this representation\n")
    assert run(capsys, *argv, "x1") == (3, "", "error: x1 is not a string over this algebra\n")


def test_strings_refuses_a_string_whose_module_fails_a_rule(tmp_path, capsys):
    # x2 is a string of the socle quotient, but M(x2) fails x1 -> x2
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(NON_MODULE_STRING_SPEC))
    assert run(capsys, "strings", "--family", "file", "--spec", str(path)) == (
        3, "", "error: rule x1 -> 1*x2 fails on this representation\n")


@pytest.mark.parametrize("family,m", [("ae1", 4), ("ae3", 3)])
def test_strings_checks_the_rules_without_a_second_string_test(capsys, monkeypatch,
                                                               family, m):
    # the enumeration grew every word as a string, so only the rules'
    # right sides are walked (ae3 has one, ab -> r^m; ae1 none)
    calls = []
    is_string = strings.is_string
    monkeypatch.setattr(strings, "is_string",
                        lambda *args: calls.append(args) or is_string(*args))
    code, out, _ = run(capsys, "strings", "--family", family, "--m", str(m))
    assert code == 0 and out and not calls


def test_syzygy_names_by_isomorphism_when_no_word_is_read(capsys, monkeypatch):
    argv = ("syzygy", "--family", "ae3", "--m", "4", "U1", "--n", "3", "--format", "json")
    want = run(capsys, *argv)
    monkeypatch.setattr(strings, "omega_string", lambda algebra, word: None)
    monkeypatch.setattr(strings, "module_word", lambda rep: None)
    assert run(capsys, *argv) == want and want[0] == 0


def test_verify_checks_the_counted_tangents_against_the_linear_route(capsys, monkeypatch):
    # a counted Ext^1(V1, V1) one too high is caught by ext1_dim under
    # --verify; V1 = r,r is no syzygy of itself, so its stable End is kept.
    # classify counts V1's orbit {U0, X3, V1, Y3} once, on U0 = e1, so the
    # fault goes on that count
    counted = deformation._counted_stable_hom

    def off_by_one(algebra, S, T, omega_T):
        return counted(algebra, S, T, omega_T) + (S != T and T.literal() == "e1")

    monkeypatch.setattr(deformation, "_counted_stable_hom", off_by_one)
    code, _, err = run(capsys, "classify", "--family", "ae3", "--m", "3", "--verify")
    assert code == 4
    assert "V1: counted stable End and Ext^1 (1, 1) != linear (1, 0)" in err.splitlines()


def test_verify_names_each_node_the_translate_does_not_square_to(capsys, monkeypatch):
    # a translate that shifts every node to the next has no fixed point and
    # moves each node two steps under its square, so every node is named once
    build = arquiver.build_ar_quiver

    def shifted(algebra):
        q = build(algebra)
        n = q.node_count
        return dataclasses.replace(q, tau=tuple((i + 1) % n for i in range(n)))

    monkeypatch.setattr(arquiver, "build_ar_quiver", shifted)
    code, _, err = run(capsys, "strings", "--family", "ae2", "--m", "2", "--verify")
    assert code == 4
    nodes = shifted(quiver_core.build_family("ae2", 2)).nodes
    assert err.splitlines() == [f"translate is not an involution at {w}" for w in nodes]


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("STRCAT_SEED", "17")
    code, out, _ = run(capsys, "classify", "--family", "ae1", "--m", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["module"] == "V0"


def test_non_self_injective_spec_exits_3(tmp_path, capsys):
    # the path algebra 0 -> 1 -> 2: Omega(S0) is projective, so the syzygy
    # of a string module need not be a node
    spec = {
        "vertices": [0, 1, 2],
        "arrows": [{"name": "a", "from": 0, "to": 1},
                   {"name": "b", "from": 1, "to": 2}],
        "rules": [],
        "dim_bound": 8,
    }
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "arquiver", "--family", "file", "--spec", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: no node matches") and len(err.splitlines()) == 1


# k[x]/(x^2) x k, which is symmetric
KX2_K_SPEC = {"vertices": [0, 1], "arrows": [{"name": "x", "from": 0, "to": 0}],
              "rules": [{"lhs": ["x", "x"], "rhs": None}], "dim_bound": 3}


def test_arquiver_names_the_projective_string_whose_syzygy_is_zero(tmp_path, capsys):
    # k[x]/(x^2) x k is symmetric, but its string e1 is S(1) = P(1): the
    # syzygy is zero, and the stable AR quiver has no node for it
    path = tmp_path / "kx2-k.json"
    path.write_text(json.dumps(KX2_K_SPEC))
    code, out, err = run(capsys, "arquiver", "--family", "file", "--spec", str(path))
    assert code == 3 and out == ""
    assert err == ("error: e1 is projective: its syzygy is zero, so the stable AR quiver "
                   "has no node for it\n")


def test_arquiver_on_an_algebra_that_is_not_self_injective(tmp_path, capsys):
    # out of the branch table's scope Omega(e1) = rad P(1) is built as a
    # module; it is P(0), which spells no string and matches no node
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(NOT_SELF_INJECTIVE_SPEC))
    assert run(capsys, "arquiver", "--family", "file", "--spec", str(path)) == (
        3, "", "error: no node matches a module of dimension vector (2, 0)\n")


def count_syzygies(monkeypatch) -> list:
    """The modules that ``homology.syzygy`` is called on from now on."""
    calls = []
    syzygy = homology.syzygy

    def counted(M):
        calls.append(M)
        return syzygy(M)

    monkeypatch.setattr(homology, "syzygy", counted)
    return calls


@pytest.mark.parametrize("big", [10**9, 10**9 + 3])
@pytest.mark.parametrize("family,m,name,period", [
    ("ae1", 5, "V2", 1), ("ae1", 5, "V1", 2), ("ae2", 3, "M1", 4), ("ae3", 3, "X1", 4)])
def test_syzygy_of_a_large_power_reduces_n_mod_the_period(capsys, monkeypatch, family,
                                                          m, name, period, big):
    # Omega^k M = M at the period k, so Omega^big M is Omega^(big mod k) M,
    # found after k word reads and no module syzygy
    small = big % period or period
    code, out, _ = run(capsys, "syzygy", "--family", family, "--m", str(m), name,
                       "--n", str(small), "--format", "json")
    want = json.loads(out)
    assert code == 0 and want["n"] == small
    calls = count_syzygies(monkeypatch)
    reads = []
    omega_string = strings.omega_string
    monkeypatch.setattr(strings, "omega_string",
                        lambda algebra, word: reads.append(word) or omega_string(algebra, word))
    code, out, _ = run(capsys, "syzygy", "--family", family, "--m", str(m), name,
                       "--n", str(big), "--format", "json")
    got = json.loads(out)
    assert code == 0 and got.pop("n") == big
    want.pop("n")
    assert got == want
    assert not calls and len(reads) == period


def spec_file(tmp_path, arrows, rules=()):
    """A spec file for these (name, source, target) arrows over vertices
    0..max, with these rules."""
    spec = {"vertices": list(range(max(max(s, t) for _, s, t in arrows) + 1)),
            "arrows": [{"name": n, "from": s, "to": t} for n, s, t in arrows],
            "rules": list(rules), "dim_bound": 8}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("n", ["2", "3", str(10**9)])
def test_syzygy_stops_at_zero(tmp_path, capsys, n):
    # over the path algebra 0 -> 1 -> 2, Omega(S0) = P(1) and Omega^2(S0) = 0
    spec = spec_file(tmp_path, [("a", 0, 1), ("b", 1, 2)])
    code, out, _ = run(capsys, "syzygy", "--family", "file", "--spec", spec, "e0",
                       "--n", n)
    assert code == 0
    assert out == f"Omega^{n}(e0) has dimension vector (0, 0, 0)\n"


def test_syzygy_walk_that_never_closes_exits_3(tmp_path, capsys, monkeypatch):
    # with a^2 = ab = 0 at the loop a: 0 -> 0 and b: 0 -> 1, Omega(S0) is
    # S0 + S1 and so is every later syzygy: never zero, never S0 again
    spec = spec_file(tmp_path, [("a", 0, 0), ("b", 0, 1)],
                     rules=[{"lhs": ["a", "a"], "rhs": None},
                            {"lhs": ["a", "b"], "rhs": None}])
    calls = count_syzygies(monkeypatch)
    code, out, err = run(capsys, "syzygy", "--family", "file", "--spec", spec, "e0",
                         "--n", str(10**9))
    assert code == 3 and out == ""
    assert "not self-injective" in err and len(err.splitlines()) == 1
    assert 1 <= len(calls) <= 2  # the spec has two strings, e0 and e1


def test_ext_on_a_spec_that_is_not_self_injective(tmp_path, capsys):
    # over the path algebra 0 -> 1, 0 -> S1 -> P(0) -> S0 -> 0 does not split
    spec = {
        "vertices": [0, 1],
        "arrows": [{"name": "a", "from": 0, "to": 1}],
        "rules": [],
        "dim_bound": 3,
    }
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "ext", "--family", "file", "--spec", str(path), "e0", "e1")
    assert code == 0
    assert out == "dim Ext1(e0, e1) = 1\n"


def test_verify_reuses_the_commands_work(capsys, monkeypatch):
    # the command's AR quiver and classification sit in the algebra's
    # memo, so --verify reads each node's syzygy off its word only once
    from strcat import arquiver, strings

    calls = {"omega_string": 0, "match_node": 0, "class_moves": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(strings, "omega_string")
    counted(arquiver, "match_node")
    counted(strings, "class_moves")
    nodes = families.get("ae3").node_count(3)
    for command in ("arquiver", "classify"):
        calls.update(omega_string=0, match_node=0, class_moves=0)
        code, _, err = run(capsys, command, "--family", "ae3", "--m", "3", "--verify")
        assert code == 0 and not err
        assert calls == {"omega_string": nodes, "match_node": 0, "class_moves": nodes}, command


def test_arquiver_refuses_a_string_whose_module_fails_a_rule(tmp_path, capsys):
    # M(x2) fails a rule; every node is checked before any Omega is read,
    # so arquiver names the rule, as strings does
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(NON_MODULE_STRING_SPEC))
    for command in ("arquiver", "strings"):
        code, out, err = run(capsys, command, "--family", "file", "--spec", str(path))
        assert (code, out) == (3, ""), command
        assert err == "error: rule x1 -> 1*x2 fails on this representation\n", command


def test_main_builds_its_parser_once(capsys, monkeypatch):
    calls = []
    add_common = cli._add_common
    monkeypatch.setattr(cli, "_add_common",
                        lambda parser: calls.append(parser) or add_common(parser))
    cli.build_parser.cache_clear()
    for _ in range(2):
        code, out, _ = run(capsys, "hom", "--family", "ae1", "--m", "2", "V0", "V1")
        assert code == 0 and "dim Hom(V0, V1)" in out
    assert len(calls) == 7  # one per subcommand


def test_strcat_seed_in_the_environment_changes_nothing(capsys, monkeypatch):
    argv = ["classify", "--family", "ae1", "--m", "2", "--format", "json"]
    monkeypatch.delenv("STRCAT_SEED", raising=False)
    want = run(capsys, *argv)
    assert want[0] == 0 and json.loads(want[1])[0]["module"] == "V0"
    for seed in ("abc", "-5", "17"):
        monkeypatch.setenv("STRCAT_SEED", seed)
        assert run(capsys, *argv) == want, seed


@pytest.mark.parametrize("argv", [
    ["--family", "file", "--spec", "{spec}", "--prime", "3"],
    ["--family", "file", "--spec", "{spec}", "--m", "7"],
    ["--family", "file", "--spec", "{spec}", "--prime", "3", "--m", "7"],
    ["--family", "file", "--spec", "{spec}", "--prime", "32003"],
    ["--family", "ae1", "--m", "2", "--spec", "{spec}"],
    ["--family", "ae3", "--m", "3", "--prime", "3", "--spec", "{spec}"],
])
def test_flags_the_algebra_ignores_exit_2_before_any_build(tmp_path, capsys,
                                                           monkeypatch, argv):
    # a spec fixes its algebra and prime, and a built-in family has no spec
    def never_built(*args, **kwargs):
        raise AssertionError("an algebra was built")

    path = tmp_path / "alg.json"
    path.write_text(json.dumps(LOOP_SPEC))
    monkeypatch.setattr(cli, "load_algebra_spec", never_built)
    monkeypatch.setattr(cli, "build_family", never_built)
    with pytest.raises(SystemExit) as exc:
        cli.main(["algebra", "info", *[a.format(spec=path) for a in argv],
                  "--format", "json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1


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


def test_strings_reads_dimension_vectors_off_the_words(capsys, monkeypatch):
    from strcat import strings

    calls = []
    monkeypatch.setattr(strings, "string_module", lambda *args: calls.append(args))
    rows = cli_json(capsys, "strings", "--family", "ae1", "--m", "96")
    assert len(rows) == 96 and rows[-1]["dim_vector"] == "(96)"
    assert calls == []


def test_every_printed_literal_reads_back(tmp_path, capsys):
    # one-letter strings over arrows named x0..x6 print without a comma
    from .test_arquiver import nakayama_spec

    path = tmp_path / "nakayama.json"
    path.write_text(json.dumps(nakayama_spec()))
    spec = ["--family", "file", "--spec", str(path)]
    literals = [row["string"] for row in cli_json(capsys, "strings", *spec)]
    assert "x0" in literals and len(literals) == 14
    for literal in literals:
        got = cli_json(capsys, "hom", *spec, "--string", literal, literal)
        assert got["dim"] >= 1, literal


def relabel(rows, names):
    """Rows of labels with each series name replaced by its literal, sorted."""
    return sorted([names.get(x, x) for x in row] for row in rows)


FAMILY_SPEC_CASES = [(fam.name, m, p) for fam in families.FAMILIES.values()
                     for m in range(fam.m_min, 5) for p in (2, 3, 32003)]


@pytest.mark.parametrize("family,m,p", FAMILY_SPEC_CASES)
def test_family_spec_through_the_file_path_matches_the_family(tmp_path, capsys,
                                                              family, m, p):
    # the family's spec, written to a file with its prime and dimension,
    # gives the family's answers: the same algebra, strings, AR quiver,
    # Hom, Ext and syzygies, apart from names and the family and m fields
    fam = families.get(family)
    path = tmp_path / "family.json"
    path.write_text(json.dumps({**fam.spec(m), "prime": p, "dim_bound": fam.dim(m)}))
    builtin = ["--family", family, "--m", str(m), "--prime", str(p)]
    spec = ["--family", "file", "--spec", str(path)]

    def both(*command):
        return [cli_json(capsys, *command, *flags) for flags in (builtin, spec)]

    info, spec_info = both("algebra", "info")
    assert (info.pop("family"), info.pop("m")) == (family, m)
    assert (spec_info.pop("family"), spec_info.pop("m")) == ("file", None)
    assert info == spec_info

    rows, spec_rows = both("strings")
    names = {row.pop("name"): row["string"] for row in rows}
    assert [row.pop("name") for row in spec_rows] == [None] * len(rows)
    assert rows == spec_rows

    quiver, spec_quiver = both("arquiver")
    for key in ("arrows", "tau"):
        assert relabel(quiver[key], names) == spec_quiver[key]
    assert sorted(names[x] for x in quiver["nodes"]) == spec_quiver["nodes"]

    # the shortest, a middle and the longest string, each with itself and
    # the next (Omega^2 is the translate, compared above)
    literals = [rows[k]["string"] for k in (0, len(rows) // 2, -1)]
    for i, source in enumerate(literals):
        for target in (source, literals[(i + 1) % 3]):
            for command in ("hom", "ext"):
                got, want = both(command, "--string", source, target)
                assert got == want, (command, source, target)
        got, want = both("syzygy", "--string", source)
        got["isomorphic_to"] = names.get(got["isomorphic_to"], got["isomorphic_to"])
        assert got == want, source
