import argparse
import json
import re
from dataclasses import FrozenInstanceError

import pytest

from strcat import (
    StrcatError,
    build_ar_quiver,
    build_family,
    classify,
    empty_word,
    enumerate_strings,
    is_isomorphic,
    load_algebra_spec,
    named_string,
    omega_orbit,
    parse_string_literal,
    string_module,
)
from strcat import arquiver, cli, homology, strings
from strcat.deformation import verify_classification
from strcat.families import get as get_family
from strcat.quiver_core import DEFAULT_PRIME
from strcat.strings import family_node_names

from .builders import (
    NON_MODULE_STRING_SPEC,
    ae1,
    ae2,
    ae3,
    brauer_line_spec,
    brauer_star_spec,
)
from .reference import omega_power


def expected_edges(family, m):
    E = set()
    if family == "ae1":
        for j in range(m - 1):
            E.add((f"V{j}", f"V{j + 1}", "hook"))
            E.add((f"V{j + 1}", f"V{j}", "cohook"))
        return E
    if family == "ae2":
        for j in range(1, 2 * m):
            E.add((f"M{j - 1}", f"N{j}", "hook"))
            E.add((f"N{j - 1}", f"M{j}", "hook"))
            E.add((f"M{j}", f"M{j - 1}", "cohook"))
            E.add((f"N{j}", f"N{j - 1}", "cohook"))
        return E
    for i in range(1, m + 1):
        E.add((f"V{i}", f"Y{i}", "hook"))
        E.add((f"X{i}", f"V{i}", "cohook"))
    for i in range(2, m + 1):
        E.add((f"V{i}", f"X{i - 1}", "hook"))
        E.add((f"Y{i}", f"U{i - 1}", "hook"))
    for i in range(1, m):
        E.add((f"X{i}", f"U{i}", "hook"))
        E.add((f"Y{i}", f"V{i + 1}", "cohook"))
        E.add((f"U{i}", f"X{i + 1}", "cohook"))
        E.add((f"U{i}", f"Y{i}", "cohook"))
    E.add(("Y1", "U0", "cohook"))
    E.add(("U0", "X1", "hook"))
    return E


def expected_tau(family, m):
    if family == "ae1":
        return {f"V{j}": f"V{j}" for j in range(m)}
    if family == "ae2":
        out = {}
        for j in range(2 * m):
            out[f"M{j}"] = f"N{j}"
            out[f"N{j}"] = f"M{j}"
        return out
    out = {}
    for i in range(1, m + 1):
        out[f"V{i}"] = f"U{i - 1}"
        out[f"X{i}"] = f"Y{i}"
        out[f"Y{i}"] = f"X{i}"
    for i in range(m):
        out[f"U{i}"] = f"V{i + 1}"
    return out


def named_graph(family, m):
    A = build_family(family, m)
    q = build_ar_quiver(A)
    names = {w: n for n, w in family_node_names(family, m, A.quiver)}
    edges = {(names[q.nodes[s]], names[q.nodes[t]], kind)
             for s, t, kind in q.arrows}
    tau = {names[q.nodes[i]]: names[q.nodes[q.tau[i]]]
           for i in range(q.node_count)}
    return q, edges, tau


CASES = [("ae1", m) for m in (1, 2, 3, 5)] + \
    [("ae2", m) for m in (1, 2, 3)] + \
    [("ae3", m) for m in (2, 3, 4)]


@pytest.mark.parametrize("family,m", CASES)
def test_component_matches_the_expected_pattern(family, m):
    q, edges, tau = named_graph(family, m)
    want_nodes = m if family == "ae1" else 4 * m
    assert q.node_count == want_nodes
    assert edges == expected_edges(family, m)
    assert tau == expected_tau(family, m)


@pytest.mark.parametrize("family,m", CASES)
def test_translate_is_the_second_syzygy(family, m):
    # the direct computation: Omega^2 of each node, tested against its
    # translate, with no step through the memoized Omega map on nodes
    A = build_family(family, m)
    q = build_ar_quiver(A)
    for i, w in enumerate(q.nodes):
        translate = string_module(A, q.nodes[q.tau[i]])
        assert is_isomorphic(omega_power(string_module(A, w), 2), translate), \
            (family, m, str(w))


SMALL_PRIME_CASES = ([("ae1", m) for m in (2, 3, 5)] + [("ae2", m) for m in (2, 3)]
                     + [("ae3", m) for m in (2, 3, 5)])


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("family,m", SMALL_PRIME_CASES)
def test_small_primes_give_the_same_quiver_and_table(family, m, p):
    # the isomorphism test is exact, so the field size changes no verdict
    # even where most elements of a Hom space are not invertible
    A = build_family(family, m, p)
    q, ref = build_ar_quiver(A), build_ar_quiver(build_family(family, m))
    assert q.nodes == ref.nodes
    assert q.tau == ref.tau and q.arrows == ref.arrows
    assert verify_classification(classify(A, family, m), family, m) == []


@pytest.mark.parametrize("family,m", [("ae1", 8), ("ae2", 4), ("ae3", 8)])
def test_matching_fetches_only_candidate_modules(family, m, monkeypatch):
    # one lookup for each node's own module and one per candidate of the
    # right dimension vector (no dimension vector here has more than two
    # nodes); the dimension-vector index reads words and builds no module,
    # and a scan over every node would make about n^2 / 2
    fetched = []
    original = strings.string_module

    def counted(algebra, word):
        fetched.append(word)
        return original(algebra, word)

    monkeypatch.setattr(strings, "string_module", counted)
    A = build_family(family, m)
    n = len(build_ar_quiver(A).nodes)
    assert len(fetched) <= 3 * n, (family, m, len(fetched))


def word_read_algebras():
    """Every family with m <= 8 at p in {2, 3, 32003}, the Brauer lines
    with e in {1, 2, 3, 5}, the cyclic Nakayama algebras on 7, 3 and 5
    vertices and the Brauer stars."""
    out = [(f"{family}-{m}-{p}", lambda family=family, m=m, p=p: build_family(family, m, p))
           for family in ("ae1", "ae2", "ae3") for m in range(get_family(family).m_min, 9)
           for p in (2, 3, DEFAULT_PRIME)]
    out += [(f"brauer-{e}", lambda e=e: load_algebra_spec(brauer_line_spec(e)))
            for e in (2, 3, 1, 5)]
    out += [("nakayama", lambda: load_algebra_spec(nakayama_spec()))]
    out += [(f"nakayama-{n}", lambda n=n: load_algebra_spec(nakayama_spec(n))) for n in (3, 5)]
    return out + [(f"brauer-star-{n}-{e}",
                   lambda n=n, e=e: load_algebra_spec(brauer_star_spec(n, e)))
                  for n, e in ((3, 1), (3, 2), (2, 3), (4, 2))]


@pytest.mark.parametrize("build", [b for _, b in word_read_algebras()],
                         ids=[name for name, _ in word_read_algebras()])
def test_word_read_omega_equals_match_node(build, monkeypatch):
    # omega_node names each syzygy by the word its basis graph spells and
    # makes no isomorphism test; match_node's tests find the same node
    A = build()
    tests = []
    is_isomorphic = homology.is_isomorphic
    monkeypatch.setattr(homology, "is_isomorphic",
                        lambda M, N: tests.append(None) or is_isomorphic(M, N))
    nodes = enumerate_strings(A)
    named = [arquiver.omega_node(A, i) for i in range(len(nodes))]
    assert not tests
    for i, w in enumerate(nodes):
        assert named[i] == arquiver.match_node(A, homology.syzygy(string_module(A, w))), w
    assert tests


@pytest.mark.parametrize("family,m", [("ae1", 5), ("ae2", 3), ("ae3", 4)])
def test_omega_falls_back_to_isomorphism_tests(family, m, monkeypatch):
    # with no word read, match_node names every syzygy, to the same quiver
    want = build_ar_quiver(build_family(family, m))
    monkeypatch.setattr(strings, "syzygy_word", lambda algebra, word: None)
    monkeypatch.setattr(strings, "module_word", lambda rep: None)
    assert build_ar_quiver(build_family(family, m)) == want


@pytest.mark.parametrize("family,m", [("ae1", 5), ("ae2", 3), ("ae3", 4)])
def test_omega_falls_back_to_the_module_syzygy(family, m, monkeypatch):
    # with no word read of Omega, the syzygy module's word names the node
    want = build_ar_quiver(build_family(family, m))
    monkeypatch.setattr(strings, "syzygy_word", lambda algebra, word: None)
    assert build_ar_quiver(build_family(family, m)) == want


def guarded_algebras():
    """Every family with m <= 8 and the Brauer lines."""
    out = [(f"{family}-{m}", lambda family=family, m=m: build_family(family, m))
           for family in ("ae1", "ae2", "ae3") for m in range(get_family(family).m_min, 9)]
    return out + [(f"brauer-{e}", lambda e=e: load_algebra_spec(brauer_line_spec(e)))
                  for e in (1, 2, 3, 5)]


@pytest.mark.parametrize("build", [b for _, b in guarded_algebras()],
                         ids=[name for name, _ in guarded_algebras()])
def test_build_ar_quiver_takes_no_presentation_or_syzygy(build, monkeypatch):
    # every Omega is read off a node's word, so no cover or kernel is built
    def refused(M):
        raise AssertionError("a presentation or a syzygy module was built")

    monkeypatch.setattr(homology, "presentation", refused)
    monkeypatch.setattr(homology, "syzygy", refused)
    q = build_ar_quiver(build())
    assert len(q.tau) == q.node_count


def count_modules(monkeypatch) -> list:
    """The ``Representation``s constructed from now on."""
    built = []
    init = homology.Representation.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(homology.Representation, "__init__", counted)
    return built


def syzygy_args(module: str, n: int, family: str = "file", m=None) -> argparse.Namespace:
    """The flags ``cli.cmd_syzygy`` reads: a series name of a built-in
    family, or a raw literal with ``--family file``."""
    return argparse.Namespace(family=family, m=m, module=module, n=n, string=family == "file")


@pytest.mark.parametrize("family,m", [(family, m) for family in ("ae1", "ae2", "ae3")
                                      for m in range(get_family(family).m_min, 9)])
def test_ar_quiver_and_syzygy_command_build_no_module(family, m, monkeypatch):
    # the rules are checked on each word and every Omega is read off words,
    # so neither builds a string module, a projective or a syzygy
    A = build_family(family, m)
    built = count_modules(monkeypatch)
    build_ar_quiver(A)
    for name, _ in family_node_names(family, m, A.quiver):
        for n in range(1, 10):
            cli.cmd_syzygy(syzygy_args(name, n, family, m), A)
    assert not built


def test_omega_node_keeps_the_construction_check():
    # the word read alone would answer for x2; the rule check refuses it first
    A = load_algebra_spec(NON_MODULE_STRING_SPEC)
    word = parse_string_literal("x2", A.quiver)
    assert strings.syzygy_word(A, word) is not None
    with pytest.raises(StrcatError, match=r"^rule x1 -> 1\*x2 fails on this representation$"):
        arquiver.omega_node(A, arquiver.node_index(A)[word])


def test_shared_results_cannot_be_changed():
    # the memo hands the same objects to every caller
    A = ae3(3)
    q = build_ar_quiver(A)
    with pytest.raises(FrozenInstanceError):
        q.tau = ()
    assert all(type(x) is tuple for x in (q.nodes, q.arrows, q.tau))
    assert type(enumerate_strings(A)) is tuple
    reports = classify(A, "ae3", 3)
    assert type(reports) is tuple and type(reports[0].trail) is tuple
    with pytest.raises(FrozenInstanceError):
        reports[0].trail = ()


def test_ae1_mouth_has_a_single_incoming_arrow_kind():
    m = 5
    _, edges, _ = named_graph("ae1", m)
    incoming = {}
    for s, t, kind in edges:
        incoming.setdefault(t, set()).add(kind)
    assert incoming["V0"] == {"cohook"}
    assert incoming[f"V{m - 1}"] == {"hook"}
    for j in range(1, m - 1):
        assert incoming[f"V{j}"] == {"hook", "cohook"}


def test_omega_orbits():
    m = 4
    A = ae1(m)
    orbit = omega_orbit(A, named_string("ae1", m, "V0"))
    assert [w.literal() for w in orbit] == ["e0", "a,a,a"]
    assert len(omega_orbit(ae1(1), named_string("ae1", 1, "V0"))) == 1

    B = ae2(2)
    orbit = omega_orbit(B, named_string("ae2", 2, "M0"))
    names = {w: n for n, w in family_node_names("ae2", 2, B.quiver)}
    assert {names[w] for w in orbit} == {"M0", "N0", "M3", "N3"}

    C = ae3(3)
    orbit = omega_orbit(C, named_string("ae3", 3, "U0"))
    names = {w: n for n, w in family_node_names("ae3", 3, C.quiver)}
    assert [names[w] for w in orbit] == ["U0", "X3", "V1", "Y3"]


def nakayama_spec(n=7):
    """The cyclic Nakayama algebra on n vertices, arrows x0..x(n-1) around
    the cycle, every path of length 3 zero: self-injective, with 2n strings
    (the vertices and the arrows) in one Omega-orbit."""
    return {"vertices": list(range(n)),
            "arrows": [{"name": f"x{i}", "from": i, "to": (i + 1) % n} for i in range(n)],
            "rules": [{"lhs": [f"x{(i + k) % n}" for k in range(3)], "rhs": None}
                      for i in range(n)],
            "dim_bound": 3 * n}


def test_omega_orbit_is_bounded_by_the_node_count_not_a_constant():
    A = load_algebra_spec(nakayama_spec())
    orbit = omega_orbit(A, empty_word(0))
    assert len(orbit) == len(enumerate_strings(A)) == 14
    assert len(set(orbit)) == 14


def test_omega_orbit_that_never_closes_raises(monkeypatch):
    # Omega sends the start to node 1 and node 1 to itself, so the walk
    # never returns to the start; it stops after as many steps as nodes
    A = ae1(3)
    steps = []

    def stuck(algebra, i):
        steps.append(i)
        return 1

    monkeypatch.setattr(arquiver, "omega_node", stuck)
    with pytest.raises(StrcatError, match="did not close after 3 steps"):
        omega_orbit(A, empty_word(0))
    assert len(steps) == len(enumerate_strings(A)) == 3


def dot_of(tmp_path, capsys, *args, spec=None):
    """``arquiver --format dot`` through the command line, on a spec
    written to a file when one is given."""
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        args = ("--family", "file", "--spec", str(path))
    assert cli.main(["arquiver", *args, "--format", "dot"]) == 0
    return capsys.readouterr().out


def test_dot_output_is_deterministic_and_shaped(tmp_path, capsys):
    text = dot_of(tmp_path, capsys, "--family", "ae1", "--m", "3")
    assert text == dot_of(tmp_path, capsys, "--family", "ae1", "--m", "3")
    solid = [line for line in text.splitlines() if "label=\"h\"" in line
             or "label=\"c\"" in line]
    assert len(solid) == 4
    assert "tau" not in text  # identity translate draws no dashed arrows

    # one loop a with a^2 = 0: the one string is e0, a node with no arrows
    single = {"vertices": [0], "arrows": [{"name": "a", "from": 0, "to": 0}],
              "rules": [{"lhs": ["a", "a"], "rhs": None}], "dim_bound": 2}
    out = dot_of(tmp_path, capsys, spec=single)
    assert out.count("->") == 0 and out.count('"e0"') == 1


def test_dot_tau_edges_for_swapping_translate(tmp_path, capsys):
    text = dot_of(tmp_path, capsys, "--family", "ae2", "--m", "1")
    dashed = [line for line in text.splitlines() if "dashed" in line]
    assert len(dashed) == 4


DOT_ID = r'"((?:[^"\\]|\\.)*)"'


def test_dot_ids_escape_quotes_and_backslashes(tmp_path, capsys):
    # loops x" and y\ with cube zero, on two vertices: the strings are
    # e0, x", e1 and y\, and every quoted ID must read back to its literal
    spec = {"vertices": [0, 1],
            "arrows": [{"name": 'x"', "from": 0, "to": 0},
                       {"name": "y\\", "from": 1, "to": 1}],
            "rules": [{"lhs": ['x"'] * 3, "rhs": None},
                      {"lhs": ["y\\"] * 3, "rhs": None}],
            "dim_bound": 6}
    lines = dot_of(tmp_path, capsys, spec=spec).splitlines()

    def unescape(text):
        return re.sub(r"\\(.)", r"\1", text)

    nodes = [unescape(re.fullmatch(f"  {DOT_ID};", line).group(1))
             for line in lines if line.endswith('";')]
    assert nodes == ["e0", "e1", 'x"', "y\\"]
    edges = [re.fullmatch(f"  {DOT_ID} -> {DOT_ID} " + r"\[.*\];", line)
             for line in lines if "->" in line]
    assert edges and all(edges)
    assert {unescape(e.group(i)) for e in edges for i in (1, 2)} <= set(nodes)
