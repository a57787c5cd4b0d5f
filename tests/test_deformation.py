import itertools
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from strcat import (
    ModuleMap,
    StrcatError,
    Tower,
    build_family,
    build_tower,
    canonical,
    check_tower,
    classify,
    enumerate_strings,
    ext1_dim,
    hom_basis,
    hom_dim,
    image_of,
    indecomposable_projective,
    is_isomorphic,
    kernel_of,
    named_string,
    stable_hom_dim,
    string_module,
)
from hypothesis import given

import strcat
from strcat import (
    RepresentationInfinite,
    arquiver,
    cli,
    deformation,
    families,
    homology,
    linalg,
    load_algebra_spec,
    syzygy,
)
from strcat.deformation import (
    _counted_stable_hom,
    expected_classification,
    power_series_quotient,
    trivial_ring,
    verify_classification,
    weakly_symmetric,
)
from strcat.families import get as get_family
from strcat.homology import identity_map
from strcat.quiver_core import DEFAULT_PRIME
from strcat.strings import check_string_module, family_node_names, parse_string_literal

from .builders import INFINITE_SPEC, ae1, ae2, ae3, brauer_line_spec
from .oracles import ORACLE_CASES
from .reference import filtered_full_cuts, flat_map, socle_dims, windowed_canonical_homs
from .test_quiver_core import built_or_skipped, small_specs


class NoSequenceFound(StrcatError):
    """The automatic tower search exhausted its candidates."""


def stable_endo_field_modules(algebra):
    """Strings whose stable endomorphism ring is one dimensional."""
    out = []
    for w in enumerate_strings(algebra):
        rep = string_module(algebra, w)
        if stable_hom_dim(rep, rep) == 1:
            out.append(w)
    return out


def _generic_map_of_rank(maps, want_rank, p, seed, tries=30):
    if not maps:
        return None
    rng = np.random.default_rng(seed)
    for f in maps:
        if f.rank() == want_rank:
            return f
    src, tgt = maps[0].source, maps[0].target
    for _ in range(tries):
        coeffs = rng.integers(0, p, size=len(maps))
        blocks = {v: sum(int(c) * f.blocks[v] for c, f in zip(coeffs, maps)) % p
                  for v in src.dims}
        cand = ModuleMap(src, tgt, blocks, check=False)
        if cand.rank() == want_rank:
            return cand
    return None


def auto_tower(algebra, base_word, seed=0):
    """A tower found by greedy search from a base string, independently of
    the family's record: each step grows by one base-dimension through a
    string (canonical inclusion/projection pair) or a projective (generic
    rank search), kept only when its twist map passes the kernel and image
    tests.  Raises NoSequenceFound when the closing conditions fail."""
    quiver = algebra.quiver
    base_word = canonical(base_word, quiver)
    base = string_module(algebra, base_word)
    step = base.total_dim
    nodes = enumerate_strings(algebra)
    string_pool = [(w.literal(), string_module(algebra, w), w) for w in nodes]
    proj_pool = [(f"P({v})", indecomposable_projective(algebra, v), None)
                 for v in quiver.vertices]
    modules = [base]
    labels = [base_word.literal()]
    words = [base_word]
    inclusions = []
    surjections = []
    while True:
        current = modules[-1]
        l = len(modules)
        found = None
        for label, cand, word in string_pool + proj_pool:
            if cand.total_dim != current.total_dim + step:
                continue
            prev_word = words[-1]
            if word is not None and prev_word is not None:
                try:
                    inc = homology.realize_canonical(
                        homology.full_cut(algebra, prev_word, word, injective=True))
                    sur = homology.realize_canonical(
                        homology.full_cut(algebra, word, prev_word, injective=False))
                except StrcatError:
                    continue
            else:
                p = algebra.p
                inc = _generic_map_of_rank(hom_basis(current, cand),
                                           current.total_dim, p, seed + 7 * l)
                sur = _generic_map_of_rank(hom_basis(cand, current),
                                           current.total_dim, p, seed + 7 * l + 3)
                if inc is None or sur is None:
                    continue
            twist = sur.then(inc)
            if not is_isomorphic(kernel_of(twist), base):
                continue
            if not is_isomorphic(image_of(twist.power(l)), base):
                continue
            found = (label, cand, word, inc, sur)
            break
        if found is None:
            break
        label, cand, word, inc, sur = found
        modules.append(cand)
        labels.append(label)
        words.append(word)
        inclusions.append(inc)
        surjections.append(sur)
    tower = Tower(modules, inclusions, surjections, labels)
    if hom_dim(modules[-1], base) != 1 or ext1_dim(modules[-1], base) != 0:
        raise NoSequenceFound(
            "greedy search stalled before the closing Hom/Ext conditions held")
    return tower


def names_of(algebra, family, m, words):
    table = {w: n for n, w in family_node_names(family, m, algebra.quiver)}
    return {table[w] for w in words}


def test_power_series_quotient_normalization():
    assert power_series_quotient(1) == trivial_ring()
    assert power_series_quotient(3).exponent == 3


@pytest.mark.parametrize("m", [2, 4])
def test_stable_endo_field_modules_ae1(m):
    A = ae1(m)
    assert names_of(A, "ae1", m, stable_endo_field_modules(A)) == \
        {"V0", f"V{m - 1}"}


@pytest.mark.parametrize("m", [2, 3])
def test_stable_endo_field_modules_ae2(m):
    A = ae2(m)
    want = {f"{s}{j}" for s in "MN" for j in (0, 1, 2 * m - 2, 2 * m - 1)}
    assert names_of(A, "ae2", m, stable_endo_field_modules(A)) == want


@pytest.mark.parametrize("m", [2, 3])
def test_stable_endo_field_modules_ae3(m):
    A = ae3(m)
    want = {"U0", "V1", f"X{m}", f"Y{m}", f"U{m - 1}", f"V{m}", "X1", "Y1"}
    assert names_of(A, "ae3", m, stable_endo_field_modules(A)) == want


def test_tangent_dims_on_ae2():
    m = 3
    A = ae2(m)
    S0 = string_module(A, named_string("ae2", m, "M0"))
    M1 = string_module(A, named_string("ae2", m, "M1"))
    # the tangent space of a module is its self-extensions
    assert ext1_dim(S0, S0) == 0
    assert ext1_dim(M1, M1) == 1


@pytest.mark.parametrize("m", [1, 2, 4])
def test_tower_certifies_the_loop_family(m):
    A = ae1(m)
    tower = build_tower("ae1", m, algebra=A)
    assert tower.labels[-1] == "P(0)"
    assert [M.total_dim for M in tower.modules] == list(range(1, m + 2))
    V0 = string_module(A, named_string("ae1", m, "V0"))
    assert check_tower(tower, V0) == power_series_quotient(m + 1)


@pytest.mark.parametrize("m", [2, 3])
def test_tower_certifies_the_alternating_family(m):
    A = ae2(m)
    tower = build_tower("ae2", m, algebra=A)
    assert tower.labels == [f"M{2 * l + 1}" for l in range(m)]
    M1 = string_module(A, named_string("ae2", m, "M1"))
    assert check_tower(tower, M1) == power_series_quotient(m)


def test_tower_degenerate_single_step():
    A = ae2(1)
    tower = build_tower("ae2", 1, algebra=A)
    assert tower.steps == 0
    M1 = string_module(A, named_string("ae2", 1, "M1"))
    assert check_tower(tower, M1) == trivial_ring()


@pytest.mark.parametrize("m", [2, 3])
def test_tower_certifies_the_loop_cycle_family(m):
    A = ae3(m)
    tower = build_tower("ae3", m, algebra=A)
    assert tower.labels == [f"V{m - l}" for l in range(m)]
    S0 = string_module(A, named_string("ae3", m, f"V{m}"))
    assert check_tower(tower, S0) == power_series_quotient(m)


@pytest.mark.parametrize("family,m", [("ae1", 24), ("ae2", 12), ("ae3", 16)])
def test_tower_realizes_only_the_inclusion_and_projection_of_each_step(family, m,
                                                                      monkeypatch):
    calls = []
    realize = homology.realize_canonical

    def counted(ch):
        calls.append(ch)
        return realize(ch)

    monkeypatch.setattr(homology, "realize_canonical", counted)
    tower = build_tower(family, m, build_family(family, m))
    steps = len(families.get(family).tower(m)) - 1
    assert steps == tower.steps - (family == "ae1")  # ae1 closes on P(0)
    assert len(calls) == 2 * steps


@pytest.mark.parametrize("family,m", [("ae1", 8), ("ae2", 4), ("ae3", 6)])
def test_power_equals_repeated_composition_on_the_tower_twists(family, m):
    tower = build_tower(family, m, build_family(family, m))
    for inc, sur in zip(tower.inclusions, tower.surjections):
        twist = sur.then(inc)
        repeated = identity_map(twist.source)
        for n in range(10):
            got = twist.power(n)
            assert (got.source, got.target) == (twist.source, twist.target)
            assert np.array_equal(flat_map(got), flat_map(repeated)), n
            repeated = repeated.then(twist)


def test_check_tower_composes_logarithmically_many_maps_per_step(monkeypatch):
    # the twist of step l, then its l-th power by squaring: at most
    # floor(log2 l) squarings and floor(log2 l) + 1 products; composing
    # one at a time made 2,144 calls here
    m = 64
    A = build_family("ae1", m)
    tower = build_tower("ae1", m, A)
    base = string_module(A, named_string("ae1", m, "V0"))
    calls = []
    then = ModuleMap.then
    monkeypatch.setattr(ModuleMap, "then", lambda f, g: calls.append(f) or then(f, g))
    assert check_tower(tower, base) == power_series_quotient(m + 1)
    steps = range(1, tower.steps + 1)
    assert len(calls) <= sum(2 * (l.bit_length() - 1) + 2 for l in steps) < 2144


@pytest.mark.parametrize("family", ["ae1", "ae3"])
def test_classify_writes_dense_matrices_of_no_tower_module_but_the_base_and_cap(family):
    # string modules and projectives keep their index maps and write dense
    # matrices only when read: the closing Hom and Ext^1 read the base, and
    # the covers read ae1's projective cap P(0); no other tower module
    m = 16
    A = build_family(family, m)
    assert not verify_classification(classify(A, family, m), family, m)
    tower = build_tower(family, m, A)  # the modules classify built, from the memo
    cap = get_family(family).projective_cap is not None
    assert (tower.labels[-1] == "P(0)") == cap
    assert ["mats" in vars(M) for M in tower.modules] == (
        [True] + [False] * (len(tower.modules) - 2) + [cap])
    built = [M for key, M in A.memo.items()
             if key[0] in ("string_module", "indecomposable_projective")]
    assert {id(M) for M in tower.modules} <= {id(M) for M in built}
    for M in built:
        for cols, vals in M._row_maps().values():
            assert not cols.flags.writeable and not vals.flags.writeable


def test_check_tower_multiplies_and_eliminates_nothing_before_its_last_hom(monkeypatch):
    # every tower map is an index map, so rank, composites, powers,
    # kernels and images take no dense product or elimination; only the
    # closing hom_dim and ext1_dim solve linear systems
    m = 64
    A = build_family("ae1", m)
    tower = build_tower("ae1", m, A)
    base = string_module(A, named_string("ae1", m, "V0"))
    calls = []
    for name in ("mat_mul", "rref"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    real_hom_dim = homology.hom_dim
    monkeypatch.setattr(homology, "hom_dim",
                        lambda M, N: calls.append("hom_dim") or real_hom_dim(M, N))
    assert check_tower(tower, base) == power_series_quotient(m + 1)
    assert "hom_dim" in calls
    assert calls[: calls.index("hom_dim")] == []


def check_full_cut(A, source, target, injective):
    """``homology.full_cut`` returns the one full-length cut that the
    windowed oracle lists, or names how many it lists; that count is
    returned."""
    want = filtered_full_cuts(A, source, target, injective)
    if len(want) == 1:
        assert homology.full_cut(A, source, target, injective) == want[0], (source, target)
    else:
        kind = "inclusion" if injective else "projection"
        with pytest.raises(StrcatError, match=f"^expected one canonical {kind} "
                                              f".* found {len(want)}$"):
            homology.full_cut(A, source, target, injective)
    return len(want)


@pytest.mark.parametrize("family", ["ae1", "ae2", "ae3"])
def test_full_cuts_equal_the_filtered_canonical_homs(family):
    # every consecutive pair of the tower, both ways, against every
    # window of both words listed and kept when its cut has the full length
    for m in range(get_family(family).m_min, 17):
        A = build_family(family, m)
        words = [named_string(family, m, n) for n in families.get(family).tower(m)]
        for small, big in zip(words, words[1:]):
            for source, target, injective in ((small, big, True), (big, small, False)):
                assert check_full_cut(A, source, target, injective) == 1, (m, source, target)


def band_strings(length):
    """The algebra of ``INFINITE_SPEC``, which has infinitely many strings,
    and its strings of length at most ``length`` whose walks are modules."""
    A = load_algebra_spec(INFINITE_SPEC)
    words = [parse_string_literal("e0", A.quiver)]
    for n in range(1, length + 1):
        for letters in itertools.product(("x", "x~", "y", "y~"), repeat=n):
            try:
                word = parse_string_literal(",".join(letters), A.quiver)
                check_string_module(A, word)
            except StrcatError:
                continue
            words.append(word)
    return A, words


def test_full_cuts_match_the_filter_on_every_pair_of_strings():
    # the source is read as given, so S and its inverse are both taken; the
    # families give no pair with two full cuts, and the band algebra does
    counts = Counter()
    cases = [(A, enumerate_strings(A)) for A in (ae1(8), ae2(5), ae3(6))] + [band_strings(4)]
    for A, words in cases:
        for S in words:
            for source in {S, S.inverse()}:
                for T in words:
                    for injective in (True, False):
                        counts[check_full_cut(A, source, T, injective)] += 1
    assert max(counts) >= 2, counts


def test_canonical_map_needs_exactly_one_full_cut():
    # a longer string has no window in a shorter one
    A = ae2(2)
    with pytest.raises(StrcatError, match="^expected one canonical inclusion .* found 0$"):
        homology.full_cut(A, named_string("ae2", 2, "M3"), named_string("ae2", 2, "M1"),
                          injective=True)


def test_power_needs_an_endomorphism():
    inc = build_tower("ae1", 3, ae1(3)).inclusions[0]
    for n in (0, 2):
        with pytest.raises(StrcatError, match="powers need an endomorphism"):
            inc.power(n)


def check_classification_sweep(top):
    for family in ("ae1", "ae2", "ae3"):
        for m in range(get_family(family).m_min, top + 1):
            reports = classify(build_family(family, m), family, m)
            assert not verify_classification(reports, family, m), (family, m)


def test_classify_equals_the_closed_form_table_for_every_m_to_16():
    check_classification_sweep(16)


@pytest.mark.slow
def test_classify_equals_the_closed_form_table_for_every_m_to_64():
    check_classification_sweep(64)


@pytest.mark.slow
@pytest.mark.parametrize("family", ["ae1", "ae2", "ae3"])
def test_classify_equals_the_closed_form_table_at_the_largest_m(family):
    m = get_family(family).m_max
    assert not verify_classification(classify(build_family(family, m), family, m), family, m)


@pytest.mark.slow
def test_classify_at_ae3_m_509_peaks_under_160_mb():
    # string modules keep their index maps and write no dense matrix for the
    # tower unless read; with a dense int64 matrix per arrow, the tower's 509
    # modules took this run to 839 MB, and with a fresh Letter for every
    # letter of every word and tuple sort keys, to 185 MB.  On Linux a
    # child's ru_maxrss starts at its parent's resident size, here pytest's,
    # so a small launcher runs classify and reads its child's peak;
    # ru_maxrss is in KB on Linux.
    src = os.path.dirname(os.path.dirname(strcat.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    launch = ("import resource, subprocess, sys\n"
              "subprocess.run([sys.executable, '-m', 'strcat.cli', 'classify', '--family', "
              "'ae3', '--m', '509'], check=True, stdout=subprocess.DEVNULL)\n"
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    run = subprocess.run([sys.executable, "-c", launch], env=env, capture_output=True,
                         text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 160 * 1024


def check_orbit_counts_sweep(top, monkeypatch):
    # classify counts stable End and the tangent once per Omega-orbit, and
    # keeps what counting them on every node keeps, with the same tangents
    calls = []
    monkeypatch.setattr(deformation, "_counted_stable_hom",
                        lambda *args: calls.append(args) or _counted_stable_hom(*args))
    for family in ("ae1", "ae2", "ae3"):
        for m in range(get_family(family).m_min, top + 1):
            A = build_family(family, m)
            nodes = enumerate_strings(A)
            omega = {w: nodes[arquiver.omega_node(A, i)] for i, w in enumerate(nodes)}
            want = {name: _counted_stable_hom(A, omega[w], w, omega[w])
                    for name, w in family_node_names(family, m, A.quiver)
                    if _counted_stable_hom(A, w, w, omega[w]) == 1}
            calls.clear()
            assert {r.module: r.ext1_dim for r in classify(A, family, m)} == want, (family, m)
            orbits = {frozenset(arquiver.omega_orbit(A, w)) for w in nodes}
            assert len(calls) <= 2 * len(orbits), (family, m)


def test_orbit_counts_equal_the_node_counts_for_every_m_to_16(monkeypatch):
    check_orbit_counts_sweep(16, monkeypatch)


@pytest.mark.slow
def test_orbit_counts_equal_the_node_counts_for_every_m_to_64(monkeypatch):
    check_orbit_counts_sweep(64, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("family,m", [("ae1", 64), ("ae2", 32), ("ae3", 32),
                                      ("ae1", 128), ("ae2", 128), ("ae3", 96)])
def test_canonical_homs_equal_the_windowed_pairing_on_the_pairs_classify_counts(family, m):
    A = build_family(family, m)
    nodes = enumerate_strings(A)
    for i, w in enumerate(nodes):
        omega = nodes[arquiver.omega_node(A, i)]
        for S, T in ((w, w), (w, omega), (omega, w), (omega, omega)):
            assert (homology.canonical_homs(A, S, T)
                    == windowed_canonical_homs(A, S, T)), (str(S), str(T))


def test_classify_reads_each_word_into_its_cut_table_once(monkeypatch):
    # a table is built inside the memoised _word_cuts, so a word that
    # classify counts maps through many times is still read only once
    built = []
    real = homology._WordCuts

    def counted(*fields):
        table = real(*fields)
        letters, _, empty, _ = table.quotient
        # the letters name a word, and the vertex of its empty window a trivial one
        built.append((letters, tuple(empty)))
        return table

    monkeypatch.setattr(homology, "_WordCuts", counted)
    classify(ae2(16), "ae2", 16)
    assert built and len(built) == len(set(built))


def test_check_tower_rejects_wrong_base():
    A = ae1(3)
    tower = build_tower("ae1", 3, algebra=A)
    wrong = string_module(A, named_string("ae1", 3, "V1"))
    out = check_tower(tower, wrong)
    assert out.kind == "unresolved" and "base" in out.reason


def test_check_tower_flags_broken_steps():
    A = ae1(2)
    tower = build_tower("ae1", 2, algebra=A)
    V0 = string_module(A, named_string("ae1", 2, "V0"))
    broken = Tower(tower.modules, tower.inclusions,
                   list(reversed(tower.surjections)), tower.labels)
    out = check_tower(broken, V0)
    assert out.kind == "unresolved"


@pytest.mark.parametrize("family,m", [("ae1", 3), ("ae2", 2), ("ae3", 3)])
def test_auto_tower_matches_the_explicit_descriptor(family, m):
    A = build_family(family, m)
    start = {"ae1": "V0", "ae2": "M1", "ae3": f"V{m}"}[family]
    base = string_module(A, named_string(family, m, start))
    explicit = check_tower(build_tower(family, m, algebra=A), base)
    auto = check_tower(auto_tower(A, named_string(family, m, start)), base)
    assert auto == explicit


def test_classify_ae2_three():
    A = ae2(3)
    reports = classify(A, "ae2", 3)
    assert not verify_classification(reports, "ae2", 3)
    by_name = {r.module: r for r in reports}
    assert by_name["M0"].udr == trivial_ring()
    assert by_name["N5"].udr == trivial_ring()
    assert by_name["M1"].udr == power_series_quotient(3)
    assert by_name["N4"].udr == power_series_quotient(3)
    assert any("symmetrically" in line for line in by_name["N4"].trail)
    assert any("transported" in line for line in by_name["N4"].trail)


def test_classify_ae3_two():
    A = ae3(2)
    reports = classify(A, "ae3", 2)
    assert not verify_classification(reports, "ae3", 2)
    got = {r.module: str(r.udr) for r in reports}
    assert got == {"U0": "k", "V1": "k", "X2": "k", "Y2": "k",
                   "U1": "k[[x]]/(x^2)", "V2": "k[[x]]/(x^2)",
                   "X1": "k[[x]]/(x^2)", "Y1": "k[[x]]/(x^2)"}


def test_classify_ae1_one():
    A = ae1(1)
    reports = classify(A, "ae1", 1)
    assert len(reports) == 1
    r = reports[0]
    assert r.module == "V0" and r.ext1_dim == 1
    assert r.udr == power_series_quotient(2)


def test_classify_ae2_one_reports_the_overlap():
    A = ae2(1)
    reports = classify(A, "ae2", 1)
    assert not verify_classification(reports, "ae2", 1)
    assert len(reports) == 4
    for r in reports:
        assert r.ext1_dim == 0 and r.udr == trivial_ring()
        assert any("overlap" in line for line in r.trail)


def test_reports_serialize_per_schema(capsys):
    assert cli.main(["classify", "--family", "ae3", "--m", "2",
                     "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == len(classify(ae3(2), "ae3", 2))
    for item in payload:
        assert set(item) == {"module", "string", "stable_endo_dim",
                             "ext1_dim", "udr", "trail"}
        assert item["stable_endo_dim"] == 1
        if item["udr"]["kind"] == "power_series_quotient":
            assert item["udr"]["exponent"] >= 2
        else:
            assert item["udr"] == {"kind": "k"}


def test_expected_table_covers_all_families():
    assert set(expected_classification("ae1", 1)) == {"V0"}
    assert set(expected_classification("ae2", 2)) == \
        {f"{s}{j}" for s in "MN" for j in range(4)}
    assert len(expected_classification("ae3", 5)) == 8


@pytest.mark.parametrize("p", [2, 5, 101])
def test_classification_is_characteristic_independent(p):
    # every dimension here is an integer count of combinatorial data
    A = ae3(2, p=p)
    reports = classify(A, "ae3", 2)
    assert not verify_classification(reports, "ae3", 2)


def counted_algebras():
    """The oracle algebras at p in {2, 3, 32003}, and the Brauer lines
    with e = 2, 3."""
    out = [(f"{family}-{m}-{p}", lambda family=family, m=m, p=p: build_family(family, m, p))
           for family, m in ORACLE_CASES for p in (2, 3, DEFAULT_PRIME)]
    return out + [(f"brauer-{e}", lambda e=e: load_algebra_spec(brauer_line_spec(e)))
                  for e in (2, 3)]


@pytest.mark.parametrize("build", [b for _, b in counted_algebras()],
                         ids=[name for name, _ in counted_algebras()])
def test_counted_stable_hom_and_ext_equal_the_linear_route(build):
    # on every ordered pair of strings: stHom(S, T) counted equals
    # stable_hom_dim, and stHom(Omega S, T) counted equals ext1_dim
    A = build()
    assert weakly_symmetric(A)
    assert_counts_equal_the_linear_route(A)


@pytest.mark.parametrize("build", [
    *(lambda family=family, m=m: build_family(family, m)
      for family in ("ae1", "ae2", "ae3") for m in range(get_family(family).m_min, 9)),
    *(lambda e=e: load_algebra_spec(brauer_line_spec(e)) for e in (2, 3, 5, 8))])
def test_weak_symmetry_certificate_accepts_the_symmetric_algebras(build):
    assert weakly_symmetric(build()) is True


@pytest.mark.parametrize("family,m", [(family, m) for family in ("ae1", "ae2", "ae3")
                                      for m in range(get_family(family).m_min, 9)])
def test_classify_counts_with_no_presentation_or_syzygy(family, m, monkeypatch):
    # Omega and the tops of the nodes are read off their words; only the
    # tower check solves Hom and Ext^1 systems, on presentations of its
    # own modules
    in_tower = []

    def refused_outside_the_tower(original):
        def guarded(M):
            assert in_tower, "a presentation or a syzygy module was built"
            return original(M)
        return guarded

    def checked(tower, module):
        in_tower.append(tower)
        try:
            return check_tower(tower, module)
        finally:
            in_tower.pop()

    monkeypatch.setattr(deformation, "check_tower", checked)
    for name in ("presentation", "syzygy"):
        monkeypatch.setattr(homology, name, refused_outside_the_tower(getattr(homology, name)))
    A = build_family(family, m)
    assert not verify_classification(classify(A, family, m), family, m)


def assert_counts_equal_the_linear_route(A):
    """On every ordered pair of strings, stHom(S, T) counted equals
    stable_hom_dim, and stHom(Omega S, T) counted equals ext1_dim."""
    nodes = enumerate_strings(A)
    omega = [nodes[arquiver.omega_node(A, i)] for i in range(len(nodes))]
    for i, S in enumerate(nodes):
        M = string_module(A, S)
        for j, T in enumerate(nodes):
            N = string_module(A, T)
            assert _counted_stable_hom(A, S, T, omega[j]) == stable_hom_dim(M, N), (S, T)
            assert _counted_stable_hom(A, omega[i], T, omega[j]) == ext1_dim(M, N), (S, T)


@given(spec=small_specs())
def test_weak_symmetry_and_the_counts_on_random_specs(spec):
    # the certificate accepts exactly when every P(v) has socle S(v), found
    # by elimination, and as many basis paths start at v as end there; then
    # the counts equal the linear route, unless some string is projective
    # (its zero syzygy names no node)
    A = built_or_skipped(spec)
    ending = [q.target for q in A.basis]
    symmetric = all(
        socle_dims(P) == {w: int(w == v) for w in A.quiver.vertices}
        and P.total_dim == ending.count(v)
        for v in A.quiver.vertices for P in [indecomposable_projective(A, v)])
    if not symmetric:
        with pytest.raises(StrcatError, match="not weakly symmetric"):
            weakly_symmetric(A)
        return
    assert weakly_symmetric(A)
    try:
        nodes = enumerate_strings(A)
    except RepresentationInfinite:
        return
    if all(not syzygy(string_module(A, w)).is_zero() for w in nodes):
        assert_counts_equal_the_linear_route(A)


def test_weak_symmetry_certificate_rejects_the_path_algebra():
    # over 0 -> 1, soc P(0) = S(1)
    A = load_algebra_spec({"vertices": [0, 1], "arrows": [{"name": "a", "from": 0, "to": 1}],
                           "rules": [], "dim_bound": 3})
    with pytest.raises(StrcatError, match=r"soc P\(0\) is not S\(0\)"):
        weakly_symmetric(A)


def test_weak_symmetry_certificate_compares_dimensions():
    # over 0 <-> 1 with aba = 0 every P(v) has socle S(v), but P(0) has
    # basis e0, a, ab while e0, b, ab, bab end at 0
    A = load_algebra_spec({"vertices": [0, 1],
                           "arrows": [{"name": "a", "from": 0, "to": 1},
                                      {"name": "b", "from": 1, "to": 0}],
                           "rules": [{"lhs": ["a", "b", "a"], "rhs": None}], "dim_bound": 7})
    with pytest.raises(StrcatError, match=r"dim P\(0\) = 3, but 4 basis paths end at 0"):
        weakly_symmetric(A)


def test_classify_needs_the_certificate(capsys, monkeypatch):
    def refuse(algebra):
        raise StrcatError("the algebra is not weakly symmetric: soc P(1) is not S(1)")

    monkeypatch.setattr(deformation, "weakly_symmetric", refuse)
    with pytest.raises(StrcatError, match=r"soc P\(1\)"):
        classify(ae2(2), "ae2", 2)
    assert cli.main(["classify", "--family", "ae2", "--m", "2"]) == 3
    assert "soc P(1) is not S(1)" in capsys.readouterr().err
