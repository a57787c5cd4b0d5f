import gc
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strcat import (
    AlgebraMismatch,
    NotAString,
    Representation,
    StrcatError,
    ZeroModule,
    build_family,
    canonical_homs,
    empty_word,
    enumerate_strings,
    ext1_dim,
    hom_basis,
    hom_dim,
    image_of,
    indecomposable_projective,
    is_isomorphic,
    kernel_of,
    named_string,
    projective_cover,
    realize_canonical,
    stable_hom_dim,
    string_module,
    syzygy,
)
from strcat import homology, indexmaps, linalg, strings
from strcat.deformation import build_tower, check_tower
from strcat.families import get as get_family
from strcat.homology import (
    ModuleMap,
    direct_sum,
    identity_map,
    presentation,
    radical_rows,
    radical_series,
)
from strcat.linalg import rank
from strcat.quiver_core import DEFAULT_PRIME, load_algebra_spec, make_path

from .builders import ae1, ae2, ae3, brauer_line_spec
from .oracles import ORACLE_CASES
from .reference import (
    composed_stable_hom_dim,
    eliminated_presentation,
    eliminated_radical_rows,
    eliminated_radical_series,
    first_failing_rule,
    flat_map,
    folded_path_matrix,
    four_orientation_canonical_homs,
    hom_basis_isomorphic,
    kronecker_hom_basis,
    omega_power,
    left_nullspace,
    solve_in_rowspace,
    solved_subrep,
    top_dims,
)
from .test_quiver_core import built_or_skipped, small_specs
from .test_strings import random_strings


def module(algebra, family, m, name):
    return string_module(algebra, named_string(family, m, name))


def test_hom_of_simples():
    A = ae2(2)
    S0 = string_module(A, empty_word(0))
    S1 = string_module(A, empty_word(1))
    assert hom_dim(S0, S0) == 1
    assert hom_dim(S0, S1) == 0


@pytest.mark.parametrize("m", [2, 4, 6])
def test_ae1_hom_dims_follow_the_overlap_formula(m):
    A = ae1(m)
    reps = [module(A, "ae1", m, f"V{j}") for j in range(m)]
    for j in range(m):
        for k in range(m):
            assert hom_dim(reps[j], reps[k]) == min(j, k) + 1


def test_hom_to_simple_with_wrong_top_vanishes():
    A = ae2(2)
    Mb = module(A, "ae2", 2, "N1")  # the one-arrow module with top S(1)
    S0 = string_module(A, empty_word(0))
    assert hom_dim(Mb, S0) == 0


def oracle_modules(family, m, p=DEFAULT_PRIME):
    """The strings, the indecomposable projectives and the strings' first
    syzygies of one algebra."""
    A = build_family(family, m, p)
    strings = [string_module(A, w) for w in enumerate_strings(A)]
    projectives = [indecomposable_projective(A, v) for v in A.quiver.vertices]
    return A, strings + projectives + [syzygy(M) for M in strings]


@pytest.mark.parametrize("family,m", ORACLE_CASES)
def test_hom_from_presentations_matches_the_kronecker_system(family, m):
    A, mods = oracle_modules(family, m)
    for M in mods:
        for N in mods:
            basis = hom_basis(M, N)
            assert len(basis) == len(kronecker_hom_basis(M, N)), (M, N)
            for f in basis:
                f.check_intertwining()
            if basis:
                flat = np.vstack([flat_map(f) for f in basis])
                assert rank(flat, A.p) == len(basis), (M, N)


@pytest.mark.parametrize("family,m,p", [(family, m, DEFAULT_PRIME) for family, m in ORACLE_CASES]
                         + [(family, m, p) for family, m in [("ae1", 3), ("ae2", 2), ("ae3", 3)]
                            for p in (2, 3)])
def test_dimensions_from_ranks_match_the_realised_maps(family, m, p):
    # hom_dim, counted from a rank, equals the number of maps in both Hom
    # bases; stable_hom_dim equals the rank left after composing each
    # lifted basis map with the cover as a module map; and on these
    # self-injective algebras Ext^1(M, N) is stable Hom(Omega M, N), a
    # different alternating sum of Hom dimensions
    _, mods = oracle_modules(family, m, p)
    stable = 0
    for M in mods:
        for N in mods:
            assert hom_dim(M, N) == len(hom_basis(M, N)) == len(kronecker_hom_basis(M, N)), (M, N)
            dim = stable_hom_dim(M, N)
            assert dim == composed_stable_hom_dim(M, N), (M, N)
            assert ext1_dim(M, N) == stable_hom_dim(syzygy(M), N), (M, N)
            stable += dim
    assert stable  # some pair has a stable map


@pytest.mark.parametrize("family,m", [("ae1", 4), ("ae2", 3), ("ae3", 4)])
def test_dimension_queries_build_no_maps(family, m, monkeypatch):
    # hom_dim is a rank, and stable_hom_dim and ext1_dim are sums of Hom
    # ranks: none of them solves a system or forms a module map.  Memos
    # are warmed first, since a presentation miss builds its cover map
    _, mods = oracle_modules(family, m)
    maps, solves = [], []
    init, nullspace = ModuleMap.__init__, linalg.nullspace

    def counted_init(self, *args, **kwargs):
        maps.append(None)
        init(self, *args, **kwargs)

    def counted_nullspace(mat, p):
        solves.append(None)
        return nullspace(mat, p)

    monkeypatch.setattr(ModuleMap, "__init__", counted_init)
    monkeypatch.setattr(linalg, "nullspace", counted_nullspace)
    for M in mods:
        for N in mods:
            for X in (M, N, syzygy(M)):
                if not X.is_zero():
                    presentation(X)
            maps.clear()
            for query in (hom_dim, stable_hom_dim, ext1_dim):
                query(M, N)
                assert not maps and not solves, (query.__name__, M, N)


def test_ext_over_an_algebra_that_is_not_self_injective():
    # over the path algebra of 0 -> 1, which is not self-injective,
    # 0 -> S1 -> P(0) -> S0 -> 0 does not split, so Ext^1(S0, S1) = k,
    # while stable Hom(Omega S0, S1) = stable End(P(1)) vanishes
    A = load_algebra_spec({"vertices": [0, 1], "arrows": [{"name": "a", "from": 0, "to": 1}],
                           "rules": [], "dim_bound": 3})
    S0, S1 = (string_module(A, empty_word(v)) for v in (0, 1))
    assert ext1_dim(S0, S1) == 1
    assert stable_hom_dim(syzygy(S0), S1) == 0
    assert ext1_dim(S1, S0) == ext1_dim(S0, S0) == ext1_dim(S1, S1) == 0
    P0 = indecomposable_projective(A, 0)
    assert [ext1_dim(P0, N) for N in (S0, S1, P0)] == [0, 0, 0]


@pytest.mark.parametrize("family,m", ORACLE_CASES)
def test_hom_out_of_a_projective_is_the_vertex_space(family, m):
    # Hom(P_v, N) = N e_v
    A, mods = oracle_modules(family, m)
    for v in A.quiver.vertices:
        P = indecomposable_projective(A, v)
        for N in mods:
            assert hom_dim(P, N) == N.dims[v]


def test_hom_with_a_zero_module_is_empty():
    A = ae3(3)
    Z = Representation.zero(A)
    M = module(A, "ae3", 3, "V1")
    assert hom_basis(Z, M) == hom_basis(M, Z) == hom_basis(Z, Z) == []


def test_memoized_presentation_is_read_only():
    A = ae2(3)
    pres = presentation(module(A, "ae2", 3, "M4"))
    for arrays in (pres.kernel, pres.free, pres.section):
        for mat in arrays.values():
            with pytest.raises(ValueError):
                mat[...] = 0
    assert presentation(module(A, "ae2", 3, "M4")) is pres


def changed_basis(M):
    """M conjugated at each vertex by g = L U, with L and U the lower and
    upper unitriangular matrices of ones (inverses: the identity minus the
    sub- or superdiagonal), so that rows hold several entries."""
    alg = M.algebra
    g, g_inv = {}, {}
    for v, n in M.dims.items():
        ones, eye = np.ones((n, n), dtype=np.int64), np.eye(n, dtype=np.int64)
        g[v] = np.tril(ones) @ np.triu(ones)
        g_inv[v] = (eye - np.eye(n, k=1, dtype=np.int64)) @ (eye - np.eye(n, k=-1, dtype=np.int64))
    return Representation(alg, M.dims, {a.name: g_inv[a.source] @ M.mats[a.name] @ g[a.target]
                                        for a in alg.quiver.arrows})


def rescaled(M, seed):
    """M with each basis vector scaled by a nonzero residue drawn from
    ``seed``: the values of the arrow matrices change, their shape not."""
    p = M.algebra.p
    rng = random.Random(seed)
    scale = {v: np.array([rng.randrange(1, p) for _ in range(n)], dtype=np.int64)
             for v, n in M.dims.items()}
    return Representation(M.algebra, M.dims, {
        a.name: M.mats[a.name] * np.array([pow(int(x), -1, p) for x in scale[a.source]],
                                          dtype=np.int64)[:, None] % p * scale[a.target] % p
        for a in M.algebra.quiver.arrows})


@pytest.mark.parametrize("family,m,p", [(family, m, p) for family, m in ORACLE_CASES
                                        for p in (2, 3, DEFAULT_PRIME)])
def test_module_word_names_string_modules_and_nothing_else(family, m, p):
    # a string module in either orientation, with its basis rescaled,
    # spells its class; a projective, a sum, the zero module and a module
    # whose matrices are not index maps spell nothing
    A = build_family(family, m, p)
    words = enumerate_strings(A)
    for k, w in enumerate(words):
        for word in (w, w.inverse()):
            for M in (string_module(A, word), rescaled(string_module(A, word), k)):
                assert strings.canonical(strings.module_word(M), A.quiver) == w, word
        changed = changed_basis(string_module(A, w))
        if changed._row_maps() is None:
            assert strings.module_word(changed) is None
    others = [indecomposable_projective(A, v) for v in A.quiver.vertices]
    others += [direct_sum([string_module(A, words[0]), string_module(A, words[-1])]),
               Representation.zero(A)]
    assert [strings.module_word(M) for M in others] == [None] * len(others)


def assert_radical_rows_equal(got, want):
    assert got.keys() == want.keys()
    for v, (rows, pivots) in want.items():
        assert got[v][1] == pivots
        assert got[v][0].shape == rows.shape and np.array_equal(got[v][0], rows)


@pytest.mark.parametrize("family,m,p", [(family, m, p) for family, m in ORACLE_CASES
                                        for p in (2, 3, DEFAULT_PRIME)])
def test_presentations_match_the_eliminations_they_replace(family, m, p):
    # kernel and section from one elimination of [epi^T | I], the radical
    # of a monomial module read off its columns, and the syzygy's arrow
    # matrices read at the kernel's free columns: each equal to the route
    # it replaced; the strings after a change of basis are not monomial
    A, mods = oracle_modules(family, m, p)
    strings = mods[:len(enumerate_strings(A))]
    changed = [changed_basis(M) for M in strings]
    # over F_2 every changed string of ae2(2) is still monomial
    assert any(N._row_maps() is None for N in changed) or (family, m, p) == ("ae2", 2, 2)
    for M in mods + [omega_power(M, n) for M in strings for n in (2, 3)] + changed:
        assert_radical_rows_equal(radical_rows(M), eliminated_radical_rows(M))
        if M.is_zero():
            continue
        pres = presentation(M)
        assert_radical_rows_equal(radical_rows(pres.cover), eliminated_radical_rows(pres.cover))
        for w in A.quiver.vertices:
            epi = pres.epi.blocks[w]
            assert np.array_equal(pres.kernel[w], left_nullspace(epi, p)), (M, w)
            assert np.array_equal(pres.section[w],
                                  solve_in_rowspace(epi, np.eye(M.dims[w], dtype=np.int64), p))
            assert np.array_equal(pres.kernel[w][:, pres.free[w]],
                                  np.eye(len(pres.kernel[w]), dtype=np.int64))
        omega, want = syzygy(M), solved_subrep(pres.cover, pres.kernel)
        assert omega.dims == want.dims
        for name, mat in want.mats.items():
            assert np.array_equal(omega.mats[name], mat), (M, name)


@pytest.mark.parametrize("family,m", [("ae1", 6), ("ae2", 3), ("ae3", 5)])
def test_a_monomial_presentation_eliminates_once_per_vertex(family, m, monkeypatch):
    # a presentation of a module with monomial arrow matrices reads its
    # kernel and section off the cover map's fibres, so it and its syzygy
    # make no rref and stack no dense path action
    A = build_family(family, m)
    calls = []

    def counted(fn):
        return lambda *args: calls.append(fn.__name__) or fn(*args)

    modules = ([string_module(A, w) for w in enumerate_strings(A)]
               + [indecomposable_projective(A, v) for v in A.quiver.vertices])
    monkeypatch.setattr(linalg, "rref", counted(linalg.rref))
    monkeypatch.setattr(homology, "path_action", counted(homology.path_action))
    for M in modules:
        assert M._row_maps() is not None
        presentation(M)
        syzygy(M)
        assert not calls, M


@pytest.mark.parametrize("family,m,p", [(family, m, p) for family in ("ae1", "ae2", "ae3")
                                        for m in range(get_family(family).m_min, 9)
                                        for p in (2, 3, DEFAULT_PRIME)])
def test_presentations_equal_the_elimination_route(family, m, p):
    # every string module and its syzygy is monomial, and its cover map,
    # kernel rows, free columns and section read off index maps equal the
    # dense path actions and the elimination of [epi^T | I]
    A = build_family(family, m, p)
    strings = [string_module(A, w) for w in enumerate_strings(A)]
    for M in strings + [syzygy(M) for M in strings]:
        assert M._row_maps() is not None
        pres = presentation(M)
        generators, want = eliminated_presentation(M)
        assert pres.generators == generators
        for w, (epi, kernel, free, section) in want.items():
            assert np.array_equal(pres.epi.blocks[w], epi), (M, w)
            assert np.array_equal(pres.kernel[w], kernel), (M, w)
            assert np.array_equal(pres.free[w], free), (M, w)
            assert np.array_equal(pres.section[w], section), (M, w)


def assert_radical_series_match_an_elimination(A):
    for v in A.quiver.vertices:
        P = indecomposable_projective(A, v)
        series = radical_series(P)
        assert series == eliminated_radical_series(P), v
        assert sum(sum(layer.values()) for layer in series) == P.total_dim


@pytest.mark.parametrize("family,m,p", [(family, m, p) for family in ("ae1", "ae2", "ae3")
                                        for m in range(get_family(family).m_min, 9)
                                        for p in (2, 3, DEFAULT_PRIME)])
def test_radical_series_of_projectives_match_an_elimination(family, m, p):
    # each layer read off the live basis vectors equals the layer that
    # elimination of the radical powers gives
    assert_radical_series_match_an_elimination(build_family(family, m, p))


@given(spec=small_specs(), p=st.sampled_from([2, 3, DEFAULT_PRIME]))
def test_radical_series_of_random_projectives_match_an_elimination(spec, p):
    assert_radical_series_match_an_elimination(built_or_skipped({**spec, "prime": p}))


def test_radical_series_needs_a_monomial_module():
    A = ae3(5)
    M = max((string_module(A, w) for w in enumerate_strings(A)), key=lambda M: M.dims[0])
    N = changed_basis(M)
    assert N._row_maps() is None
    with pytest.raises(StrcatError, match="one nonzero entry per row"):
        radical_series(N)


def test_radical_series_rejects_arrows_that_do_not_act_nilpotently():
    # the identity on the loop a of ae1 satisfies no relation of the
    # algebra, and its radical never shrinks
    A = ae1(2)
    M = Representation(A, {0: 1}, {"a": np.eye(1, dtype=np.int64)}, check=False)
    with pytest.raises(StrcatError, match="nilpotently"):
        radical_series(M)


def test_row_maps_are_computed_once_and_read_only():
    A = ae3(5)
    P = indecomposable_projective(A, 0)
    maps = P._row_maps()
    assert P._row_maps() is maps
    for cols, vals in maps.values():
        assert not cols.flags.writeable and not vals.flags.writeable


def test_a_cover_map_that_misses_a_vertex_is_not_surjective(monkeypatch):
    # a radical that claims the top of S1 leaves P(0) as the cover of
    # S0 + S1, which is onto at vertex 0 and zero at vertex 1
    A = ae2(2)
    M = direct_sum([string_module(A, empty_word(v)) for v in (0, 1)])
    real = homology.radical_rows

    def claims_the_top_of_s1(rep):
        out = real(rep)
        if rep is M:
            out[1] = (np.eye(1, dtype=np.int64), [0])
        return out

    monkeypatch.setattr(homology, "radical_rows", claims_the_top_of_s1)
    with pytest.raises(StrcatError, match="^projective cover map failed to be surjective$"):
        presentation(M)


def test_a_kernel_outside_the_cover_radical_is_rejected(monkeypatch):
    # with the radical of the cover reported as zero, the kernel of
    # P(0) -> S0, which is all of rad P(0), escapes it
    A = ae2(2)
    M = string_module(A, empty_word(0))
    real = homology.radical_rows

    def no_cover_radical(rep):
        out = real(rep)
        if rep is not M:
            out = {v: (rad[:0], []) for v, (rad, _) in out.items()}
        return out

    monkeypatch.setattr(homology, "radical_rows", no_cover_radical)
    with pytest.raises(StrcatError, match="^cover kernel escapes the radical$"):
        presentation(M)


def test_kernel_and_image_of_a_non_module_map_are_not_closed():
    # on P(0) of ae1, row 0 is e0 and row 1 is a = e0 * a: the span of e0,
    # which is the kernel of one block and the image of another, is not
    # closed under a
    A = ae1(3)
    P = indecomposable_projective(A, 0)
    keep_top = np.diag([1, 0, 0, 0])
    for build, block in ((kernel_of, np.eye(4, dtype=np.int64) - keep_top),
                         (image_of, keep_top)):
        f = ModuleMap(P, P, {0: block}, check=False)
        with pytest.raises(StrcatError, match="^subspace is not closed under the arrow action$"):
            build(f)


def test_hom_basis_rejects_mixed_algebras():
    with pytest.raises(AlgebraMismatch):
        hom_basis(string_module(ae1(2), empty_word(0)),
                  string_module(ae1(2), empty_word(0)))


def test_canonical_endos_of_shortest_alternating_module():
    A = ae2(3)
    w = named_string("ae2", 3, "M1")
    chs = canonical_homs(A, w, w)
    assert len(chs) == 1
    assert realize_canonical(chs[0]).blocks == identity_map(
        string_module(A, w)).blocks


def test_canonical_projection_spans_hom_to_the_bottom():
    m = 5
    A = ae1(m)
    top, bottom = named_string("ae1", m, f"V{m-1}"), named_string("ae1", m, "V0")
    chs = canonical_homs(A, top, bottom)
    assert len(chs) == 1
    got = realize_canonical(chs[0])
    assert got.is_surjective()


@pytest.mark.parametrize("j", range(4))
def test_canonical_endos_count_matches_hom_dimension(j):
    m = 4
    A = ae1(m)
    w = named_string("ae1", m, f"V{j}")
    rep = string_module(A, w)
    assert len(canonical_homs(A, w, w)) == hom_dim(rep, rep) == j + 1


def test_realized_shift_endo_has_expected_rank():
    m, j = 5, 3
    A = ae1(m)
    w = named_string("ae1", m, f"V{j}")
    ranks = sorted(realize_canonical(ch).rank()
                   for ch in canonical_homs(A, w, w))
    assert ranks == list(range(1, j + 2))
    assert max(ranks) == j + 1  # identity
    assert j in ranks           # the drop-one-step endomorphism


@pytest.mark.parametrize("family,m,p", [
    (family, m, p) for family in ("ae1", "ae2", "ae3")
    for m in range(get_family(family).m_min, 5) for p in (2, 3, DEFAULT_PRIME)])
def test_every_canonical_hom_has_rank_its_cut_length_plus_one(family, m, p):
    # the tower's inclusions and projections are found by cut length alone
    A = build_family(family, m, p)
    nodes = enumerate_strings(A)
    for S in nodes:
        for T in nodes:
            for ch in canonical_homs(A, S, T):
                assert realize_canonical(ch).rank() == ch.length + 1, (S, T, ch)


def test_canonical_projection_onto_simple_has_one_nonzero_block():
    m = 3
    A = ae3(m)
    chs = canonical_homs(A, named_string("ae3", m, "Y1"),
                         named_string("ae3", m, f"V{m}"))
    assert len(chs) == 1
    f = realize_canonical(chs[0])
    assert f.blocks[0].any() and not f.blocks[1].any()


def test_cover_of_simple_is_the_projective():
    A = ae3(3)
    S0 = string_module(A, empty_word(0))
    P, epi = projective_cover(S0)
    assert is_isomorphic(P, indecomposable_projective(A, 0))
    assert epi.is_surjective()


def test_cover_kernel_dimensions_on_the_loop_family():
    m = 5
    A = ae1(m)
    for j in range(m):
        M = module(A, "ae1", m, f"V{j}")
        P, epi = projective_cover(M)
        assert P.total_dim == m + 1
        assert kernel_of(epi).total_dim == m - j


def test_cover_of_two_step_module():
    A = ae2(3)
    M = module(A, "ae2", 3, "M2")  # top S(0), one generator
    assert top_dims(M) == {0: 1, 1: 0}
    P, _ = projective_cover(M)
    assert is_isomorphic(P, indecomposable_projective(A, 0))


def test_cover_of_zero_module_raises():
    with pytest.raises(ZeroModule):
        projective_cover(Representation.zero(ae1(2)))


def test_syzygy_swaps_the_mouth_of_the_loop_tube():
    m = 6
    A = ae1(m)
    V0 = module(A, "ae1", m, "V0")
    Vtop = module(A, "ae1", m, f"V{m-1}")
    assert is_isomorphic(syzygy(V0), Vtop)
    assert is_isomorphic(omega_power(V0, 2), V0)


def test_syzygy_of_projective_is_zero():
    A = ae2(2)
    assert syzygy(indecomposable_projective(A, 0)).is_zero()
    assert syzygy(indecomposable_projective(A, 1)).is_zero()


@pytest.mark.parametrize("m", [2, 4])
def test_ae3_first_syzygies(m):
    A = ae3(m)
    for i in range(1, m + 1):
        Vi = module(A, "ae3", m, f"V{i}")
        assert is_isomorphic(syzygy(Vi), module(A, "ae3", m, f"Y{m - i + 1}"))
        Xi = module(A, "ae3", m, f"X{i}")
        assert is_isomorphic(syzygy(Xi), module(A, "ae3", m, f"V{m - i + 1}"))


def test_stable_hom_vanishes_on_projectives():
    A = ae3(2)
    P0 = indecomposable_projective(A, 0)
    for w in enumerate_strings(A):
        M = string_module(A, w)
        assert stable_hom_dim(P0, M) == 0
        assert stable_hom_dim(M, P0) == 0


def test_stable_endos_detect_the_mouth():
    m = 5
    A = ae1(m)
    dims = [stable_hom_dim(module(A, "ae1", m, f"V{j}"),
                           module(A, "ae1", m, f"V{j}")) for j in range(m)]
    assert dims[0] == dims[m - 1] == 1
    assert all(d > 1 for d in dims[1: m - 1])


def test_stable_hom_of_projection_survives():
    m = 4
    A = ae1(m)
    assert stable_hom_dim(module(A, "ae1", m, f"V{m-1}"),
                          module(A, "ae1", m, "V0")) == 1


def test_ext_examples():
    B = ae3(3)
    S0 = string_module(B, empty_word(0))
    S1 = string_module(B, empty_word(1))
    assert ext1_dim(S1, S1) == 0
    assert ext1_dim(S0, S0) == 1
    A = ae1(4)
    V0 = module(A, "ae1", 4, "V0")
    assert ext1_dim(V0, V0) == 1
    # projectives never extend
    assert ext1_dim(indecomposable_projective(A, 0), V0) == 0
    Z = Representation.zero(A)
    assert ext1_dim(Z, V0) == ext1_dim(V0, Z) == ext1_dim(Z, Z) == 0
    # even the zero module is refused over another algebra
    with pytest.raises(AlgebraMismatch):
        ext1_dim(Representation.zero(ae1(3)), V0)


def test_is_isomorphic_basics():
    A = ae2(2)
    S0 = string_module(A, empty_word(0))
    S1 = string_module(A, empty_word(1))
    M = module(A, "ae2", 2, "M2")
    assert is_isomorphic(M, M)
    assert not is_isomorphic(S0, S1)
    assert not is_isomorphic(S0, M)


ISO_CASES = ([(family, m, p) for family in ("ae1", "ae2", "ae3")
              for m in range(get_family(family).m_min, 9) for p in (2, 3, DEFAULT_PRIME)]
             + [("brauer", e, None) for e in (2, 3)])


@pytest.mark.parametrize("family,m,p", ISO_CASES,
                         ids=[f"{f}-{m}-{p}" for f, m, p in ISO_CASES])
def test_word_read_isomorphism_equals_the_hom_basis_test(family, m, p):
    # is_isomorphic compares the words two basis graphs spell; on every
    # ordered pair with one dimension vector it agrees with an injective
    # map in a basis of Hom, which reads no word.  The modules: each string
    # module, its syzygy and a diagonal rescaling of its basis; for a
    # family, also the tower's modules and each step's twist kernel and
    # iterated twist image
    A = (load_algebra_spec(brauer_line_spec(m)) if family == "brauer"
         else build_family(family, m, p))
    mods = []
    for k, w in enumerate(enumerate_strings(A)):
        M = string_module(A, w)
        mods += [M, syzygy(M), rescaled(M, k)]
    if family != "brauer":
        tower = build_tower(family, m, A)
        mods += tower.modules
        for l, (inc, sur) in enumerate(zip(tower.inclusions, tower.surjections), 1):
            twist = sur.then(inc)
            mods += [kernel_of(twist), image_of(twist.power(l))]
    groups = {}
    for M in mods:
        groups.setdefault(M.dim_vector(), []).append(M)
    pairs = [(M, N) for group in groups.values() for M in group for N in group]
    for M, N in pairs:
        assert is_isomorphic(M, N) == hom_basis_isomorphic(M, N), (M.dims, N.dims)
    assert any(M is not N and is_isomorphic(M, N) for M, N in pairs)


def test_isomorphism_falls_back_to_a_hom_basis(monkeypatch):
    # a non-monomial change of basis spells no word, so a Hom basis decides
    calls = []
    basis = homology.hom_basis
    monkeypatch.setattr(homology, "hom_basis", lambda M, N: calls.append(M) or basis(M, N))
    A = ae3(3)
    mods = sorted((string_module(A, w) for w in enumerate_strings(A)),
                  key=lambda M: -M.total_dim)
    M, N = next((M, N) for M in mods for N in mods
                if M is not N and M.dim_vector() == N.dim_vector())
    changed = changed_basis(M)
    assert strings.module_word(changed) is None
    assert is_isomorphic(changed, M) and is_isomorphic(M, changed)
    assert not is_isomorphic(changed, N) and not is_isomorphic(N, changed)
    assert len(calls) == 4


@pytest.mark.parametrize("family", ["ae1", "ae2", "ae3"])
def test_check_tower_solves_no_hom_basis(family, monkeypatch):
    # every module the tower checks spells a word, or is the projective
    # cap, which no isomorphism test reads
    def refused(M, N):
        raise AssertionError("hom_basis called")

    monkeypatch.setattr(homology, "hom_basis", refused)
    for m in range(get_family(family).m_min, 9):
        tower = build_tower(family, m, build_family(family, m))
        assert check_tower(tower, tower.modules[0]).kind != "unresolved", m


LOCAL_CASES = ([("ae1", m) for m in range(1, 7)] + [("ae2", m) for m in range(1, 5)]
               + [("ae3", m) for m in range(2, 7)])


@pytest.mark.parametrize("family,m", LOCAL_CASES)
def test_string_modules_have_local_endomorphism_rings(family, m):
    # is_isomorphic's precondition End(N)/rad = k, shown without hom_basis:
    # the canonical endomorphisms form a basis of End(M[w]) in which the
    # identity is the only invertible map and every other one is nilpotent
    A = build_family(family, m)
    for w in enumerate_strings(A):
        M = string_module(A, w)
        maps = [realize_canonical(ch) for ch in canonical_homs(A, w, w)]
        invertible = [f for f in maps if f.is_injective()]
        assert len(invertible) == 1, str(w)
        assert all(np.array_equal(blk, np.eye(M.dims[v]))
                   for v, blk in invertible[0].blocks.items()), str(w)
        assert all(not flat_map(f.power(M.total_dim)).any()
                   for f in maps if f is not invertible[0]), str(w)


def test_kernel_and_image_of_twist_maps():
    A = ae1(4)
    assert kernel_of(identity_map(module(A, "ae1", 4, "V2"))).is_zero()

    # the drop-then-include endomorphism has simple kernel and nested images
    m, l = 4, 3
    w = named_string("ae1", m, f"V{l}")
    endos = {realize_canonical(ch).rank(): realize_canonical(ch)
             for ch in canonical_homs(A, w, w)}
    twist = endos[l]
    V0 = module(A, "ae1", m, "V0")
    assert is_isomorphic(kernel_of(twist), V0)
    assert is_isomorphic(image_of(twist.power(l)), V0)

    B = ae2(3)
    lword = named_string("ae2", 3, "M5")
    twist2 = {realize_canonical(ch).rank(): realize_canonical(ch)
              for ch in canonical_homs(B, lword, lword)}[4]
    for t in (1, 2):
        target = module(B, "ae2", 3, f"M{5 - 2 * t}")
        assert is_isomorphic(image_of(twist2.power(t)), target)


def test_maps_compose_only_through_the_same_module():
    A = ae2(2)
    M1, N1 = module(A, "ae2", 2, "M1"), module(A, "ae2", 2, "N1")
    assert M1.dim_vector() == N1.dim_vector()
    with pytest.raises(StrcatError):
        identity_map(M1).then(identity_map(N1))
    # an equal copy of the middle module composes
    copy = Representation(A, M1.dims, M1.mats)
    composite = identity_map(M1).then(identity_map(copy))
    assert composite.rank() == 2
    composite.check_intertwining()


@pytest.mark.parametrize("family,m", [("ae1", 3), ("ae2", 2), ("ae3", 3)])
def test_canonical_count_equals_hom_dim_everywhere(family, m):
    A = build_family(family, m)
    words = enumerate_strings(A)
    p = A.p
    for S in words:
        for T in words:
            chs = canonical_homs(A, S, T)
            dim = hom_dim(string_module(A, S), string_module(A, T))
            assert len(chs) == dim, (str(S), str(T))
            if chs:
                flat = np.vstack([flat_map(realize_canonical(ch)) for ch in chs])
                assert rank(flat, p) == dim


@pytest.mark.parametrize("family,m", ORACLE_CASES)
def test_canonical_homs_check_each_word_once(family, m, monkeypatch):
    # the words are checked through the memoized string_module, so a loop
    # over pairs runs the whole-word test once per distinct word
    A = build_family(family, m)
    words = enumerate_strings(A)
    words += tuple(w.inverse() for w in words if not w.is_trivial)
    checked = []
    real = strings.is_string

    def counted(word, algebra):
        checked.append(word)
        return real(word, algebra)

    monkeypatch.setattr(strings, "is_string", counted)
    for S in words:
        for T in words:
            canonical_homs(A, S, T)
    assert checked and len(checked) == len(set(checked)) <= len(words)
    assert set(checked) <= set(words)


def test_canonical_homs_refuse_a_word_that_is_not_a_string():
    A = ae3(3)
    good = named_string("ae3", 3, "U0")
    bad = strings.parse_string_literal("a,a~", A.quiver)
    for S, T in ((bad, good), (good, bad)):
        with pytest.raises(NotAString, match="is not a string over this algebra"):
            canonical_homs(A, S, T)


@pytest.mark.parametrize("family,m,p", [(family, m, p) for family, m in ORACLE_CASES
                                        for p in (2, 3, DEFAULT_PRIME)])
def test_canonical_homs_match_the_four_orientation_search(family, m, p):
    # reversing both words reverses a cut and keeps its matrix, so the
    # source read as given finds every map the four orientation pairs find,
    # in the same order
    A = build_family(family, m, p)
    words = enumerate_strings(A)
    words += tuple(w.inverse() for w in words if not w.is_trivial)
    for S in words:
        for T in words:
            want = four_orientation_canonical_homs(A, S, T)
            assert all(not s_flip for s_flip, *_ in want)
            got = [(False, ch.target_flip, ch.source_pos, ch.target_pos, ch.length)
                   for ch in canonical_homs(A, S, T)]
            assert got == want, (str(S), str(T))


@pytest.mark.parametrize("family,m", [("ae1", 6), ("ae2", 3), ("ae3", 5)])
def test_path_matrix_equals_a_left_to_right_fold(family, m):
    A = build_family(family, m)
    modules = ([indecomposable_projective(A, v) for v in A.quiver.vertices]
               + [string_module(A, w) for w in enumerate_strings(A)])
    rng = random.Random(5)
    for M in modules:
        for v in A.quiver.vertices:
            for length in range(2 * A.dim + 1):
                names, at = [], v
                for _ in range(length):  # a random walk of this length from v
                    a = rng.choice([a for a in A.quiver.arrows if a.source == at])
                    names.append(a.name)
                    at = a.target
                want = folded_path_matrix(M, names, v)
                path = make_path(A.quiver, names, base_vertex=v)
                assert np.array_equal(M.path_matrix(path), want), (M, names)
                if names:
                    assert np.array_equal(M.path_matrix(names), want), (M, names)


def test_relation_check_multiplies_logarithmically(monkeypatch):
    # the longest string of ae1(96) meets the rule a^97 -> 0; halving with
    # products kept by word takes at most 2 * ceil(log2 L) products for a
    # word of length L (at most two distinct lengths per halving level),
    # where a left-to-right fold takes L - 1 = 96.  path_matrix multiplies
    # dense matrices; check_relations composes the same halves as maps
    A = ae1(96)
    M = string_module(A, max(enumerate_strings(A), key=lambda w: w.length))
    calls, compositions = [], []
    mat_mul, compose = linalg.mat_mul, indexmaps.compose

    def counted(a, b, p):
        calls.append(None)
        return mat_mul(a, b, p)

    def counted_compose(f, g, p):
        compositions.append(None)
        return compose(f, g, p)

    monkeypatch.setattr(linalg, "mat_mul", counted)
    monkeypatch.setattr(indexmaps, "compose", counted_compose)
    words = [r.lhs for r in A.rules] + [r.rhs for r in A.rules if r.rhs is not None]
    bound = sum(2 * math.ceil(math.log2(w.length)) for w in words if w.length > 1)
    assert [w.length for w in words] == [97] and bound == 14
    for rule in A.rules:
        assert not M.path_matrix(rule.lhs).any()
    assert 0 < len(calls) <= bound and not compositions
    calls.clear()
    M.check_relations()
    assert not calls and 0 < len(compositions) <= bound


def test_path_matrix_of_an_empty_word_needs_its_vertex():
    M = string_module(ae1(3), named_string("ae1", 3, "V1"))
    assert np.array_equal(M.path_matrix((), source=0), np.eye(M.dims[0], dtype=np.int64))
    with pytest.raises(StrcatError, match="trivial path needs its base vertex"):
        M.path_matrix(())


def test_path_matrix_keeps_no_products_after_the_call():
    # products held in a reference cycle would wait for the cyclic
    # collector, and between collections they pile up in peak memory
    A = ae1(8)
    M = string_module(A, max(enumerate_strings(A), key=lambda w: w.length))
    gc.collect()
    gc.disable()
    try:
        assert not M.path_matrix(["a"] * 9).any()
        assert gc.collect() == 0
    finally:
        gc.enable()


def assert_relation_check_matches_a_dense_fold(M):
    """check_relations on M passes exactly when every rule holds as a
    left-to-right product of dense matrices, and otherwise names the first
    rule that fails."""
    rule = first_failing_rule(M)
    if rule is None:
        M.check_relations()
    else:
        with pytest.raises(StrcatError) as err:
            M.check_relations()
        assert str(err.value) == f"rule {rule} fails on this representation"


def monomial_corruptions(M):
    """Copies of M with one nonzero entry of one arrow matrix moved to each
    other column of its row, or doubled; each keeps at most one nonzero
    entry per row."""
    for name, mat in M.mats.items():
        for i, j in zip(*np.nonzero(mat)):
            changed = [mat.copy()]
            changed[0][i, j] = 2 * mat[i, j] % M.algebra.p
            for k in range(mat.shape[1]):
                if k != j:
                    moved = mat.copy()
                    moved[i, j], moved[i, k] = 0, mat[i, j]
                    changed.append(moved)
            for new in changed:
                yield Representation(M.algebra, M.dims, {**M.mats, name: new}, check=False)


def assert_map_check_agrees_on_corruptions(M):
    assert M._row_maps() is not None
    assert first_failing_rule(M) is None
    M.check_relations()
    verdicts = set()
    for C in monomial_corruptions(M):
        assert C._row_maps() is not None  # still checked by composing maps
        assert_relation_check_matches_a_dense_fold(C)
        verdicts.add(first_failing_rule(C) is None)
    return verdicts


@pytest.mark.parametrize("family,m", [("ae1", 6), ("ae2", 3), ("ae3", 5)])
def test_map_relation_check_agrees_with_a_dense_fold(family, m):
    A = build_family(family, m)
    modules = ([indecomposable_projective(A, v) for v in A.quiver.vertices]
               + [string_module(A, w) for w in enumerate_strings(A)])
    verdicts = set()
    for M in modules:
        verdicts |= assert_map_check_agrees_on_corruptions(M)
    assert verdicts == {True, False}  # both verdicts occur


@given(random_strings())
def test_map_relation_check_of_random_strings_agrees_with_a_dense_fold(case):
    A, w = case
    assert_map_check_agrees_on_corruptions(string_module(A, w))


def test_map_relation_check_reads_a_trivial_right_side_as_the_identity():
    # x -> 3*e0 survives completion, so the check compares x with 3 * identity
    A = load_algebra_spec({
        "vertices": [0, 1],
        "arrows": [{"name": "x", "from": 0, "to": 0}, {"name": "y", "from": 0, "to": 1}],
        "rules": [{"lhs": ["x"], "rhs": {"coeff": 3, "path": []}}],
        "dim_bound": 4})
    assert [str(r) for r in A.rules] == ["x -> 3*e0"]
    verdicts = set()
    for v in A.quiver.vertices:
        verdicts |= assert_map_check_agrees_on_corruptions(indecomposable_projective(A, v))
    assert verdicts == {True, False}


def test_relation_check_of_a_module_after_a_change_of_basis():
    # conjugating at vertex 0 by g = L U, with L and U the lower and upper
    # unitriangular matrices of ones (inverses: the identity minus the sub-
    # or superdiagonal), fills rows with several entries, so the check
    # multiplies dense matrices
    A = ae3(5)
    M = max((string_module(A, w) for w in enumerate_strings(A)), key=lambda M: M.dims[0])
    n = M.dims[0]
    assert n >= 3
    ones = np.ones((n, n), dtype=np.int64)
    g = np.tril(ones) @ np.triu(ones)
    eye = np.eye(n, dtype=np.int64)
    g_inv = (eye - np.eye(n, k=1, dtype=np.int64)) @ (eye - np.eye(n, k=-1, dtype=np.int64))
    assert np.array_equal(g @ g_inv, eye)
    mats = {}
    for a in A.quiver.arrows:
        mat = M.mats[a.name]
        if a.source == 0:
            mat = g_inv @ mat
        if a.target == 0:
            mat = mat @ g
        mats[a.name] = mat % A.p
    N = Representation(A, M.dims, mats)
    assert N._row_maps() is None
    assert first_failing_rule(N) is None
    assert is_isomorphic(M, N)
    failed = 0
    for name, mat in N.mats.items():
        for i, j in np.ndindex(*mat.shape):
            changed = mat.copy()
            changed[i, j] = (changed[i, j] + 1) % A.p
            C = Representation(A, N.dims, {**N.mats, name: changed}, check=False)
            assert_relation_check_matches_a_dense_fold(C)
            failed += first_failing_rule(C) is not None
    assert failed
