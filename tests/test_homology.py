import numpy as np
import pytest

from strcat import (
    AlgebraMismatch,
    Representation,
    StrcatError,
    ZeroModule,
    ae1,
    ae2,
    ae3,
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
    omega_power,
    projective_cover,
    realize_canonical,
    stable_hom_dim,
    string_module,
    syzygy,
)
from strcat.homology import identity_map

from .reference import top_dims


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
    assert is_isomorphic(P, indecomposable_projective(A, 0), seed=3)
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
    assert is_isomorphic(P, indecomposable_projective(A, 0), seed=3)


def test_cover_of_zero_module_raises():
    with pytest.raises(ZeroModule):
        projective_cover(Representation.zero(ae1(2)))


def test_syzygy_swaps_the_mouth_of_the_loop_tube():
    m = 6
    A = ae1(m)
    V0 = module(A, "ae1", m, "V0")
    Vtop = module(A, "ae1", m, f"V{m-1}")
    assert is_isomorphic(syzygy(V0), Vtop, seed=5)
    assert is_isomorphic(omega_power(V0, 2), V0, seed=5)


def test_syzygy_of_projective_is_zero():
    A = ae2(2)
    assert syzygy(indecomposable_projective(A, 0)).is_zero()
    assert syzygy(indecomposable_projective(A, 1)).is_zero()


@pytest.mark.parametrize("m", [2, 4])
def test_ae3_first_syzygies(m):
    A = ae3(m)
    for i in range(1, m + 1):
        Vi = module(A, "ae3", m, f"V{i}")
        assert is_isomorphic(syzygy(Vi), module(A, "ae3", m, f"Y{m - i + 1}"),
                             seed=11)
        Xi = module(A, "ae3", m, f"X{i}")
        assert is_isomorphic(syzygy(Xi), module(A, "ae3", m, f"V{m - i + 1}"),
                             seed=11)


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


def test_is_isomorphic_basics():
    A = ae2(2)
    S0 = string_module(A, empty_word(0))
    S1 = string_module(A, empty_word(1))
    M = module(A, "ae2", 2, "M2")
    assert is_isomorphic(M, M, seed=0)
    assert not is_isomorphic(S0, S1, seed=0)
    assert not is_isomorphic(S0, M, seed=0)


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
    assert is_isomorphic(kernel_of(twist), V0, seed=9)
    assert is_isomorphic(image_of(twist.power(l)), V0, seed=9)

    B = ae2(3)
    lword = named_string("ae2", 3, "M5")
    twist2 = {realize_canonical(ch).rank(): realize_canonical(ch)
              for ch in canonical_homs(B, lword, lword)}[4]
    for t in (1, 2):
        target = module(B, "ae2", 3, f"M{5 - 2 * t}")
        assert is_isomorphic(image_of(twist2.power(t)), target, seed=9)


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
                flat = np.vstack([realize_canonical(ch).flatten() for ch in chs])
                from strcat.linalg import rank
                assert rank(flat, p) == dim
