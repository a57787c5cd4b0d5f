"""``strcat.linalg`` against the pure-Python elimination in
``tests/reference.py``, over the smallest primes, the default one and the
largest one the package accepts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strcat import linalg

from .reference import gauss_nullspace, gauss_rank, gauss_rref, solve_right

PRIMES = [2, 3, 32003, 1048573]  # 1048573: the largest prime <= MAX_PRIME


def _matrix(draw, p, rows, cols):
    """A rows x cols matrix of rank at most a drawn k, as a product of a
    rows x k and a k x cols matrix, so that low ranks are common."""
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    k = draw(st.integers(0, min(rows, cols)))
    u = np.array(draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                               min_size=rows, max_size=rows)),
                 dtype=np.int64).reshape(rows, k)
    v = np.array(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                               min_size=k, max_size=k)),
                 dtype=np.int64).reshape(k, cols)
    return linalg.mat_mul(u, v, p)


@st.composite
def matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, _matrix(draw, p, draw(st.integers(0, 5)), draw(st.integers(1, 5)))


@st.composite
def systems(draw):
    """(p, a, b): b is a @ x for a drawn x, or an arbitrary matrix."""
    p, a = draw(matrices())
    width = draw(st.integers(1, 3))
    if draw(st.booleans()):
        b = linalg.mat_mul(a, _matrix(draw, p, a.shape[1], width), p)
    else:
        b = _matrix(draw, p, a.shape[0], width)
    return p, a, b


@given(matrices())
def test_rref_and_rank_match_the_reference(case):
    p, a = case
    reduced, pivots = linalg.rref(a, p)
    want, want_pivots = gauss_rref(a.tolist(), p)
    assert pivots == want_pivots
    assert reduced.tolist() == want
    assert linalg.rank(a, p) == len(want_pivots)


@given(matrices())
def test_nullspace_is_a_basis_of_the_kernel(case):
    p, a = case
    basis = linalg.nullspace(a, p)
    assert basis.shape == (a.shape[1] - gauss_rank(a.tolist(), p), a.shape[1])
    assert not linalg.mat_mul(a, basis.T, p).any()
    assert gauss_rank(basis.tolist(), p) == basis.shape[0]


EDGE_MATRICES = {
    "zero": [[0, 0, 0], [0, 0, 0]],
    "full-column-rank": [[1, 2], [0, 1], [3, 4]],
    "last-column-pivot": [[0, 0, 1], [0, 0, 2]],
    "zero-column": [[0], [0]],
    "nonzero-column": [[0], [5]],
}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("name", EDGE_MATRICES)
def test_nullspace_edge_cases_match_the_reference(name, p):
    a = linalg.as_field(EDGE_MATRICES[name], p)
    basis = linalg.nullspace(a, p)
    assert basis.shape == (a.shape[1] - gauss_rank(a.tolist(), p), a.shape[1])
    assert basis.tolist() == gauss_nullspace(a.tolist(), a.shape[1], p)


@given(systems())
def test_solve_right_solves_exactly_the_consistent_systems(case):
    p, a, b = case
    x = solve_right(a, b, p)
    consistent = (gauss_rank(a.tolist(), p)
                  == gauss_rank(np.hstack([a, b]).tolist(), p))
    assert (x is not None) == consistent
    if consistent:
        assert np.array_equal(linalg.mat_mul(a, x, p), b)
