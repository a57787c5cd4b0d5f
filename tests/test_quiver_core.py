import random
from dataclasses import dataclass

import numpy as np
import pytest

from strcat import (
    Algebra,
    AlgebraMismatch,
    DimensionBoundExceeded,
    RewriteRule,
    StrcatError,
    ae1,
    ae2,
    ae3,
    complete_rewriting,
    indecomposable_projective,
    load_algebra_spec,
    make_path,
    make_quiver,
    trivial_path,
)
from strcat.quiver_core import path_key

from .oracles import family_dimension


@dataclass(eq=False)
class AlgebraElem:
    """An algebra element as its coefficient vector over the basis."""

    algebra: Algebra
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.algebra.dim,):
            raise StrcatError("coefficient vector length must equal dim")

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraElem) and other.algebra is self.algebra
                and bool((other.coeffs == self.coeffs).all()))


def elem_from_path(algebra, path):
    vec = np.zeros(algebra.dim, dtype=np.int64)
    for q, c in algebra.reduce_path(path).items():
        vec[algebra.index[q]] = c
    return AlgebraElem(algebra, vec)


def unit(algebra):
    vec = np.zeros(algebra.dim, dtype=np.int64)
    for v in algebra.quiver.vertices:
        vec[algebra.index[trivial_path(v)]] = 1
    return AlgebraElem(algebra, vec)


def multiply(a, b):
    """Bilinear extension of the product of basis paths: the normal form of
    their concatenation, reduced by rewriting rather than read from the
    algebra's multiplication table."""
    if a.algebra is not b.algebra:
        raise AlgebraMismatch("elements live over different algebras")
    alg = a.algebra
    out = np.zeros(alg.dim, dtype=np.int64)
    for i in np.nonzero(a.coeffs)[0]:
        for j in np.nonzero(b.coeffs)[0]:
            pi, pj = alg.basis[i], alg.basis[j]
            if pi.target != pj.source:
                continue
            cij = int(a.coeffs[i]) * int(b.coeffs[j])
            prod = make_path(alg.quiver, pi.arrows + pj.arrows, base_vertex=pi.source)
            for q, c in alg.reduce_path(prod).items():
                out[alg.index[q]] = (out[alg.index[q]] + cij * c) % alg.p
    return AlgebraElem(alg, out)


@pytest.mark.parametrize("m", range(1, 9))
def test_ae1_dimension_against_path_oracle(m):
    assert ae1(m).dim == family_dimension("ae1", m) == m + 1


@pytest.mark.parametrize("m", range(1, 9))
def test_ae2_dimension_against_path_oracle(m):
    assert ae2(m).dim == family_dimension("ae2", m) == 4 * m + 2


@pytest.mark.parametrize("m", range(2, 9))
def test_ae3_dimension_against_path_oracle(m):
    assert ae3(m).dim == family_dimension("ae3", m) == m + 5


def test_ae1_small_basis():
    A = ae1(1)
    assert A.dim == 2
    assert [str(b) for b in A.basis] == ["e0", "a"]


def test_ae1_unit_acts_as_identity():
    A = ae1(4)
    e0 = elem_from_path(A, trivial_path(0))
    for b in A.basis:
        x = elem_from_path(A, b)
        assert multiply(e0, x) == x
        assert multiply(x, e0) == x


def test_ae2_projective_basis_alternates():
    A = ae2(3)
    from_zero = [str(q) for q in A.basis_paths_from(0)]
    want = ["e0"]
    word = []
    for k in range(2 * 3):
        word.append("a" if k % 2 == 0 else "b")
        want.append("*".join(word))
    assert from_zero == want


def test_ae3_completion_derives_loop_nilpotency():
    # the overlap of ra -> 0 against ab -> r^m forces r^(m+1) -> 0
    for m in (2, 3, 5):
        A = ae3(m)
        lhs = {r.lhs.arrows: r for r in A.rules}
        assert ("r",) * (m + 1) in lhs and lhs[("r",) * (m + 1)].rhs is None
        assert A.reduce_path(make_path(A.quiver, ["r"] * (m + 1))) == {}


def test_ae3_binomial_normal_form():
    A = ae3(4)
    ab = A.reduce_path(make_path(A.quiver, ["a", "b"]))
    rm = A.reduce_path(make_path(A.quiver, ["r"] * 4))
    assert ab == rm and len(ab) == 1


def test_ae3_basis_and_projectives():
    A = ae3(2)
    assert A.dim == 7
    P1 = indecomposable_projective(A, 1)
    assert [str(q) for q in A.basis_paths_from(1)] == ["e1", "b", "b*a"]
    assert P1.total_dim == 3
    P0 = indecomposable_projective(A, 0)
    assert P0.dim_vector() == (2 + 1, 1)
    for m in (3, 5):
        P0 = indecomposable_projective(ae3(m), 0)
        assert P0.dim_vector() == (m + 1, 1)


def test_multiply_examples():
    A = ae3(2)
    r = elem_from_path(A, make_path(A.quiver, ["r"]))
    r2 = multiply(r, r)
    assert not r2.is_zero()
    assert multiply(r, r2).is_zero()  # r * r^m = 0

    B = ae2(1)
    a = elem_from_path(B, make_path(B.quiver, ["a"]))
    ba = elem_from_path(B, make_path(B.quiver, ["b", "a"]))
    assert multiply(a, ba).is_zero()  # aba = 0 at m = 1


def test_multiply_rejects_mixed_algebras():
    A, B = ae1(2), ae1(2)
    with pytest.raises(AlgebraMismatch):
        multiply(unit(A), unit(B))


def test_one_loop_completion_example():
    q = make_quiver([0], [("a", 0, 0)])
    A = complete_rewriting(q, [RewriteRule(make_path(q, ["a"] * 3))], dim_bound=3)
    assert [str(b) for b in A.basis] == ["e0", "a", "a*a"]


def test_free_cycle_exceeds_dimension_bound():
    q = make_quiver([0, 1], [("x", 0, 1), ("y", 1, 0)])
    with pytest.raises(DimensionBoundExceeded):
        complete_rewriting(q, [], dim_bound=12)


def test_associativity_is_exhaustively_checked():
    for A in (ae1(5), ae2(2), ae3(4)):
        assert A.verify_associativity()


def _random_reduce(algebra, path, rng):
    """Reduce with randomly chosen redex and rule order."""
    terms = {path: 1}
    for _ in range(500):
        pick = None
        for q in sorted(terms, key=lambda t: path_key(algebra.quiver, t)):
            spots = []
            for rule in algebra.rules:
                k = rule.lhs.length
                for pos in range(q.length - k + 1):
                    if q.arrows[pos: pos + k] == rule.lhs.arrows:
                        spots.append((pos, rule))
            if spots:
                pick = (q, rng.choice(spots))
                break
        if pick is None:
            return terms
        q, (pos, rule) = pick
        c = terms.pop(q)
        if rule.rhs is not None:
            new = make_path(algebra.quiver,
                            q.arrows[:pos] + rule.rhs.arrows
                            + q.arrows[pos + rule.lhs.length:],
                            base_vertex=q.source)
            terms[new] = (terms.get(new, 0) + c * rule.coeff) % algebra.p
            if terms[new] == 0:
                del terms[new]
    raise AssertionError("random reduction did not terminate")


@pytest.mark.parametrize("family,m", [("ae1", 4), ("ae2", 2), ("ae3", 3)])
def test_confluence_under_random_reduction_orders(family, m):
    from strcat import build_family
    from .oracles import all_paths

    A = build_family(family, m)
    longest = max(q.length for q in A.basis)
    arrows = [(a.name, a.source, a.target) for a in A.quiver.arrows]
    rng = random.Random(1234)
    for names, s, t in all_paths(list(A.quiver.vertices), arrows, 2 * longest):
        path = make_path(A.quiver, names, base_vertex=s)
        expected = A.reduce_path(path)
        for _ in range(4):
            assert _random_reduce(A, path, rng) == expected


def test_load_algebra_spec_round_trip(tmp_path):
    spec = {
        "vertices": [0, 1],
        "arrows": [{"name": "r", "from": 0, "to": 0},
                   {"name": "a", "from": 0, "to": 1},
                   {"name": "b", "from": 1, "to": 0}],
        "rules": [{"lhs": ["r", "a"], "rhs": None},
                  {"lhs": ["b", "r"], "rhs": None},
                  {"lhs": ["a", "b"], "rhs": {"coeff": 1, "path": ["r", "r"]}}],
        "prime": 32003,
        "dim_bound": 7,
    }
    A = load_algebra_spec(spec)
    assert A.dim == 7
    path = tmp_path / "alg.json"
    import json
    path.write_text(json.dumps(spec))
    B = load_algebra_spec(str(path))
    assert [str(x) for x in B.basis] == [str(x) for x in A.basis]
