import inspect
import random
import re
import tracemalloc
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from strcat import (
    Algebra,
    AlgebraMismatch,
    BadParameter,
    BadPrime,
    DimensionBoundExceeded,
    NonTerminating,
    RewriteRule,
    StrcatError,
    build_family,
    complete_rewriting,
    enumerate_strings,
    families,
    indecomposable_projective,
    linalg,
    load_algebra_spec,
    make_path,
    make_quiver,
    string_module,
    trivial_path,
)
from strcat import quiver_core
from strcat.homology import presentation
from strcat.quiver_core import (
    DEFAULT_PRIME,
    MAX_PRIME,
    _Rewriter,
    memoized,
    path_key,
    require_prime,
)

from .builders import ae1, ae2, ae3
from .oracles import (
    ORACLE_CASES,
    all_paths,
    contains_word,
    family_dimension,
    monomial_dimension,
)
from .reference import (
    first_bad_triple,
    grown_product_table,
    hand_built,
    normal_form,
    reduced_act_tables,
    reduced_projective_mats,
    reduced_socle_rules,
    reduced_tables,
    scanned_redex,
    scanned_reduction,
)


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


def as_dict(term):
    """A normal form ``(path, coeff)`` or None as a path -> coeff dict."""
    return {} if term is None else dict([term])


def elem_from_path(algebra, path):
    vec = np.zeros(algebra.dim, dtype=np.int64)
    for q, c in as_dict(normal_form(algebra, path)).items():
        vec[algebra.index[q]] = c
    return AlgebraElem(algebra, vec)


def unit(algebra):
    vec = np.zeros(algebra.dim, dtype=np.int64)
    for v in algebra.quiver.vertices:
        vec[algebra.index[trivial_path(v)]] = 1
    return AlgebraElem(algebra, vec)


def multiply(a, b):
    """Bilinear extension of the product of basis paths: the normal form of
    their concatenation, reduced by scanning the rules rather than read
    from the algebra's act table."""
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
            for q, c in as_dict(normal_form(alg, prod)).items():
                out[alg.index[q]] = (out[alg.index[q]] + cij * c) % alg.p
    return AlgebraElem(alg, out)


@pytest.mark.parametrize("m", range(1, 9))
def test_ae1_dimension_against_path_oracle(m):
    assert ae1(m).dim == family_dimension("ae1", m) == m + 1 == families.AE1.dim(m)


@pytest.mark.parametrize("m", range(1, 9))
def test_ae2_dimension_against_path_oracle(m):
    assert ae2(m).dim == family_dimension("ae2", m) == 4 * m + 2 == families.AE2.dim(m)


@pytest.mark.parametrize("m", range(2, 9))
def test_ae3_dimension_against_path_oracle(m):
    assert ae3(m).dim == family_dimension("ae3", m) == m + 5 == families.AE3.dim(m)


def assert_basis_in_path_key_order(A):
    assert list(A.basis) == sorted(A.basis, key=lambda q: path_key(A.quiver, q))


@pytest.mark.parametrize("family,m", [(family, m) for family, fam in families.FAMILIES.items()
                                      for m in range(fam.m_min, 9)])
def test_family_basis_is_in_path_key_order(family, m):
    assert_basis_in_path_key_order(build_family(family, m))


def test_basis_order_ignores_the_declared_vertex_order():
    spec = {"vertices": [2, 0, 1],
            "arrows": [{"name": "c", "from": 2, "to": 0}, {"name": "a", "from": 0, "to": 1},
                       {"name": "b", "from": 1, "to": 2}],
            "rules": [{"lhs": ["a", "b", "c"], "rhs": None}, {"lhs": ["b", "c", "a"], "rhs": None},
                      {"lhs": ["c", "a", "b"], "rhs": None}], "dim_bound": 12}
    A = load_algebra_spec(spec)
    assert [str(q) for q in A.basis[:3]] == ["e0", "e1", "e2"]
    assert_basis_in_path_key_order(A)


@pytest.mark.parametrize("family", ["ae1", "ae2", "ae3"])
def test_build_family_refuses_m_outside_the_range_before_building(family, monkeypatch):
    fam = families.get(family)
    assert fam.dim(fam.m_max) <= families.MAX_DIM < fam.dim(fam.m_max + 1)

    def never_built(m):
        raise AssertionError(f"spec asked for with m={m}")

    monkeypatch.setitem(families.FAMILIES, family, replace(fam, spec=never_built))
    for m in (fam.m_min - 1, fam.m_max + 1, 10**9):
        with pytest.raises(BadParameter):
            build_family(family, m)


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
@pytest.mark.parametrize("family,m", [("ae1", m) for m in (1, 2, 24, 96, 1023)]
                         + [("ae2", m) for m in (1, 2, 12, 32, 255)]
                         + [("ae3", m) for m in (2, 3, 16, 96, 1019)])
def test_family_spec_builds_the_hand_written_presentation(family, m, p):
    A, B = build_family(family, m, p), hand_built(family, m, p)
    assert A.quiver == B.quiver and A.basis == B.basis and A.rules == B.rules
    assert A.socle_rules == B.socle_rules
    assert np.array_equal(A.act_index, B.act_index)
    assert np.array_equal(A.act_coeff, B.act_coeff)


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
        assert normal_form(A, make_path(A.quiver, ["r"] * (m + 1))) is None


def test_ae3_binomial_normal_form():
    A = ae3(4)
    ab = normal_form(A, make_path(A.quiver, ["a", "b"]))
    rm = normal_form(A, make_path(A.quiver, ["r"] * 4))
    assert ab == rm and ab is not None


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


@pytest.mark.parametrize("p", [1, 4, 32001, MAX_PRIME + 7, 2147483647,
                               2305843009213693951])
def test_unusable_primes_are_rejected_before_completion(p):
    # MAX_PRIME + 7 = 1048583 and the Mersenne numbers 2^31 - 1, 2^61 - 1
    # are prime but above the bound; 32001 = 3 * 10667
    with pytest.raises(BadPrime):
        ae1(2, p=p)


def test_products_stay_exact_up_to_the_prime_bound():
    p = next(q for q in range(MAX_PRIME, 0, -1) if q % 2 and
             all(q % d for d in range(3, int(q ** 0.5) + 1, 2)))
    assert require_prime(p) == p == 1048573
    assert (2 ** 23 - 1) * (MAX_PRIME - 1) ** 2 < 2 ** 63
    n = 4096
    a = np.full((2, n), p - 1, dtype=np.int64)
    got = linalg.mat_mul(a, a.T, p)
    assert (got == n * (p - 1) ** 2 % p).all()


def test_memo_key_ignores_the_call_form():
    calls = []

    @memoized
    def scaled(owner, x, factor=1, shift=None):
        calls.append((x, factor, shift))
        return [x * factor]

    o = SimpleNamespace(memo={})
    first = scaled(o, 3)
    assert scaled(o, 3, 1) is first
    assert scaled(o, x=3, shift=None) is first
    assert scaled(o, 3, factor=1, shift=None) is first
    assert scaled(o, 3, 1, None) is first
    assert scaled(o, 3, 2) == [6] and scaled(o, 3, factor=2) == [6]
    assert calls == [(3, 1, None), (3, 2, None)]
    for args, kwargs in [((), {}), ((o,), {}), ((o, 3, 1, None, 0), {}),
                         ((o, 3), {"x": 3}), ((o, 3), {"scale": 2})]:
        with pytest.raises(TypeError):
            scaled(*args, **kwargs)
    assert len(calls) == 2


def test_positional_memo_calls_do_not_bind_the_signature(monkeypatch):
    # a call without keywords is keyed from its arguments and the defaults
    # taken when the function was decorated
    def refuse(self, *args, **kwargs):
        raise AssertionError("Signature.bind reached")

    A = ae2(3)
    words = enumerate_strings(A)
    monkeypatch.setattr(inspect.Signature, "bind", refuse)
    assert enumerate_strings(A) is words
    for w in words:
        M = string_module(A, w)
        assert string_module(A, w) is M
        pres = presentation(M)  # a miss: covers, projectives and their paths
        assert presentation(M) is pres
    with pytest.raises(AssertionError, match="Signature.bind reached"):
        string_module(A, word=words[0])


def test_associativity_is_exhaustively_checked():
    for A in (ae1(5), ae2(2), ae3(4)):
        assert A.verify_associativity()
        assert first_bad_triple(*grown_product_table(A), A.p) is None


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

    A = build_family(family, m)
    longest = max(q.length for q in A.basis)
    arrows = [(a.name, a.source, a.target) for a in A.quiver.arrows]
    rng = random.Random(1234)
    for names, s, t in all_paths(list(A.quiver.vertices), arrows, 2 * longest):
        path = make_path(A.quiver, names, base_vertex=s)
        expected = as_dict(normal_form(A, path))
        for _ in range(4):
            assert _random_reduce(A, path, rng) == expected


@pytest.mark.parametrize("family,m", [("ae1", m) for m in range(1, 6)]
                         + [("ae2", m) for m in range(1, 4)]
                         + [("ae3", m) for m in range(2, 5)])
def test_table_entries_are_reduced_concatenations(family, m):
    from strcat import build_family

    A = build_family(family, m)
    rng = random.Random(99)
    n, arrows = A.dim, A.quiver.arrows
    assert A.act_index.shape == A.act_coeff.shape == (n + 1, len(arrows))
    assert (A.act_index[n] == n).all() and not A.act_coeff[n].any()
    for k, q in enumerate(A.basis):
        for x, a in enumerate(arrows):
            want = {}
            if q.target == a.source:
                want = _random_reduce(A, make_path(A.quiver, q.arrows + (a.name,),
                                                   base_vertex=q.source), rng)
            i, c = A.act_index[k, x], A.act_coeff[k, x]
            assert (i == n and c == 0) or (i < n and c != 0)
            got = {} if i == n else {A.basis[i]: c}
            assert got == want, (str(q), a.name)


SMALL_FAMILIES = ([("ae1", m) for m in range(1, 9)] + [("ae2", m) for m in range(1, 5)]
                  + [("ae3", m) for m in range(2, 7)])


def assert_tables_equal_direct_reduction(A):
    """The act table, the product table grown from it, the socle rules and
    the projectives all equal direct reduction, and the grown product table
    is associative triple by triple."""
    index, coeff = reduced_act_tables(A)
    assert np.array_equal(A.act_index, index) and np.array_equal(A.act_coeff, coeff)
    grown = grown_product_table(A)
    index, coeff = reduced_tables(A)
    assert np.array_equal(grown[0], index) and np.array_equal(grown[1], coeff)
    assert first_bad_triple(*grown, A.p) is None
    assert A.socle_rules == reduced_socle_rules(A)
    for v in A.quiver.vertices:
        mats = indecomposable_projective(A, v).mats
        want = reduced_projective_mats(A, v)
        assert mats.keys() == want.keys()
        assert all(np.array_equal(mats[name], want[name]) for name in want), v


@pytest.mark.parametrize("family,m", SMALL_FAMILIES)
def test_tables_socle_rules_and_projectives_equal_direct_reduction(family, m):
    assert_tables_equal_direct_reduction(build_family(family, m))


def act_table_value(A, path):
    """``path`` as (basis index, coeff) read off the act table alone: the
    trivial path at its source acted on by each of its arrows in turn,
    index ``dim`` with coefficient 0 standing for zero."""
    k, c = A.index[trivial_path(path.source)], 1
    for name in path.arrows:
        x = A.quiver.arrow_index(name)
        k, c = A.act_index[k, x], c * A.act_coeff[k, x] % A.p
    return int(k), int(c)


def assert_act_table_gives_every_normal_form(A, paths):
    for path in paths:
        term = normal_form(A, path)
        want = (A.dim, 0) if term is None else (A.index[term[0]], term[1])
        assert act_table_value(A, path) == want, str(path)


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
@pytest.mark.parametrize("family,m", ORACLE_CASES)
def test_act_table_is_the_only_multiplication(family, m, p):
    # the act table gives the scanned normal form of every path up to twice
    # the longest basis path, and the algebra keeps no rewriter to ask instead
    A = build_family(family, m, p)
    assert not any(isinstance(v, _Rewriter) for v in vars(A).values())
    assert not hasattr(A, "reduce_path")
    longest = max(q.length for q in A.basis)
    arrows = [(a.name, a.source, a.target) for a in A.quiver.arrows]
    assert_act_table_gives_every_normal_form(
        A, [make_path(A.quiver, names, base_vertex=s)
            for names, s, _ in all_paths(list(A.quiver.vertices), arrows, 2 * longest)])


@pytest.mark.parametrize("family,m", [("ae1", 64), ("ae2", 16), ("ae3", 64)])
def test_table_build_reduces_once_per_basis_path_and_arrow(family, m, monkeypatch):
    # basis and table come from one pass after completion: one reduction per
    # (basis path, arrow) that composes, not one per pair of basis paths, and
    # no redex search of their own; every search outside a reduction is
    # completion's interreduction check of a live rule's side
    inside, depth, calls, stray = [False], [0], [], []
    reduce_path, find_redex, init = _Rewriter.reduce_path, _Rewriter._find_redex, Algebra.__init__

    def counted_reduce(self, *args, **kwargs):
        calls.extend([None] * inside[0])
        depth[0] += 1
        try:
            return reduce_path(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    def checked_find(self, path, *args, **kwargs):
        if not depth[0] and not any(path in (r.lhs, r.rhs) for r in self.rules):
            stray.append(str(path))
        return find_redex(self, path, *args, **kwargs)

    def traced_init(self, *args, **kwargs):
        inside[0] = True
        try:
            init(self, *args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(_Rewriter, "reduce_path", counted_reduce)
    monkeypatch.setattr(_Rewriter, "_find_redex", checked_find)
    monkeypatch.setattr(Algebra, "__init__", traced_init)
    A = build_family(family, m)
    assert len(calls) == sum(a.source == q.target for q in A.basis for a in A.quiver.arrows)
    assert not stray


@pytest.mark.parametrize("m", [2, 3, 8])
def test_completion_resolves_each_critical_pair_once(m, monkeypatch):
    # ae3's binomial rule a*b -> r^m overlaps b*r -> 0 and r*a -> 0 once each,
    # and each overlap builds the word r^(m+1) once; a second pass over the
    # same pairs would build it again
    inside, words = [False], []
    make, complete = quiver_core.make_path, quiver_core.complete_rewriting

    def counted_make(*args, **kwargs):
        path = make(*args, **kwargs)
        words.extend([path.arrows] * inside[0])
        return path

    def traced_complete(*args, **kwargs):
        inside[0] = True
        try:
            return complete(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(quiver_core, "make_path", counted_make)
    monkeypatch.setattr(quiver_core, "complete_rewriting", traced_complete)
    build_family("ae3", m)
    assert words == [("r",) * (m + 1)] * 2


def test_corrupted_act_table_names_the_basis_path_it_breaks():
    A = ae2(2)
    a, b = (A.index[make_path(A.quiver, [x])] for x in "ab")
    x = A.quiver.arrow_index("b")
    assert A.basis[A.act_index[a, x]] == make_path(A.quiver, ["a", "b"])
    A.act_coeff[a, x] = 2  # a*b = 2 ab, so ab is not its prefix a times b
    with pytest.raises(StrcatError, match=r"^act table: basis path a\*b is not its prefix "
                                          r"times b$"):
        A.verify_associativity()


@pytest.mark.parametrize("m", range(1, 6))
def test_a_cyclic_group_table_on_ae1_is_rejected_at_its_rule(m):
    # a^(m+1) := e0 turns the table of ae1(m) into the regular action of
    # k[Z/(m+1)], which is associative, so a product-table certificate
    # accepts it; the rule a^(m+1) -> 0 does not hold on it
    A = ae1(m)
    top = A.index[make_path(A.quiver, ["a"] * m)]
    A.act_index[top, 0], A.act_coeff[top, 0] = A.index[trivial_path(0)], 1
    assert first_bad_triple(*grown_product_table(A), A.p) is None
    rule = "*".join(["a"] * (m + 1)) + " -> 0"
    with pytest.raises(StrcatError, match=rf"^act table: rule {re.escape(rule)} fails on it$"):
        A.verify_associativity()


def test_entries_off_the_quiver_are_rejected():
    # without rules, only the zero row and the endpoint conditions see these
    A = load_algebra_spec({"vertices": [0, 1, 2],
                           "arrows": [{"name": "a", "from": 0, "to": 1},
                                      {"name": "b", "from": 1, "to": 2}],
                           "rules": [], "dim_bound": 6})
    assert [str(q) for q in A.basis] == ["e0", "e1", "e2", "a", "b", "a*b"]
    e0, e1, a, ab = (A.index[make_path(A.quiver, w, base_vertex=v)]
                     for w, v in [([], 0), ([], 1), (["a"], 0), (["a", "b"], 0)])
    # each change breaks one endpoint condition only: the path it acts on
    # ends elsewhere, the product ends elsewhere, or it starts elsewhere
    for k, x, value, message in [(e1, 0, e1, "e1 times a does not compose"),
                                 (e0, 0, e0, "e0 times a does not compose"),
                                 (e1, 1, ab, "e1 times b does not compose"),
                                 (A.dim, 0, a, "zero times a is not zero")]:
        old = A.act_index[k, x], A.act_coeff[k, x]
        A.act_index[k, x], A.act_coeff[k, x] = value, 1
        with pytest.raises(StrcatError, match=f"^act table: {message}"):
            A.verify_associativity()
        A.act_index[k, x], A.act_coeff[k, x] = old
    assert A.verify_associativity()


def test_a_trivial_right_side_is_the_identity_on_its_vertex():
    # x -> 3*e0 compares x with 3 times the identity on the paths ending
    # at 0; e1 and y end at 1, and x kills them
    A = load_algebra_spec({
        "vertices": [0, 1],
        "arrows": [{"name": "x", "from": 0, "to": 0}, {"name": "y", "from": 0, "to": 1}],
        "rules": [{"lhs": ["x"], "rhs": {"coeff": 3, "path": []}}],
        "dim_bound": 4})
    assert [str(r) for r in A.rules] == ["x -> 3*e0"]
    assert A.verify_associativity()
    e0, x = A.index[trivial_path(0)], A.quiver.arrow_index("x")
    assert (A.act_index[e0, x], A.act_coeff[e0, x]) == (e0, 3)
    A.act_coeff[e0, x] = 2
    with pytest.raises(StrcatError, match=r"^act table: rule x -> 3\*e0 fails on it$"):
        A.verify_associativity()


def act_table_corruptions(A, rng):
    """Single-entry changes (table, k, x, new value) of the act table, its
    zero row included: each index moved to another basis path or to zero,
    each coefficient doubled, zeroed and replaced by a nonzero one."""
    n, p = A.dim, A.p
    for k, x in np.ndindex(*A.act_index.shape):
        yield A.act_index, k, x, (A.act_index[k, x] + rng.randrange(1, n + 1)) % (n + 1)
        yield A.act_coeff, k, x, 2 * A.act_coeff[k, x] % p
        yield A.act_coeff, k, x, 0
        yield A.act_coeff, k, x, rng.randrange(1, p)


def assert_associativity_verdict_matches_a_scan(A, corruptions):
    """After each change, verify_associativity passes exactly when a scan
    of the table finds every entry equal to its direct reduction, so every
    change that moves an entry is rejected; returns the set of verdicts."""
    reduced = reduced_act_tables(A)
    verdicts = set()
    for table, k, x, value in corruptions:
        old = table[k, x]
        table[k, x] = value
        try:
            sound = all(np.array_equal(got, want)
                        for got, want in zip((A.act_index, A.act_coeff), reduced))
            if sound:
                assert A.verify_associativity()
            else:
                with pytest.raises(StrcatError, match="^act table: "):
                    A.verify_associativity()
            verdicts.add(sound)
        finally:
            table[k, x] = old
    return verdicts


@pytest.mark.parametrize("family,m", SMALL_FAMILIES)
def test_associativity_verdicts_on_corrupted_tables_match_a_scan(family, m):
    A = build_family(family, m)
    verdicts = assert_associativity_verdict_matches_a_scan(
        A, list(act_table_corruptions(A, random.Random(m))))
    assert False in verdicts


@pytest.mark.parametrize("family,m", [("ae1", 512), ("ae2", 128), ("ae3", 512)])
def test_certificate_holds_less_than_a_square_table(family, m):
    # the certificate works on (dim+1) x arrows tables and maps of dim+1
    # rows; one (dim+1) x (dim+1) int64 table would outweigh all of it
    A = build_family(family, m)
    tracemalloc.start()
    try:
        assert A.verify_associativity()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (A.dim + 1) ** 2
    arrays = [v for v in vars(A).values() if isinstance(v, np.ndarray)]
    assert max(v.size for v in arrays) == (A.dim + 1) * len(A.quiver.arrows)


@st.composite
def small_specs(draw, dim_bound=8):
    """Quivers with at most 2 vertices and 3 arrows, up to 5 monomial rules
    of length 2 or 3, and at most one binomial rule between two distinct
    nonempty paths with common endpoints.

    The monomial rules alone must leave at most ``dim_bound`` paths, so
    that every derived rule is short and completion ends quickly; on an
    infinite presentation it can take tens of seconds to reach its
    resolution cap.
    """
    vertices = list(range(draw(st.integers(1, 2))))
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    arrows = [(f"x{i}", s, t) for i, (s, t) in
              enumerate(draw(st.lists(ends, min_size=1, max_size=3)))]
    words = [(names, s, t) for names, s, t in all_paths(vertices, arrows, 3) if names]
    long_words = [names for names, _, _ in words if len(names) > 1]
    monomials = draw(st.lists(st.sampled_from(long_words), max_size=5, unique=True)
                     if long_words else st.just([]))
    frontier = [((), v) for v in vertices]  # the paths avoiding every monomial
    count = len(frontier)
    while frontier and count <= dim_bound:
        frontier = [(names + (n,), t) for names, v in frontier for n, s, t in arrows
                    if s == v and not any(contains_word(names + (n,), w) for w in monomials)]
        count += len(frontier)
    assume(count <= dim_bound)
    rules = [{"lhs": list(w), "rhs": None} for w in monomials]
    if draw(st.booleans()):
        lhs, s, t = draw(st.sampled_from(words))
        parallel = [w for w in words if w[1:] == (s, t) and w[0] != lhs]
        assume(parallel)
        rhs = draw(st.sampled_from(parallel))[0]
        coeff = draw(st.integers(1, DEFAULT_PRIME - 1))
        rules.append({"lhs": list(lhs), "rhs": {"coeff": coeff, "path": list(rhs)}})
    return {"vertices": vertices,
            "arrows": [{"name": n, "from": s, "to": t} for n, s, t in arrows],
            "rules": rules, "dim_bound": dim_bound}


@given(spec=small_specs())
def test_completion_of_random_specs_matches_the_oracles(spec):
    arrows = [(a["name"], a["from"], a["to"]) for a in spec["arrows"]]
    A = built_or_skipped(spec)
    longest = max(q.length for q in A.basis)
    paths = [make_path(A.quiver, names, base_vertex=s)
             for names, s, _ in all_paths(spec["vertices"], arrows, 2 * longest)]
    assume(len(paths) <= 400)
    if all(r["rhs"] is None for r in spec["rules"]):
        monomials = [tuple(r["lhs"]) for r in spec["rules"]]
        assert A.dim == monomial_dimension(spec["vertices"], arrows, monomials,
                                           longest + 2)
    assert_act_table_gives_every_normal_form(A, paths)
    rng = random.Random(7)
    for path in paths:
        assert _random_reduce(A, path, rng) == as_dict(normal_form(A, path)), str(path)


def built_or_skipped(spec):
    try:
        return load_algebra_spec(spec)
    except (DimensionBoundExceeded, NonTerminating):
        assume(False)


@given(spec=small_specs())
def test_basis_of_random_specs_is_in_path_key_order(spec):
    assert_basis_in_path_key_order(built_or_skipped(spec))


@given(spec=small_specs())
def test_tables_of_random_specs_equal_direct_reduction(spec):
    assert_tables_equal_direct_reduction(built_or_skipped(spec))


@given(spec=small_specs(), seed=st.integers(0, 2 ** 16))
def test_associativity_verdicts_on_corrupted_random_tables_match_a_scan(spec, seed):
    A = built_or_skipped(spec)
    assert A.verify_associativity()
    assert_associativity_verdict_matches_a_scan(A, act_table_corruptions(A, random.Random(seed)))


def assert_suffix_search_matches_a_scan(rw, path):
    """When the path less its last arrow holds no redex, a search from
    ``suffix_start`` finds what a scan of every position finds."""
    if path.arrows and scanned_redex(rw.rules, replace(path, arrows=path.arrows[:-1])) is None:
        start = rw.suffix_start(path.length)
        assert rw._find_redex(path, start=start) == scanned_redex(rw.rules, path), str(path)


@given(spec=small_specs())
def test_redex_search_of_random_specs_matches_a_scan(spec):
    A = built_or_skipped(spec)
    rw = _Rewriter(A.p, step_cap=100)  # over the completed rules, in their order
    for rule in A.rules:
        rw.add(rule)
    arrows = [(a["name"], a["from"], a["to"]) for a in spec["arrows"]]
    longest = max(r.lhs.length for r in rw.rules) if rw.rules else 1
    paths = [make_path(A.quiver, names, base_vertex=s)
             for names, s, _ in all_paths(spec["vertices"], arrows, longest + 2)][:300]
    for path in paths:
        assert rw._find_redex(path) == scanned_redex(rw.rules, path), str(path)
        assert_suffix_search_matches_a_scan(rw, path)
        for rule in rw.rules:
            assert (rw._find_redex(path, exclude=rule)
                    == scanned_redex(rw.rules, path, exclude=rule)), (str(path), str(rule))


@given(data=st.data())
def test_redex_search_keeps_insertion_order_through_removals(data):
    # overlapping and repeated left sides, so that several rules match at one
    # position and the first one in list order must win
    arrows = [("x", 0, 0), ("y", 0, 0)]
    q = make_quiver([0], arrows)
    words = [names for names, _, _ in all_paths([0], arrows, 3) if names]
    rw = _Rewriter(DEFAULT_PRIME, step_cap=100)
    for _ in range(data.draw(st.integers(1, 12))):
        if rw.rules and data.draw(st.booleans()):
            rw.remove(data.draw(st.sampled_from(rw.rules)))
        else:
            rw.add(RewriteRule(make_path(q, data.draw(st.sampled_from(words)))))
    for names, _, _ in all_paths([0], arrows, 5):
        path = make_path(q, names, base_vertex=0)
        assert_suffix_search_matches_a_scan(rw, path)
        for start in range(len(names) + 1):
            assert (rw._find_redex(path, start=start)
                    == scanned_redex(rw.rules, path, start=start)), (names, start)
        for rule in rw.rules:
            assert rw._find_redex(path, exclude=rule) == scanned_redex(rw.rules, path,
                                                                        exclude=rule)


@given(data=st.data())
def test_reduction_matches_a_leftmost_scan(data):
    # rules that shrink paths in the path order, so every reduction ends; a
    # rewrite can create a redex that starts before it
    arrows = [("x", 0, 0), ("y", 0, 0)]
    q = make_quiver([0], arrows)
    paths = [make_path(q, names, base_vertex=0) for names, _, _ in all_paths([0], arrows, 6)]
    rw = _Rewriter(DEFAULT_PRIME, step_cap=100)
    for _ in range(data.draw(st.integers(1, 5))):
        lhs = data.draw(st.sampled_from([w for w in paths if 1 <= w.length <= 3]))
        smaller = [w for w in paths if path_key(q, w) < path_key(q, lhs)]
        rhs = data.draw(st.sampled_from([None] + smaller))
        coeff = None if rhs is None else data.draw(st.integers(1, DEFAULT_PRIME - 1))
        rw.add(RewriteRule(lhs, coeff, rhs))
    for path in paths:
        want = scanned_reduction(rw.rules, path, DEFAULT_PRIME)
        assert rw.reduce_path(path) == want, str(path)
        if path.arrows and scanned_redex(rw.rules, replace(path, arrows=path.arrows[:-1])) is None:
            assert rw.reduce_path(path, 1, rw.suffix_start(path.length)) == want, str(path)


def test_rule_whose_right_side_contains_its_left_side_is_rejected():
    # x -> x*x never terminates; the algebra is not the one the basis
    # e0, e1, y would describe (x and x*y survive as well)
    q = make_quiver([0, 1], [("y", 0, 1), ("x", 0, 0)])
    rule = RewriteRule(make_path(q, ["x"]), 1, make_path(q, ["x", "x"]))
    with pytest.raises(NonTerminating):
        complete_rewriting(q, [rule], dim_bound=6)


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
