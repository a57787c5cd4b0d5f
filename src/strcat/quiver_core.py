"""Quivers, paths, and bound quiver algebras via rewriting completion.

An algebra is presented by a quiver together with monomial rules
(path -> 0) and binomial rules (path -> scalar * path).  Completion
resolves all rule overlaps so that every path has a unique normal form;
the irreducible paths form the basis and multiplication reduces
concatenations.

Built-in presentations:

* ``ae1(m)``: one vertex, one loop ``a``, rule a^(m+1) -> 0.
* ``ae2(m)``: arrows a: 0->1 and b: 1->0, rules (ab)^m a -> 0 and
  (ba)^m b -> 0.
* ``ae3(m)``: loop ``r`` at 0 plus a: 0->1, b: 1->0, rules ra -> 0,
  br -> 0 and ab -> r^m.  Completion derives r^(m+1) -> 0.

All three are symmetric algebras of finite representation type; every
homological routine in the package runs over them exactly, for any
desk-scale parameter m.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import (
    DimensionBoundExceeded,
    NonTerminating,
    StrcatError,
    UnsupportedRelation,
)

DEFAULT_PRIME = 32003


class Arrow(NamedTuple):
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise StrcatError("duplicate vertex ids")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise StrcatError("duplicate arrow names")
        vs = set(self.vertices)
        for a in self.arrows:
            if a.source not in vs or a.target not in vs:
                raise StrcatError(f"arrow {a.name} touches an undeclared vertex")

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise StrcatError(f"unknown arrow {name!r}")

    def arrow_index(self, name: str) -> int:
        for i, a in enumerate(self.arrows):
            if a.name == name:
                return i
        raise StrcatError(f"unknown arrow {name!r}")

    def has_arrow(self, name: str) -> bool:
        return any(a.name == name for a in self.arrows)

    def arrows_from(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.source == v]

    def arrows_into(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.target == v]


def make_quiver(vertices: Iterable[int], arrows: Iterable[tuple[str, int, int]]) -> Quiver:
    return Quiver(tuple(vertices), tuple(Arrow(*a) for a in arrows))


@dataclass(frozen=True)
class Path:
    """A directed path: a composable arrow sequence, or a trivial path e_v."""

    source: int
    target: int
    arrows: tuple[str, ...] = ()

    @property
    def length(self) -> int:
        return len(self.arrows)

    def __str__(self) -> str:
        return "*".join(self.arrows) if self.arrows else f"e{self.source}"


def trivial_path(v: int) -> Path:
    return Path(v, v, ())


def make_path(quiver: Quiver, arrows: Iterable[str], base_vertex: int | None = None) -> Path:
    names = tuple(arrows)
    if not names:
        if base_vertex is None:
            raise StrcatError("a trivial path needs its base vertex")
        return trivial_path(base_vertex)
    objs = [quiver.arrow(n) for n in names]
    for x, y in zip(objs, objs[1:]):
        if x.target != y.source:
            raise StrcatError(f"arrows {x.name} and {y.name} do not compose")
    return Path(objs[0].source, objs[-1].target, names)


def path_key(quiver: Quiver, path: Path) -> tuple:
    """Total order on paths: length, then lexicographic by arrow declaration."""
    return (path.length, tuple(quiver.arrow_index(n) for n in path.arrows), path.source)


@dataclass(frozen=True)
class RewriteRule:
    """lhs -> 0 when rhs is None, else lhs -> coeff * rhs."""

    lhs: Path
    coeff: int | None = None
    rhs: Path | None = None

    def __post_init__(self):
        if self.lhs.length < 1:
            raise StrcatError("rule left-hand sides must have length >= 1")
        if (self.rhs is None) != (self.coeff is None):
            raise StrcatError("rhs and coeff must be given together")
        if self.rhs is not None:
            if (self.rhs.source, self.rhs.target) != (self.lhs.source, self.lhs.target):
                raise StrcatError("rule sides must share source and target")

    def __str__(self) -> str:
        if self.rhs is None:
            return f"{self.lhs} -> 0"
        return f"{self.lhs} -> {self.coeff}*{self.rhs}"


Lincomb = dict[Path, int]


def _concat(p: Path, q: Path) -> Path | None:
    if p.target != q.source:
        return None
    if not p.arrows:
        return q
    if not q.arrows:
        return p
    return Path(p.source, q.target, p.arrows + q.arrows)


class _Rewriter:
    """Reduces linear combinations of paths modulo an oriented rule set."""

    def __init__(self, quiver: Quiver, p: int, step_cap: int):
        self.quiver = quiver
        self.p = p
        self.step_cap = step_cap
        self.rules: list[RewriteRule] = []

    def _find_redex(self, path: Path) -> tuple[int, RewriteRule] | None:
        arrows = path.arrows
        for pos in range(len(arrows)):
            for rule in self.rules:
                k = rule.lhs.length
                if arrows[pos : pos + k] == rule.lhs.arrows:
                    return pos, rule
        return None

    def reduce_path(self, path: Path, coeff: int = 1) -> Lincomb:
        return self.reduce({path: coeff % self.p})

    def reduce(self, comb: Lincomb) -> Lincomb:
        out: Lincomb = {}
        work = [(path, c % self.p) for path, c in comb.items() if c % self.p]
        steps = 0
        while work:
            path, c = work.pop()
            hit = self._find_redex(path)
            if hit is None:
                out[path] = (out.get(path, 0) + c) % self.p
                if out[path] == 0:
                    del out[path]
                continue
            steps += 1
            if steps > self.step_cap:
                raise NonTerminating("rewriting exceeded its step cap")
            pos, rule = hit
            if rule.rhs is None:
                continue
            left = path.arrows[:pos]
            right = path.arrows[pos + rule.lhs.length :]
            new = make_path(self.quiver, left + rule.rhs.arrows + right,
                            base_vertex=path.source)
            work.append((new, (c * rule.coeff) % self.p))
        return out


def _orient(quiver: Quiver, comb: Lincomb, p: int,
            preferred_lhs: Path | None = None) -> RewriteRule | None:
    """Turn a reduced relation (== 0) into a rule.

    The largest path under the path order goes on the left, except that a
    surviving ``preferred_lhs`` keeps its side: a caller-supplied binomial
    rule such as ab -> r^m stays oriented as given even when its right
    side is the longer path (the normal forms are then the loop powers).
    """
    terms = [(path, c) for path, c in comb.items() if c % p]
    if not terms:
        return None
    if len(terms) > 2:
        raise UnsupportedRelation(
            "completion produced a relation with more than two terms")
    if len(terms) == 1:
        return RewriteRule(terms[0][0])
    terms.sort(key=lambda t: path_key(quiver, t[0]))
    (small, cs), (big, cb) = terms
    if preferred_lhs is not None and small == preferred_lhs:
        small, cs, big, cb = big, cb, small, cs
    coeff = (-cs * pow(cb, -1, p)) % p
    return RewriteRule(big, coeff, small)


def complete_rewriting(quiver: Quiver, rules: Iterable[RewriteRule],
                       dim_bound: int, p: int = DEFAULT_PRIME) -> "Algebra":
    """Complete the rule set to confluence and build the algebra.

    Raises DimensionBoundExceeded when more than ``dim_bound`` irreducible
    paths appear, and NonTerminating when completion or rewriting runs
    past its caps.
    """
    if dim_bound < 1:
        raise StrcatError("dim_bound must be >= 1")
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise StrcatError(f"{p} is not prime")

    rw = _Rewriter(quiver, p, step_cap=200 + 40 * dim_bound)
    pending = sorted(rules, key=lambda r: path_key(quiver, r.lhs))
    resolution_cap = 10 * dim_bound
    resolutions = 0

    def rule_comb(rule: RewriteRule) -> Lincomb:
        comb: Lincomb = {rule.lhs: 1}
        if rule.rhs is not None:
            comb[rule.rhs] = (comb.get(rule.rhs, 0) - rule.coeff) % p
        return comb

    def add_relation(comb: Lincomb, preferred_lhs: Path | None = None) -> bool:
        nonlocal resolutions
        reduced = rw.reduce(comb)
        rule = _orient(quiver, reduced, p, preferred_lhs)
        if rule is None:
            return False
        resolutions += 1
        if resolutions > resolution_cap:
            raise NonTerminating("completion exceeded its resolution cap")
        rw.rules.append(rule)
        # interreduce: rebuild any existing rule the new one touches
        changed = True
        while changed:
            changed = False
            for old in list(rw.rules):
                others = _Rewriter(quiver, p, rw.step_cap)
                others.rules = [r for r in rw.rules if r is not old]
                if others._find_redex(old.lhs) is not None or (
                        old.rhs is not None and others._find_redex(old.rhs)):
                    rw.rules.remove(old)
                    re = rw.reduce(rule_comb(old))
                    newr = _orient(quiver, re, p, old.lhs)
                    if newr is not None:
                        resolutions += 1
                        if resolutions > resolution_cap:
                            raise NonTerminating(
                                "completion exceeded its resolution cap")
                        rw.rules.append(newr)
                    changed = True
                    break
        return True

    for r in pending:
        add_relation(rule_comb(r), preferred_lhs=r.lhs)

    # resolve critical pairs until no overlap yields a new relation
    while True:
        new_relations: list[Lincomb] = []
        snapshot = sorted(rw.rules, key=lambda r: path_key(quiver, r.lhs))
        for r1, r2 in itertools.product(snapshot, repeat=2):
            a1, a2 = r1.lhs.arrows, r2.lhs.arrows
            for k in range(1, min(len(a1), len(a2))):
                if a1[len(a1) - k :] != a2[:k]:
                    continue
                word = a1 + a2[k:]
                sup = make_path(quiver, word)
                via1: Lincomb = {}
                if r1.rhs is not None:
                    t = make_path(quiver, r1.rhs.arrows + a2[k:],
                                  base_vertex=sup.source)
                    via1[t] = r1.coeff % p
                via2: Lincomb = {}
                if r2.rhs is not None:
                    t = make_path(quiver, a1[: len(a1) - k] + r2.rhs.arrows,
                                  base_vertex=sup.source)
                    via2[t] = r2.coeff % p
                n1 = rw.reduce(via1)
                n2 = rw.reduce(via2)
                diff = dict(n1)
                for path, c in n2.items():
                    diff[path] = (diff.get(path, 0) - c) % p
                diff = {q: c for q, c in diff.items() if c}
                if diff:
                    new_relations.append(diff)
        if not new_relations:
            break
        progressed = False
        for rel in new_relations:
            if add_relation(rel):
                progressed = True
        if not progressed:
            break

    basis = _irreducible_paths(quiver, rw, dim_bound)
    return Algebra(quiver, p, tuple(sorted(rw.rules, key=lambda r: path_key(quiver, r.lhs))),
                   basis, rw)


def _irreducible_paths(quiver: Quiver, rw: _Rewriter, dim_bound: int) -> tuple[Path, ...]:
    lhs_words = [r.lhs.arrows for r in rw.rules]

    def tail_blocked(word: tuple[str, ...]) -> bool:
        return any(word[len(word) - len(l):] == l for l in lhs_words
                   if len(l) <= len(word))

    basis: list[Path] = [trivial_path(v) for v in quiver.vertices]
    frontier = list(basis)
    while frontier:
        nxt: list[Path] = []
        for path in frontier:
            for a in quiver.arrows_from(path.target):
                word = path.arrows + (a.name,)
                if tail_blocked(word):
                    continue
                nxt.append(Path(path.source, a.target, word))
        basis.extend(nxt)
        if len(basis) > dim_bound:
            raise DimensionBoundExceeded(
                f"more than {dim_bound} irreducible paths")
        frontier = nxt
    basis.sort(key=lambda q: path_key(quiver, q))
    return tuple(basis)


class Algebra:
    """A finite dimensional bound quiver algebra over a prime field.

    The presentation, basis and multiplication table are fixed at
    construction; ``memo`` fills in with derived modules (projectives and
    their path layout, string modules) as they are first asked for.  ``basis`` lists the
    irreducible paths, trivial paths first; products of basis elements
    reduce through the completed rule set and are tabulated once.
    """

    def __init__(self, quiver: Quiver, p: int, rules: tuple[RewriteRule, ...],
                 basis: tuple[Path, ...], _rw: _Rewriter):
        self.quiver = quiver
        self.p = p
        self.rules = rules
        self.basis = basis
        self._rw = _rw
        self.dim = len(basis)
        self.index = {path: i for i, path in enumerate(basis)}
        self._mult: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        self._build_mult_table()
        self._check_idempotents()
        self.verify_associativity()
        self.socle_rules = self._socle_quotient_rules()
        self.memo: dict = {}

    # -- construction checks -------------------------------------------------

    def _build_mult_table(self):
        for i, pi in enumerate(self.basis):
            for j, pj in enumerate(self.basis):
                prod = _concat(pi, pj)
                if prod is None:
                    self._mult[(i, j)] = ()
                    continue
                comb = self._rw.reduce_path(prod)
                self._mult[(i, j)] = tuple(
                    sorted((self.index[q], c) for q, c in comb.items()))

    def _check_idempotents(self):
        for v in self.quiver.vertices:
            if trivial_path(v) not in self.index:
                raise StrcatError("trivial paths must be irreducible")
        trivs = [self.index[trivial_path(v)] for v in self.quiver.vertices]
        for i, j in itertools.product(trivs, repeat=2):
            got = self._mult[(i, j)]
            want = ((i, 1),) if i == j else ()
            if got != want:
                raise StrcatError("trivial paths are not orthogonal idempotents")

    def verify_associativity(self) -> bool:
        """Exhaustively check (a*b)*c == a*(b*c) on basis triples."""
        n = self.dim
        for i in range(n):
            for j in range(n):
                ij = self._mult[(i, j)]
                for k in range(n):
                    left: dict[int, int] = {}
                    for t, c in ij:
                        for u, d in self._mult[(t, k)]:
                            left[u] = (left.get(u, 0) + c * d) % self.p
                    right: dict[int, int] = {}
                    for t, c in self._mult[(j, k)]:
                        for u, d in self._mult[(i, t)]:
                            right[u] = (right.get(u, 0) + c * d) % self.p
                    left = {u: c for u, c in left.items() if c}
                    right = {u: c for u, c in right.items() if c}
                    if left != right:
                        raise StrcatError(
                            f"multiplication not associative at triple {(i, j, k)}")
        return True

    def _socle_quotient_rules(self) -> tuple[Path, ...]:
        """Monomial rules presenting the algebra modulo its socle.

        Every completed rule is zeroed, and each basis path annihilated by
        all arrows joins them.  For the symmetric special biserial inputs
        this package targets, the socle is spanned by basis paths and both
        sides of a binomial rule lie in it, so the quotient is monomial.
        """
        gens = {r.lhs for r in self.rules}
        for path in self.basis:
            if path.length == 0:
                continue
            if all(self.reduce_path(_concat(path, Path(a.source, a.target, (a.name,)))) == {}
                   for a in self.quiver.arrows_from(path.target)):
                gens.add(path)
        return tuple(sorted(gens, key=lambda q: path_key(self.quiver, q)))

    # -- arithmetic -----------------------------------------------------------

    def reduce_path(self, path: Path | None) -> Lincomb:
        if path is None:
            return {}
        return self._rw.reduce_path(path)

    def basis_paths_from(self, v: int) -> list[Path]:
        return [q for q in self.basis if q.source == v]

    def __repr__(self) -> str:
        return (f"Algebra(dim={self.dim}, vertices={len(self.quiver.vertices)}, "
                f"arrows={len(self.quiver.arrows)}, p={self.p})")


# -- built-in families --------------------------------------------------------


def ae1(m: int, p: int = DEFAULT_PRIME) -> Algebra:
    """One loop ``a`` with a^(m+1) = 0; dimension m + 1."""
    if m < 1:
        raise StrcatError("ae1 needs m >= 1")
    q = make_quiver([0], [("a", 0, 0)])
    rule = RewriteRule(make_path(q, ["a"] * (m + 1)))
    return complete_rewriting(q, [rule], dim_bound=m + 1, p=p)


def ae2(m: int, p: int = DEFAULT_PRIME) -> Algebra:
    """Two vertices joined both ways; (ab)^m a = (ba)^m b = 0; dim 4m + 2."""
    if m < 1:
        raise StrcatError("ae2 needs m >= 1")
    q = make_quiver([0, 1], [("a", 0, 1), ("b", 1, 0)])
    ab = ["a", "b"] * m + ["a"]
    ba = ["b", "a"] * m + ["b"]
    rules = [RewriteRule(make_path(q, ab)), RewriteRule(make_path(q, ba))]
    return complete_rewriting(q, rules, dim_bound=4 * m + 2, p=p)


def ae3(m: int, p: int = DEFAULT_PRIME) -> Algebra:
    """Loop ``r`` at 0 plus a: 0->1, b: 1->0; ra = br = 0 and ab = r^m.

    The binomial rule is oriented ab -> r^m so the loop powers survive as
    normal forms; completion then derives r^(m+1) -> 0.  Dimension m + 5.
    """
    if m < 2:
        raise StrcatError("ae3 needs m >= 2")
    q = make_quiver([0, 1], [("r", 0, 0), ("a", 0, 1), ("b", 1, 0)])
    rules = [
        RewriteRule(make_path(q, ["r", "a"])),
        RewriteRule(make_path(q, ["b", "r"])),
        RewriteRule(make_path(q, ["a", "b"]), 1, make_path(q, ["r"] * m)),
    ]
    return complete_rewriting(q, rules, dim_bound=m + 5, p=p)


def build_family(family: str, m: int, p: int = DEFAULT_PRIME) -> Algebra:
    """The algebra of a built-in family (see ``strcat.families``)."""
    from . import families

    return families.get(family).builder(m, p)


# -- memo, projectives and file input ------------------------------------------


def memoized(fn):
    """Memoize ``fn(owner, *key)`` in ``owner.memo``, the dict that every
    Algebra and Representation carries.  An entry lives exactly as long as
    the algebra or module it belongs to; there is no global cache."""

    @functools.wraps(fn)
    def wrapper(owner, *key):
        slot = (fn.__name__, *key)
        if slot not in owner.memo:
            owner.memo[slot] = fn(owner, *key)
        return owner.memo[slot]

    return wrapper


@memoized
def projective_paths(algebra: Algebra, vertex: int) -> dict[int, list[Path]]:
    """The basis of P(vertex) at each vertex w: the basis paths from
    ``vertex`` to w, in basis order; row i of P(vertex) at w is the i-th
    path."""
    by_target: dict[int, list[Path]] = {w: [] for w in algebra.quiver.vertices}
    for q in algebra.basis_paths_from(vertex):
        by_target[q.target].append(q)
    return by_target


@memoized
def indecomposable_projective(algebra: Algebra, vertex: int):
    """The right module on the paths leaving ``vertex``; top is S(vertex)."""
    if vertex not in algebra.quiver.vertices:
        raise StrcatError(f"unknown vertex {vertex}")
    from . import homology

    by_vertex = projective_paths(algebra, vertex)
    local = {v: {q: i for i, q in enumerate(ps)} for v, ps in by_vertex.items()}
    dims = {v: len(ps) for v, ps in by_vertex.items()}
    mats = {}
    for a in algebra.quiver.arrows:
        mat = np.zeros((dims[a.source], dims[a.target]), dtype=np.int64)
        for q in by_vertex[a.source]:
            prod = _concat(q, Path(a.source, a.target, (a.name,)))
            for nf, c in algebra.reduce_path(prod).items():
                mat[local[a.source][q], local[a.target][nf]] = c
        mats[a.name] = mat
    return homology.Representation(algebra, dims, mats)


def load_algebra_spec(source) -> Algebra:
    """Build an algebra from the JSON algebra-spec format.

    ``source`` may be a dict, a JSON string, or a path to a JSON file with
    keys vertices, arrows ({"name","from","to"}), rules ({"lhs": [names],
    "rhs": null | {"coeff": int, "path": [names]}}), prime, dim_bound.
    """
    if isinstance(source, Mapping):
        data = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            data = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    q = make_quiver(data["vertices"],
                    [(a["name"], a["from"], a["to"]) for a in data["arrows"]])
    rules = []
    for r in data.get("rules", []):
        lhs = make_path(q, r["lhs"])
        rhs = r.get("rhs")
        if rhs is None:
            rules.append(RewriteRule(lhs))
        else:
            rules.append(RewriteRule(lhs, rhs["coeff"],
                                     make_path(q, rhs["path"],
                                               base_vertex=lhs.source)))
    return complete_rewriting(q, rules, dim_bound=int(data["dim_bound"]),
                              p=int(data.get("prime", DEFAULT_PRIME)))
