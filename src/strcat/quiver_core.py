"""Quivers, paths, and bound quiver algebras via rewriting completion.

An algebra is presented by a quiver together with monomial rules
(path -> 0) and binomial rules (path -> scalar * path).  Completion
resolves a queue of critical pairs, each rule pair once, so that every
path has a unique normal form; the irreducible paths form the basis.
Every rule sends a path to zero or to a scalar times one path, so a
normal form is one term (path, coeff) or zero, and so is a basis path
times an arrow: the algebra's right action on its basis is two integer
arrays of shape (dim+1, arrows), the basis index and the coefficient of
each such product.  One breadth-first pass of such products gives both
the basis and the table, and construction certifies that table against
the rules (``Algebra.verify_associativity``).  The rewriter serves
construction only: a built algebra multiplies through its act table.

The built-in families are specs too: ``build_family`` hands the quiver
and rules in a family's record (``strcat.families``) to
``load_algebra_spec``, the path every ``--family file`` input takes.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import re
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import indexmaps
from .errors import (
    BadParameter,
    BadPrime,
    DimensionBoundExceeded,
    NonTerminating,
    StrcatError,
)

DEFAULT_PRIME = 32003

# Every int64 accumulation in the package (``linalg.mat_mul`` and the row
# update of ``linalg.rref``) sums at most n products of two residues below
# p.  With p <= MAX_PRIME, n * (p - 1)**2 < 2**63 for every inner
# dimension n < 2**23.
MAX_PRIME = 2 ** 20

# No built-in algebra, and no spec's ``dim_bound``, may exceed this
# dimension.  The largest built-in in use, ae2 at m = 32, has dimension
# 130.  On a 2-vCPU Xeon, building ae1 takes 0.008 s at dimension 129,
# 0.02 s at 257, 0.04 s at 512 and 0.14 s at 1024 (ae2 0.08 s and ae3
# 0.18 s at 1024), of which the act-table certificate is 0.6 ms at
# dimension 129 and 7-14 ms at 1024; above a few hundred, most of a build
# is sorting the basis into the path order.  The cap refuses a runaway
# ``m`` or ``dim_bound`` before any time or memory is spent on it.
MAX_DIM = 1024


def require_prime(p: int) -> int:
    """``p`` if it is a prime no larger than MAX_PRIME, else BadPrime.

    Under the bound, trial division takes at most 2**10 steps.
    """
    if not 2 <= p <= MAX_PRIME or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise BadPrime(f"{p} is not a prime <= {MAX_PRIME}")
    return p


class Arrow(NamedTuple):
    name: str
    source: int
    target: int


TRIVIAL_LITERAL = re.compile(r"e(\d+)")
_ARROW_NAME = re.compile(r"(?!e\d+$)[^,~\s]+")


@dataclass(frozen=True)
class Quiver:
    """Vertices are integers >= 0.  A string literal (``strcat.strings``)
    joins arrow names with commas, marks an inverse with ``~``, strips
    whitespace and reads ``TRIVIAL_LITERAL`` as a trivial word, so an arrow
    name holds none of those and is not of that form (``_ARROW_NAME``);
    then every path and string prints as a literal that reads back.  Each
    letter ``(name, inverse)`` has one character, ``codes[letter]`` =
    chr(inverse * #arrows + declaration index), and each vertex one after
    those in increasing order, so spellings sort as words do
    (``strings.word_key``); ``flip_codes`` flips a letter's to its inverse's."""

    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        for v in self.vertices:
            if type(v) is not int or v < 0:
                raise StrcatError(f"vertex {v!r} is not an integer >= 0")
        if len(set(self.vertices)) != len(self.vertices):
            raise StrcatError("duplicate vertex ids")
        names = [a.name for a in self.arrows]
        for name in names:
            if not isinstance(name, str) or not _ARROW_NAME.fullmatch(name):
                raise StrcatError(f"arrow name {name!r} is empty, holds ',', '~' or "
                                  "whitespace, or is e<digits>")
        if len(set(names)) != len(names):
            raise StrcatError("duplicate arrow names")
        vs = set(self.vertices)
        for a in self.arrows:
            if any(type(v) is not int or v not in vs for v in (a.source, a.target)):
                raise StrcatError(f"arrow {a.name} touches an undeclared vertex")
        # name -> declaration index, and (name, inverse) -> (source, target)
        # of the arrow or its formal inverse, set once (the dataclass is frozen)
        object.__setattr__(self, "_positions", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_ends", {
            (a.name, inverse): (a.target, a.source) if inverse else (a.source, a.target)
            for a in self.arrows for inverse in (False, True)})
        n = len(names)
        object.__setattr__(self, "codes", {
            **{(name, inv): chr(inv * n + i) for i, name in enumerate(names)
               for inv in (False, True)},
            **{v: chr(2 * n + k) for k, v in enumerate(sorted(self.vertices))}})
        object.__setattr__(self, "flip_codes", {k: (k + n) % (2 * n) for k in range(2 * n)})

    def arrow(self, name: str) -> Arrow:
        return self.arrows[self.arrow_index(name)]

    def arrow_index(self, name: str) -> int:
        try:
            return self._positions[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise StrcatError(f"unknown arrow {name!r}") from None

    def letter_ends(self, letter: tuple[str, bool]) -> tuple[int, int]:
        """(source, target) of the letter ``(name, inverse)``: the arrow's,
        or swapped for its formal inverse."""
        try:
            return self._ends[letter]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise StrcatError(f"unknown arrow {letter[0]!r}") from None

    def has_arrow(self, name: str) -> bool:
        return name in self._positions

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


class _Rewriter:
    """Reduces coeff * path modulo an oriented rule set to one term or None.

    ``rules`` keeps insertion order.  ``add`` and ``remove`` also keep the
    left sides in a trie over arrow names.  A node is [children by arrow
    name, the rules whose left side ends there with their insertion ranks,
    a lower bound on the arrows still needed to reach such an end below].
    A redex search walks the trie from each position and stops where the
    path is too short to finish any left side, instead of comparing every
    rule at every position.
    """

    def __init__(self, p: int, step_cap: int):
        self.p = p
        self.step_cap = step_cap
        self.rules: list[RewriteRule] = []
        self._trie: list = [{}, [], 0]
        self._added = 0
        self._lengths: set[int] = set()  # the left-side lengths ever added

    def add(self, rule: RewriteRule):
        self.rules.append(rule)
        lhs = rule.lhs.arrows
        node = self._trie
        for depth, name in enumerate(lhs, 1):
            node = node[0].setdefault(name, [{}, [], len(lhs)])
            node[2] = min(node[2], len(lhs) - depth)
        node[1].append((self._added, rule))
        self._added += 1
        self._lengths.add(len(lhs))

    def remove(self, rule: RewriteRule):
        """Remove the first rule equal to ``rule``.  The needed-arrow bounds
        and ``_lengths`` are left as they were, so they stay lower bounds
        and a superset of the lengths."""
        self.rules.remove(rule)
        node = self._trie
        for name in rule.lhs.arrows:
            node = node[0][name]
        ends = node[1]
        del ends[next(i for i, (_, r) in enumerate(ends) if r == rule)]

    def suffix_start(self, n: int) -> int:
        """Where a redex that ends at the last of n arrows can start at the
        earliest: a search from there suffices when the first n - 1 arrows
        are irreducible."""
        return n - max((k for k in self._lengths if k <= n), default=0)

    def _find_redex(self, path: Path, exclude: RewriteRule | None = None,
                    start: int = 0) -> tuple[int, RewriteRule] | None:
        """The leftmost position from ``start`` on where a rule other than
        ``exclude`` matches, and the first such rule in insertion order."""
        arrows = path.arrows
        n = len(arrows)
        for pos in range(start, n):
            children = self._trie[0]
            best = None
            for i in range(pos, n):
                node = children.get(arrows[i])
                if node is None or node[2] >= n - i:  # fewer arrows left than needed
                    break
                children, ends, _ = node
                for entry in ends:
                    if entry[1] is not exclude and (best is None or entry[0] < best[0]):
                        best = entry
            if best is not None:
                return pos, best[1]
        return None

    def reduce_path(self, path: Path, coeff: int = 1,
                    start: int = 0) -> tuple[Path, int] | None:
        """The normal form of coeff * path; ``path`` must hold no redex
        that starts before ``start``."""
        coeff %= self.p
        steps = 0
        while coeff:
            hit = self._find_redex(path, start=start)
            if hit is None:
                return path, coeff
            steps += 1
            if steps > self.step_cap:
                raise NonTerminating("rewriting exceeded its step cap")
            pos, rule = hit
            if rule.rhs is None:
                return None
            # a rule keeps its endpoints, so the rewritten word composes
            arrows = path.arrows
            path = Path(path.source, path.target,
                        arrows[:pos] + rule.rhs.arrows + arrows[pos + len(rule.lhs.arrows):])
            coeff = coeff * rule.coeff % self.p
            # the prefix before pos held no redex, so a new one overlaps pos
            start = max(0, pos - max(self._lengths) + 1)
        return None


def _orient(quiver: Quiver, x: tuple[Path, int] | None, y: tuple[Path, int] | None,
            p: int, preferred_lhs: Path | None = None) -> RewriteRule | None:
    """Turn a relation x == y between reduced terms (None is zero) into a rule.

    The larger path under the path order goes on the left, except that a
    surviving ``preferred_lhs`` keeps its side: a caller-supplied binomial
    rule such as ab -> r^m stays oriented as given even when its right
    side is the longer path (the normal forms are then the loop powers).
    """
    if x is not None and y is not None and x[0] == y[0]:
        c = (x[1] - y[1]) % p
        x, y = ((x[0], c) if c else None), None
    if x is None or y is None:
        term = x or y
        return None if term is None else RewriteRule(term[0])
    (big, cb), (small, cs) = sorted((x, y), key=lambda t: path_key(quiver, t[0]),
                                    reverse=True)
    if small == preferred_lhs:
        (big, cb), (small, cs) = (small, cs), (big, cb)
    return RewriteRule(big, cs * pow(cb, -1, p) % p, small)


def complete_rewriting(quiver: Quiver, rules: Iterable[RewriteRule],
                       dim_bound: int, p: int = DEFAULT_PRIME) -> "Algebra":
    """Complete the rule set to confluence and build the algebra.

    Each rule that joins the set queues its critical pairs with every live
    rule, itself included, in both orders.  The queue is resolved first in,
    first out: every overlap of a pair's left sides is reduced both ways
    under the rules of the moment, and a difference joins the set as a new
    rule.  A pair whose rule interreduction has since removed is skipped,
    since the rebuilt rule queued its own pairs when it was added.  So each
    critical pair is resolved once, and an empty queue leaves every pair of
    live rules resolved, which is confluence.

    Raises DimensionBoundExceeded when more than ``dim_bound`` irreducible
    paths appear, and NonTerminating when completion or rewriting runs
    past its caps.
    """
    if dim_bound < 1:
        raise StrcatError("dim_bound must be >= 1")
    require_prime(p)

    rw = _Rewriter(p, step_cap=200 + 40 * dim_bound)
    pairs: deque[tuple[RewriteRule, RewriteRule]] = deque()
    resolution_cap = 10 * dim_bound
    resolutions = 0

    def reduce_rule(rule: RewriteRule) -> RewriteRule | None:
        """The rule lhs -> coeff * rhs re-derived under the current rules."""
        rhs = None if rule.rhs is None else rw.reduce_path(rule.rhs, rule.coeff)
        return _orient(quiver, rw.reduce_path(rule.lhs), rhs, p, rule.lhs)

    def add_rule(rule: RewriteRule | None) -> bool:
        nonlocal resolutions
        if rule is None:
            return False
        resolutions += 1
        if resolutions > resolution_cap:
            raise NonTerminating("completion exceeded its resolution cap")
        rw.add(rule)
        for r in rw.rules:
            pairs.append((rule, r))
            if r is not rule:
                pairs.append((r, rule))
        return True

    def unsettled(rule: RewriteRule) -> bool:
        """Whether another rule reduces the left side or any rule the right
        side (so x -> x*x never settles)."""
        return rw._find_redex(rule.lhs, exclude=rule) is not None or (
            rule.rhs is not None and rw._find_redex(rule.rhs) is not None)

    def add_interreduced(rule: RewriteRule | None):
        if add_rule(rule):
            # interreduce: rebuild the first unsettled rule until none is left
            while (old := next(filter(unsettled, rw.rules), None)) is not None:
                rw.remove(old)
                add_rule(reduce_rule(old))

    for r in sorted(rules, key=lambda r: path_key(quiver, r.lhs)):
        add_interreduced(reduce_rule(r))

    while pairs:
        r1, r2 = pairs.popleft()
        if r1 not in rw.rules or r2 not in rw.rules:
            continue
        a1, a2 = r1.lhs.arrows, r2.lhs.arrows
        for k in range(1, min(len(a1), len(a2))):
            if a1[len(a1) - k :] != a2[:k]:
                continue
            via1 = via2 = None
            if r1.rhs is not None:
                via1 = rw.reduce_path(make_path(quiver, r1.rhs.arrows + a2[k:],
                                                base_vertex=r1.lhs.source), r1.coeff)
            if r2.rhs is not None:
                via2 = rw.reduce_path(make_path(quiver, a1[: len(a1) - k] + r2.rhs.arrows,
                                                base_vertex=r1.lhs.source), r2.coeff)
            if via1 != via2:
                add_interreduced(_orient(quiver, via1, via2, p))

    return Algebra(quiver, p, tuple(sorted(rw.rules, key=lambda r: path_key(quiver, r.lhs))),
                   rw, dim_bound)


class Algebra:
    """A finite dimensional bound quiver algebra over a prime field.

    The presentation, basis and arrow-action table are fixed at
    construction; ``memo`` fills in with results derived from them (see
    ``memoized``) as they are first asked for.  ``basis`` lists the
    irreducible paths, trivial paths first, shorter before longer.  Every
    rule sends a path to zero or to a scalar times one path, so basis path
    k times arrow x is one term: ``act_coeff[k, x]`` times basis path
    ``act_index[k, x]``, where index ``dim`` stands for zero.  The two
    arrays have shape ``(dim+1, arrows)`` and row ``dim`` is zero, so each
    column is an index map (see ``strcat.indexmaps``), and a longer path
    acts as the composite of its arrows' maps.

    Basis and table come from one breadth-first pass over the completed
    rules ``rw``: one reduction per (basis path, arrow), searched from one
    left-side length before the new arrow, since a basis path holds no
    redex.  A product that comes back as itself with coefficient 1 is a
    basis path one arrow longer.  Each length is sorted on its own by the
    arrow indices grown from the parent's key, then the source
    (``path_key`` less its length).  More than ``dim_bound`` basis paths
    raise DimensionBoundExceeded.  Construction then certifies the table
    (see ``verify_associativity``); ``rw`` is not kept.
    """

    def __init__(self, quiver: Quiver, p: int, rules: tuple[RewriteRule, ...],
                 rw: _Rewriter, dim_bound: int):
        self.quiver = quiver
        self.p = p
        self.rules = rules
        arrows = quiver.arrows
        basis: list[Path] = []
        products = []  # (basis position, arrow index, normal form)
        level = sorted((((), v), trivial_path(v)) for v in quiver.vertices)
        while level:
            basis.extend(path for _, path in level)
            if len(basis) > dim_bound:
                raise DimensionBoundExceeded(f"more than {dim_bound} irreducible paths")
            nxt = []
            for k, ((indices, source), q) in enumerate(level, len(basis) - len(level)):
                start = rw.suffix_start(q.length + 1)
                for x, a in enumerate(arrows):
                    if a.source == q.target:
                        word = Path(source, a.target, q.arrows + (a.name,))
                        term = rw.reduce_path(word, 1, start)
                        if term == (word, 1):
                            nxt.append(((indices + (x,), source), word))
                        products.append((k, x, term))
            nxt.sort(key=itemgetter(0))
            level = nxt
        self.basis = tuple(basis)
        self.dim = n = len(basis)
        self.index = {path: i for i, path in enumerate(basis)}
        self.act_index = np.full((n + 1, len(arrows)), n, dtype=np.int64)
        self.act_coeff = np.zeros((n + 1, len(arrows)), dtype=np.int64)
        for k, x, term in products:
            if term is not None:
                self.act_index[k, x] = self.index[term[0]]
                self.act_coeff[k, x] = term[1]
        self.verify_associativity()
        self.socle_rules = self._socle_quotient_rules()
        self.memo: dict = {}

    # -- construction checks -------------------------------------------------

    def verify_associativity(self) -> bool:
        """Certify that the act table is the algebra's right action on its
        basis: True, or a StrcatError naming the failing entry, basis path
        or rule.  The conditions are

        (Z) row ``dim`` is zero, and a coefficient (in 0..p-1) is 0 exactly
            where the index is ``dim``;
        (V) a nonzero entry k*a needs target(k) = source(a), and it lands on
            a basis path from source(k) to target(a);
        (G) the trivial paths are basis paths, and every other basis path
            z = z'*a has a basis path z' with ``act[z', a] == (z, 1)``;
        (R) every completed rule l -> c*r holds when l and r are composed
            as index maps over all dim+1 rows, a trivial r being the
            identity on the basis paths that end at its vertex.

        Why they suffice (Bergman's diamond lemma, Adv. Math. 29, 1978): by
        (Z) and (V) the arrows act on the span W of the basis, and by (R)
        the algebra A acts, so x -> (sum of the trivial paths) * x is a map
        phi: A -> W of right modules.  Let psi: W -> A send each basis path
        to itself.  Then psi(phi(x)) = x on every path x: on basis paths by
        (G) and induction on length, and on any other path x = u*l*w, which
        holds a left side l -> c*r because the basis is every irreducible
        path, phi(x) = c*phi(u*r*w) while x = c*u*r*w in A, by induction
        along the terminating rewriting.  So phi is one to one, onto by
        (G), and the table is A's right regular action; in particular A is
        associative, with the basis as a basis.  The work is linear in dim
        per halving of each rule's words, and the largest array is
        (dim+1) x arrows.
        """
        n, p = self.dim, self.p
        index, coeff = self.act_index, self.act_coeff
        arrows = self.quiver.arrows

        def first(bad, what):
            if bad.any():
                k, x = np.argwhere(bad)[0]
                row = self.basis[k] if k < n else "zero"
                raise StrcatError(f"act table: {row} times {arrows[x].name} {what}")

        zero = index == n
        first((index < 0) | (index > n) | (coeff < 0) | (coeff >= p) | (zero != (coeff == 0)),
              "is neither zero nor a nonzero multiple of a basis path")
        first((np.arange(n + 1) == n)[:, None] & ~zero, "is not zero")
        ends = np.array([(q.source, q.target) for q in self.basis] + [(-1, -1)])
        first(~zero & ((ends[:, 1:] != [a.source for a in arrows])
                       | (ends[index, 0] != ends[:, :1])
                       | (ends[index, 1] != [a.target for a in arrows])),
              "does not compose or keep its endpoints")
        if any(trivial_path(v) not in self.index for v in self.quiver.vertices):
            raise StrcatError("act table: a trivial path is not a basis path")
        for z, path in enumerate(self.basis):
            if path.arrows:
                x = self.quiver.arrow_index(path.arrows[-1])
                prefix = self.index.get(Path(path.source, arrows[x].source, path.arrows[:-1]))
                if prefix is None or index[prefix, x] != z or coeff[prefix, x] != 1:
                    raise StrcatError(f"act table: basis path {path} is not its prefix "
                                      f"times {arrows[x].name}")
        maps = {a.name: (index[:, x], coeff[:, x]) for x, a in enumerate(arrows)}
        products: dict = {}

        def value(path):
            if not path.arrows:
                return indexmaps.identity(n, ends[:n, 1] == path.source)
            return indexmaps.halved(path.arrows, maps.__getitem__,
                                    lambda f, g: indexmaps.compose(f, g, p), products)

        for rule in self.rules:
            right = None if rule.rhs is None else value(rule.rhs)
            if not indexmaps.agree(value(rule.lhs), right, rule.coeff, p):
                raise StrcatError(f"act table: rule {rule} fails on it")
        return True

    def _socle_quotient_rules(self) -> tuple[Path, ...]:
        """Monomial rules presenting the algebra modulo its socle.

        Every completed rule is zeroed, and each basis path annihilated by
        all arrows joins them.  For the symmetric special biserial inputs
        this package targets, the socle is spanned by basis paths and both
        sides of a binomial rule lie in it, so the quotient is monomial.
        """
        gens = {r.lhs for r in self.rules}
        for k, path in enumerate(self.basis):
            if path.length and (self.act_index[k] == self.dim).all():
                gens.add(path)
        return tuple(sorted(gens, key=lambda q: path_key(self.quiver, q)))

    # -- arithmetic -----------------------------------------------------------

    def basis_paths_from(self, v: int) -> list[Path]:
        return [q for q in self.basis if q.source == v]

    def __repr__(self) -> str:
        return (f"Algebra(dim={self.dim}, vertices={len(self.quiver.vertices)}, "
                f"arrows={len(self.quiver.arrows)}, p={self.p})")


def build_family(family: str, m: int, p: int = DEFAULT_PRIME) -> Algebra:
    """The algebra of a built-in family (see ``strcat.families``), built
    from the family's spec as a ``--family file`` input is; an ``m``
    outside the family's range raises BadParameter before any work."""
    from . import families

    fam = families.get(family)
    return load_algebra_spec({**fam.spec(fam.check_m(m)), "prime": p,
                              "dim_bound": fam.dim(m)})


# -- memo, projectives and file input ------------------------------------------


_MISSING = object()


def memoized(fn):
    """Memoize ``fn(owner, ...)`` in ``owner.memo``, the dict that every
    Algebra and Representation carries.  The key is the call bound to
    ``fn``'s signature with defaults applied, so ``f(A)``, ``f(A, None)``
    and ``f(A, cap=None)`` share one slot when None is the default.  An
    entry, always a computed result, lives exactly as long as the algebra
    or module it belongs to; no result is kept in a global cache.

    A call that passes every parameter by position, and no keyword, is
    keyed by its arguments as they stand.  Any other call without keywords
    is keyed by its arguments plus the defaults of the trailing parameters
    it leaves out, computed once here; only calls with keywords, and calls
    that cannot bind, go through ``Signature.bind``, which raises the usual
    TypeError for the latter.  A hit is one dict lookup.  A call that raises
    keeps no slot, so the next one runs ``fn`` again."""
    signature = inspect.signature(fn)
    params = list(signature.parameters.values())
    positional = all(param.kind is param.POSITIONAL_OR_KEYWORD for param in params)
    defaults = tuple(param.default for param in params)
    required = sum(param.default is param.empty for param in params)
    arity = len(params) if positional else -1
    name = (fn.__name__,)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if kwargs or len(args) != arity:
            if positional and not kwargs and required <= len(args) <= len(params):
                args += defaults[len(args):]
            else:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                args = tuple(bound.arguments.values())
        memo = args[0].memo
        slot = name + args[1:]
        got = memo.get(slot, _MISSING)
        if got is _MISSING:
            got = memo[slot] = fn(*args)
        return got

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
    """The right module on the paths leaving ``vertex``; top is S(vertex).
    Its arrows are index maps read off the act table, unchecked, since the
    table's certificate (``Algebra.verify_associativity``) holds each rule."""
    if vertex not in algebra.quiver.vertices:
        raise StrcatError(f"unknown vertex {vertex}")
    from . import homology

    by_vertex = projective_paths(algebra, vertex)
    # the basis indices of the rows at each vertex, increasing, then the zero
    # index as the sentinel row: a product goes to its place among its end's
    rows = {v: np.array([algebra.index[q] for q in ps] + [algebra.dim])
            for v, ps in by_vertex.items()}
    return homology.Representation._of_index_maps(
        algebra, {v: len(ps) for v, ps in by_vertex.items()},
        {a.name: (np.searchsorted(rows[a.target], algebra.act_index[rows[a.source], x]),
                  algebra.act_coeff[rows[a.source], x])
         for x, a in enumerate(algebra.quiver.arrows)})


_KINDS = {int: "an integer", list: "a list", dict: "an object"}


def _spec_value(obj, key: str, what: str, kind: type | None = None, default=...):
    """``obj[key]``, or ``default`` when the key is absent or holds it.
    BadParameter when ``obj`` (``what`` in messages) is not a JSON object,
    the key is absent with no default (``...``), or the value is not a
    ``kind``: an integer (a JSON number without a fraction, not a bool), a
    list (so a string is not read as its letters) or an object."""
    if not isinstance(obj, Mapping):
        raise BadParameter(f"{what} must be an object, got {obj!r}")
    value = obj.get(key, default)
    if value is ...:
        raise BadParameter(f"{what} has no {key!r}")
    if kind and value is not default and (type(value) is bool or not isinstance(value, kind)):
        raise BadParameter(f"{what} {key} must be {_KINDS[kind]}, got {value!r}")
    return value


def load_algebra_spec(source) -> Algebra:
    """Build an algebra from the JSON algebra-spec format.

    ``source`` may be a dict, a JSON string, or a path to a JSON file with
    keys vertices, arrows ({"name","from","to"}), rules ({"lhs": [names],
    "rhs": null | {"coeff": int, "path": [names]}}), prime, dim_bound.

    A spec that is not an object, a missing key or a value of the wrong
    JSON shape, a ``prime``, ``dim_bound`` or coefficient that is not an
    integer, a ``dim_bound`` outside 1..MAX_DIM, and a quiver (see
    ``Quiver`` for vertices and names) or rule that cannot be built raise
    BadParameter before completion, which raises as ``complete_rewriting``
    does.
    """
    data = source
    if not isinstance(source, Mapping):
        text = str(source)
        if text.lstrip().startswith("{"):
            data = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    p = _spec_value(data, "prime", "spec", int, DEFAULT_PRIME)
    dim_bound = _spec_value(data, "dim_bound", "spec", int)
    if not 1 <= dim_bound <= MAX_DIM:
        raise BadParameter(f"spec dim_bound must be between 1 and {MAX_DIM}, "
                           f"got {dim_bound}")
    try:
        arrows = [tuple(_spec_value(a, key, f"arrow {i}") for key in ("name", "from", "to"))
                  for i, a in enumerate(_spec_value(data, "arrows", "spec", list))]
        q = make_quiver(_spec_value(data, "vertices", "spec", list), arrows)
        rules = []
        for i, r in enumerate(_spec_value(data, "rules", "spec", list, [])):
            lhs = make_path(q, _spec_value(r, "lhs", f"rule {i}", list))
            rhs = _spec_value(r, "rhs", f"rule {i}", dict, None)
            rules.append(RewriteRule(lhs) if rhs is None else RewriteRule(
                lhs, _spec_value(rhs, "coeff", f"rule {i} rhs", int),
                make_path(q, _spec_value(rhs, "path", f"rule {i} rhs", list),
                          base_vertex=lhs.source)))
    except StrcatError as exc:
        raise BadParameter(f"spec: {exc}") from None
    return complete_rewriting(q, rules, dim_bound=dim_bound, p=p)
