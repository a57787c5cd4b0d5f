"""The stable Auslander-Reiten quiver, built from hooks, cohooks, and syzygies.

Nodes are the string classes (the non-projective indecomposables); solid
arrows are the canonical inclusions into hook extensions and projections
out of cohook extensions.  Omega of a string is decided in one place,
``omega_word``, once per word: the rules are checked on the word, the
syzygy's word is read off it and the act table, and only where that read
gives up is the syzygy module built.  ``omega_node`` finds that word
among the nodes, or tests isomorphism with the nodes of its dimension
vector (``match_node``) for a syzygy that spells no string; the
translate and the syzygy orbits follow it.  ``syzygy_power`` walks
``omega_word`` for ``syzygy --n``.  The quiver is data; ``strcat.cli``
labels and renders it.

The translate is Omega^2, the AR translate only for symmetric algebras
like the built-in families.  A projective string module still becomes a
node: S(1) = P(1) for the path algebra of 0 -> 1, and for k[x]/(x^2) x k,
which is symmetric.  Its syzygy is zero, so ``omega_node`` raises a
StrcatError that names it; on an algebra that is not self-injective a
syzygy can also match no node, and the build fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import homology, strings
from .errors import StrcatError
from .quiver_core import Algebra, memoized


@dataclass(frozen=True)
class ArQuiver:
    nodes: tuple[strings.StringWord, ...]
    arrows: tuple[tuple[int, int, str], ...]  # (source index, target index, kind)
    tau: tuple[int, ...]                      # node index -> index of its translate

    @property
    def node_count(self) -> int:
        return len(self.nodes)


@memoized
def node_index(algebra: Algebra) -> dict[strings.StringWord, int]:
    """The index of each node's canonical word among the nodes."""
    return {w: i for i, w in enumerate(strings.enumerate_strings(algebra))}


@memoized
def nodes_by_dim_vector(algebra: Algebra) -> dict:
    """(index, word) of each node, grouped by the dimension vector of its
    module, read off the word."""
    groups = {}
    for i, w in enumerate(strings.enumerate_strings(algebra)):
        groups.setdefault(strings.word_dim_vector(algebra.quiver, w), []).append((i, w))
    return groups


def match_node(algebra: Algebra, rep: homology.Representation) -> int:
    """Index of the unique node isomorphic to ``rep``; only nodes with
    ``rep``'s dimension vector are tested."""
    dv = rep.dim_vector()
    for i, w in nodes_by_dim_vector(algebra).get(dv, []):
        if homology.is_isomorphic(rep, strings.string_module(algebra, w)):
            return i
    raise StrcatError(f"no node matches a module of dimension vector {dv}")


def _spelled(algebra: Algebra, rep: homology.Representation):
    """The canonical word that ``rep``'s basis graph spells, else ``rep``."""
    word = strings.module_word(rep)
    return rep if word is None else strings.canonical(word, algebra.quiver)


@memoized
def omega_word(algebra: Algebra, word: strings.StringWord
               ) -> strings.StringWord | homology.Representation:
    """Omega M(word): the canonical word of its class, or the syzygy module
    itself where it spells no string, zero for a projective M(word).

    ``strings.check_string_module`` first refuses a word whose module
    fails a rule, with no module built.  ``strings.syzygy_word`` then
    reads the syzygy off the word and the act table; only where that read
    gives up is M(word) built and its syzygy named by the word its basis
    graph spells (``strings.module_word``)."""
    strings.check_string_module(algebra, word)
    got = strings.syzygy_word(algebra, word)
    if got is not None:
        return got
    return _spelled(algebra, homology.syzygy(strings.string_module(algebra, word)))


@memoized
def omega_node(algebra: Algebra, i: int) -> int:
    """Index of the node isomorphic to the syzygy of node ``i``: the node
    of ``omega_word``'s word, else the node ``match_node`` finds for its
    module; a zero syzygy raises."""
    node = strings.enumerate_strings(algebra)[i]
    got = omega_word(algebra, node)
    if isinstance(got, strings.StringWord):  # a string, so one of the nodes
        return node_index(algebra)[got]
    if got.is_zero():
        raise StrcatError(f"{node} is projective: its syzygy is zero, so the stable "
                          "AR quiver has no node for it")
    return match_node(algebra, got)


def syzygy_power(algebra: Algebra, word: strings.StringWord,
                 n: int) -> strings.StringWord | None:
    """The canonical word of Omega^n M(word), for a canonical string
    ``word``, or None when it is zero, from at most n syzygies and at most
    as many as the algebra has strings.  A word steps by ``omega_word``,
    and a module that spells no string by ``homology.syzygy``.

    A zero syzygy stays zero, and once Omega^k M(word) is M(word) for some
    k < n, Omega^n is Omega^(n mod k): two strings name isomorphic modules
    exactly when their canonical words are equal (Butler and Ringel, Comm.
    Algebra 15, 1987), and ``is_isomorphic`` compares a module.  On a
    self-injective algebra Omega permutes the strings, so one of the two
    happens in time; else the walk raises.  ``match_node`` names a nonzero
    module that spells no string at the end."""
    powers = [word]
    for k in range(1, n + 1):
        last = powers[-1]
        got = (omega_word(algebra, last) if isinstance(last, strings.StringWord)
               else _spelled(algebra, homology.syzygy(last)))
        is_word = isinstance(got, strings.StringWord)
        if k == n or not is_word and got.is_zero():
            break
        if (got == word if is_word else
                homology.is_isomorphic(got, strings.string_module(algebra, word))):
            got = powers[n % k]
            break
        if k >= len(strings.enumerate_strings(algebra)):
            raise StrcatError(f"Omega^{k} of the module is neither zero nor isomorphic "
                              "to it; the algebra is not self-injective")
        powers.append(got)
    if isinstance(got, strings.StringWord):
        return got
    return None if got.is_zero() else strings.enumerate_strings(algebra)[match_node(algebra, got)]


@memoized
def build_ar_quiver(algebra: Algebra) -> ArQuiver:
    """Nodes, hook/cohook arrows, and the second-syzygy translate.

    Every node's module is checked (``strings.check_string_module``)
    before any Omega is read, so a string whose module fails a rule is
    refused with that rule, as ``strings`` refuses it."""
    nodes = strings.enumerate_strings(algebra)
    for w in nodes:
        strings.check_string_module(algebra, w)
    index = node_index(algebra)
    # a move joins two canonical strings, and the enumeration has them all
    arrow_set = {(index[src], index[tgt], kind) for w in nodes
                 for src, tgt, kind in strings.class_moves(algebra, w)}
    tau = tuple(omega_node(algebra, omega_node(algebra, i)) for i in range(len(nodes)))
    return ArQuiver(nodes, tuple(sorted(arrow_set)), tau)


def omega_orbit(algebra: Algebra, node: strings.StringWord,
                seed: int = 0) -> list[strings.StringWord]:
    """The cyclic syzygy orbit of a node, which closes within as many steps
    as there are nodes when Omega permutes them, as on a self-injective
    algebra; else StrcatError.  ``seed`` is ignored, kept for callers."""
    nodes = strings.enumerate_strings(algebra)
    start = strings.canonical(node, algebra.quiver)
    if start not in node_index(algebra):
        raise StrcatError(f"{start} is not an enumerated string")
    first = current = node_index(algebra)[start]
    orbit = [start]
    for _ in nodes:
        current = omega_node(algebra, current)
        if current == first:
            return orbit
        orbit.append(nodes[current])
    raise StrcatError(f"syzygy orbit did not close after {len(nodes)} steps")
