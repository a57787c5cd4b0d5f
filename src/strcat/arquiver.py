"""The stable Auslander-Reiten quiver, built from hooks, cohooks, and syzygies.

Nodes are the string classes (the non-projective indecomposables); solid
arrows are the canonical inclusions into hook extensions and projections
out of cohook extensions.  ``omega_node`` names the node isomorphic to
each node's syzygy, once per node, by the word it reads off the node's
word and the algebra's act table (``strings.syzygy_word``), with no cover
or kernel module.  Where that read gives up, the syzygy module is
taken and named by the word its basis graph spells
(``strings.module_word``), and isomorphism tests against the nodes of its
dimension vector (``match_node``) name a syzygy whose graph spells no
string.  The translate and the syzygy orbits both follow it.  The quiver
is data; ``strcat.cli`` labels and renders it.

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


def node_word(algebra: Algebra, rep: homology.Representation) -> strings.StringWord:
    """The canonical word of the node isomorphic to ``rep``: the string its
    basis graph spells, with no enumeration, else ``match_node``'s node."""
    word = strings.module_word(rep)
    if word is None:
        return strings.enumerate_strings(algebra)[match_node(algebra, rep)]
    return strings.canonical(word, algebra.quiver)


@memoized
def omega_node(algebra: Algebra, i: int) -> int:
    """Index of the node isomorphic to the syzygy of node ``i``.

    The node's string module is built first, since its construction check
    refuses a word whose module fails a rule.  Its syzygy is then named by
    ``strings.syzygy_word``, from the word and the act table; when that
    read gives up, the module's syzygy is taken and named by
    ``node_word``, and a zero syzygy raises."""
    node = strings.enumerate_strings(algebra)[i]
    module = strings.string_module(algebra, node)
    index = node_index(algebra)
    word = strings.syzygy_word(algebra, node)
    if word is not None:  # a string, so one of the enumerated nodes
        return index[word]
    rep = homology.syzygy(module)
    if rep.is_zero():
        raise StrcatError(f"{node} is projective: its syzygy is zero, so the stable "
                          "AR quiver has no node for it")
    return index[node_word(algebra, rep)]


@memoized
def build_ar_quiver(algebra: Algebra) -> ArQuiver:
    """Nodes, hook/cohook arrows, and the second-syzygy translate."""
    nodes = strings.enumerate_strings(algebra)
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
