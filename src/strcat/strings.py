"""Words over arrows and formal inverses, string modules, hooks and cohooks.

String validity is judged against the monomial quotient of the algebra by
its socle; the resulting string modules are exactly the non-projective
indecomposables of the algebras this package builds, and they are genuine
modules over the full algebra (checked on construction).

Words print as comma-joined letters with ``~`` marking an inverse, e.g.
``b,r~,a``; trivial words print as ``e0``, ``e1``.

Every built-in family names its strings in a few series; the names, their
index ranges and their words are part of the family's record in
``strcat.families``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import families, homology
from .errors import (
    CapTooSmall,
    IndexOutOfRange,
    NotAString,
    StrcatError,
    UnknownArrow,
)
from .quiver_core import Algebra, Quiver, memoized


@dataclass(frozen=True)
class Letter:
    arrow: str
    inverse: bool = False

    def flipped(self) -> "Letter":
        return Letter(self.arrow, not self.inverse)

    def __str__(self) -> str:
        return self.arrow + ("~" if self.inverse else "")


@dataclass(frozen=True)
class StringWord:
    """A reduced walk; either EmptyAt(vertex) or a nonempty letter sequence."""

    letters: tuple[Letter, ...] = ()
    vertex: int | None = None

    def __post_init__(self):
        if not self.letters and self.vertex is None:
            raise StrcatError("a trivial word needs its base vertex")

    @property
    def length(self) -> int:
        return len(self.letters)

    @property
    def is_trivial(self) -> bool:
        return not self.letters

    def inverse(self) -> "StringWord":
        if self.is_trivial:
            return self
        return StringWord(tuple(l.flipped() for l in reversed(self.letters)))

    def literal(self) -> str:
        if self.is_trivial:
            return f"e{self.vertex}"
        return ",".join(str(l) for l in self.letters)

    def __str__(self) -> str:
        return self.literal()


def empty_word(vertex: int) -> StringWord:
    return StringWord((), vertex)


def letter_source(quiver: Quiver, letter: Letter) -> int:
    a = quiver.arrow(letter.arrow)
    return a.target if letter.inverse else a.source


def letter_target(quiver: Quiver, letter: Letter) -> int:
    a = quiver.arrow(letter.arrow)
    return a.source if letter.inverse else a.target


def word_vertices(quiver: Quiver, word: StringWord) -> list[int]:
    """The length+1 vertices the walk visits."""
    if word.is_trivial:
        return [word.vertex]
    verts = [letter_source(quiver, word.letters[0])]
    for l in word.letters:
        verts.append(letter_target(quiver, l))
    return verts


def subword(word: StringWord, pos: int, length: int) -> StringWord:
    if length < 1:
        raise StrcatError("subword needs length >= 1; empties carry a vertex")
    return StringWord(word.letters[pos: pos + length])


def word_key(quiver: Quiver, word: StringWord) -> tuple:
    """Sort key: direct letters before inverse ones, then declaration order."""
    if word.is_trivial:
        return (0, (), word.vertex)
    letters = tuple((l.inverse, quiver.arrow_index(l.arrow)) for l in word.letters)
    return (word.length, letters, -1)


def canonical(word: StringWord, quiver: Quiver) -> StringWord:
    """The smaller of the word and its inverse under the word order."""
    inv = word.inverse()
    return min(word, inv, key=lambda w: word_key(quiver, w))


def is_string(word: StringWord, algebra: Algebra) -> bool:
    """Whether the word is a valid string for the socle-quotient rules."""
    quiver = algebra.quiver
    if word.is_trivial:
        if word.vertex not in quiver.vertices:
            raise UnknownArrow(f"unknown vertex {word.vertex}")
        return True
    for l in word.letters:
        if not quiver.has_arrow(l.arrow):
            raise UnknownArrow(f"unknown arrow {l.arrow!r}")
    for x, y in zip(word.letters, word.letters[1:]):
        if letter_target(quiver, x) != letter_source(quiver, y):
            return False
        if y == x.flipped():
            return False
    forbidden = [r.arrows for r in algebra.socle_rules]

    def run_ok(names: tuple[str, ...]) -> bool:
        for lhs in forbidden:
            k = len(lhs)
            if k > len(names):
                continue
            for i in range(len(names) - k + 1):
                if names[i: i + k] == lhs:
                    return False
        return True

    run: list[str] = []
    direction = None
    for l in list(word.letters) + [None]:
        d = None if l is None else l.inverse
        if d == direction:
            run.append(l.arrow)
            continue
        if run:
            names = tuple(reversed(run)) if direction else tuple(run)
            if not run_ok(names):
                return False
        run = [] if l is None else [l.arrow]
        direction = d
    return True


def _extend(word: StringWord, letter: Letter, algebra: Algebra) -> StringWord | None:
    if word.is_trivial:
        # the walk carries no letters, so check composability here
        if letter_target(algebra.quiver, letter) != word.vertex:
            return None
        new = StringWord((letter,))
    else:
        new = StringWord((letter,) + word.letters)
    return new if is_string(new, algebra) else None


def enumerate_strings(algebra: Algebra, length_cap: int | None = None) -> list[StringWord]:
    """All strings up to the cap, one canonical representative per class.

    Raises CapTooSmall when strings of the maximal length still appear,
    since longer ones could then exist.
    """
    quiver = algebra.quiver
    if length_cap is None:
        longest = max((q.length for q in algebra.basis), default=0)
        length_cap = longest + 2
    if length_cap < 1:
        raise CapTooSmall("length cap must be at least 1")
    words: list[StringWord] = [empty_word(v) for v in quiver.vertices]
    frontier = list(words)
    length = 0
    while frontier:
        length += 1
        nxt = []
        for w in frontier:
            start = word_vertices(quiver, w)[0]
            for a in quiver.arrows:
                for inv in (False, True):
                    l = Letter(a.name, inv)
                    if letter_target(quiver, l) != start:
                        continue
                    got = _extend(w, l, algebra)
                    if got is not None:
                        nxt.append(got)
        if nxt and length >= length_cap:
            raise CapTooSmall(
                f"strings of length {length_cap} still appear at the cap")
        words.extend(nxt)
        frontier = nxt
    classes = {canonical(w, quiver) for w in words}
    return sorted(classes, key=lambda w: word_key(quiver, w))


# -- string modules -------------------------------------------------------------


@memoized
def string_module(algebra: Algebra, word: StringWord) -> homology.Representation:
    """The module on the walk: one basis vector per visited vertex."""
    if not is_string(word, algebra):
        raise NotAString(f"{word} is not a string over this algebra")
    quiver = algebra.quiver
    verts = word_vertices(quiver, word)
    local: list[int] = []
    counts = {v: 0 for v in quiver.vertices}
    for v in verts:
        local.append(counts[v])
        counts[v] += 1
    mats = {a.name: np.zeros((counts[a.source], counts[a.target]), dtype=np.int64)
            for a in quiver.arrows}
    for j, l in enumerate(word.letters):
        if l.inverse:
            mats[l.arrow][local[j + 1], local[j]] = 1
        else:
            mats[l.arrow][local[j], local[j + 1]] = 1
    return homology.Representation(algebra, counts, mats)


# -- hooks and cohooks ------------------------------------------------------------


def _grow_directed(word: StringWord, algebra: Algebra, inverse: bool) -> StringWord:
    """Prepend the maximal run of letters of one direction."""
    quiver = algebra.quiver
    while True:
        candidates = []
        for a in quiver.arrows:
            got = _extend(word, Letter(a.name, inverse), algebra)
            if got is not None:
                candidates.append(got)
        if not candidates:
            return word
        if len(candidates) > 1:
            raise StrcatError("ambiguous directed extension; "
                              "the quiver is not special biserial")
        word = candidates[0]


def hook_extensions_at_start(word: StringWord, algebra: Algebra) -> list[StringWord]:
    """Extensions D~ g w: the junction arrow g points into the old part,
    so the old module embeds into the new one."""
    quiver = algebra.quiver
    out = []
    for a in quiver.arrows:
        first = _extend(word, Letter(a.name, False), algebra)
        if first is not None:
            out.append(_grow_directed(first, algebra, inverse=True))
    return out


def cohook_extensions_at_start(word: StringWord, algebra: Algebra) -> list[StringWord]:
    """Extensions D g~ w: the junction points away from the old part, so
    the new module projects onto the old one."""
    quiver = algebra.quiver
    out = []
    for a in quiver.arrows:
        first = _extend(word, Letter(a.name, True), algebra)
        if first is not None:
            out.append(_grow_directed(first, algebra, inverse=False))
    return out


def class_moves(algebra: Algebra, word: StringWord) -> list[tuple[StringWord, StringWord, str]]:
    """All one-step moves of the class: (source, target, kind) triples.

    Hook moves give an arrow from the word to its extension; cohook moves
    give an arrow from the extension to the word.
    """
    quiver = algebra.quiver
    node = canonical(word, quiver)
    seen = set()
    edges = []
    orientations = [node] if node.is_trivial else [node, node.inverse()]
    for w in orientations:
        for ext in hook_extensions_at_start(w, algebra):
            edge = (node, canonical(ext, quiver), "hook")
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
        for ext in cohook_extensions_at_start(w, algebra):
            edge = (canonical(ext, quiver), node, "cohook")
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
    return edges


# -- named strings of the built-in families ------------------------------------------


_NAME_RE = re.compile(r"^([A-Za-z])(\d+)$")


def parse_module_name(text: str) -> tuple[str, int]:
    m = _NAME_RE.match(text.strip())
    if not m:
        raise IndexOutOfRange(f"cannot parse module name {text!r}")
    return m.group(1).upper(), int(m.group(2))


def named_string(family: str, m: int, name) -> StringWord:
    """The string for a series name such as V2, M3, X1, U0, or a (series,
    index) pair."""
    if isinstance(name, str):
        series, index = parse_module_name(name)
    else:
        series, index = name
    fam = families.get(family)
    ranges = fam.series(m)
    if series not in ranges or index not in ranges[series]:
        raise IndexOutOfRange(
            f"{series}{index} is not a valid {family} module name for m={m}")
    return _parse_literal(fam.word(series, index, m))


def family_node_names(family: str, m: int, quiver: Quiver) -> list[tuple[str, StringWord]]:
    """(name, canonical word) for every node, in report order."""
    return [(f"{series}{i}", canonical(named_string(family, m, (series, i)), quiver))
            for series, rng in families.get(family).series(m).items() for i in rng]


def _parse_literal(text: str) -> StringWord:
    text = text.strip()
    m = re.match(r"^e(\d+)$", text)
    if m:
        return empty_word(int(m.group(1)))
    if "," in text:
        tokens = [t.strip() for t in text.split(",") if t.strip()]
    else:
        tokens = re.findall(r"[^~]~?", text)
    if not tokens:
        raise StrcatError("empty string literal")
    return StringWord(tuple(Letter(t.removesuffix("~"), t.endswith("~"))
                            for t in tokens))


def parse_string_literal(text: str, quiver: Quiver) -> StringWord:
    """Parse ``b,r~,a`` style literals; ``e0`` gives the trivial word."""
    word = _parse_literal(text)
    if word.is_trivial and word.vertex not in quiver.vertices:
        raise UnknownArrow(f"unknown vertex {word.vertex}")
    for l in word.letters:
        if not quiver.has_arrow(l.arrow):
            raise UnknownArrow(f"unknown arrow {l.arrow!r}")
    return word
