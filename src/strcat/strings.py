"""Words over arrows and formal inverses, string modules, hooks and cohooks.

String validity is judged against the monomial quotient of the algebra by
its socle; the resulting string modules are exactly the non-projective
indecomposables of the algebras this package builds, and they are genuine
modules over the full algebra (checked on construction).

Being a string is a local condition (Butler and Ringel, Comm. Algebra 15,
1987): consecutive letters compose and do not cancel, and no run of
direct letters, nor of inverse ones, contains a socle rule.  ``_fits``
states it once, letter by letter: a letter composes with the next one, is
not undone by it, and starts no socle-rule window of its own run.
``is_string`` applies it at every letter of a word from outside
(``string_module``, which ``canonical_homs`` calls, and ``class_moves``).  The enumeration
and the hook and cohook moves grow strings one letter at a time at the
start, so ``_extend`` applies it at the new first letter only, in
O(rules * longest rule) whatever the length of the word.

Words print as comma-joined letters with ``~`` marking an inverse, e.g.
``b,r~,a``; trivial words print as ``e0``, ``e1``.  Every printed word
reads back (``parse_string_literal``), one-letter words of long names too.

Every built-in family names its strings in a few series; the names, their
index ranges and their words are part of the family's record in
``strcat.families``.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import families, homology
from .errors import (
    IndexOutOfRange,
    NotAString,
    RepresentationInfinite,
    StrcatError,
    UnknownArrow,
)
from .quiver_core import TRIVIAL_LITERAL, Algebra, Quiver, memoized


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
        if self.letters and self.vertex is not None:
            raise StrcatError("a nonempty word has no base vertex")

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


def word_dim_vector(quiver: Quiver, word: StringWord) -> tuple[int, ...]:
    """The dimension vector of the string module: how often the walk visits
    each vertex, in vertex order."""
    visits = Counter(word_vertices(quiver, word))
    return tuple(visits[v] for v in quiver.vertices)


def word_layout(quiver: Quiver, word: StringWord) -> tuple[list[int], list[int]]:
    """The vertex at each position of the walk, and the index of that
    position's basis vector among the string module's vectors at the
    vertex."""
    verts = word_vertices(quiver, word)
    local, seen = [], Counter()
    for v in verts:
        local.append(seen[v])
        seen[v] += 1
    return verts, local


def word_key(quiver: Quiver, word: StringWord) -> tuple:
    """Sort key: direct letters before inverse ones, then declaration order."""
    if word.is_trivial:
        return (0, (), word.vertex)
    letters = tuple((l.inverse, quiver.arrow_index(l.arrow)) for l in word.letters)
    return (word.length, letters, -1)


def _keyed_canonical(word: StringWord, quiver: Quiver) -> tuple[tuple, StringWord]:
    """``(word_key, word)`` of ``canonical(word, quiver)``.  The inverse's key
    is the word's letter codes reversed with each direction flipped, so
    the inverse word is built only when it is strictly smaller."""
    key = word_key(quiver, word)
    length, codes, last = key
    flipped = (length, tuple((not inv, x) for inv, x in reversed(codes)), last)
    return (flipped, word.inverse()) if flipped < key else (key, word)


def canonical(word: StringWord, quiver: Quiver) -> StringWord:
    """The smaller of the word and its inverse under the word order, the
    word itself on a tie."""
    return _keyed_canonical(word, quiver)[1]


def _known(word: StringWord, quiver: Quiver) -> StringWord:
    """``word``, once its base vertex or every arrow it names is in the
    quiver; raises UnknownArrow otherwise."""
    if word.is_trivial and word.vertex not in quiver.vertices:
        raise UnknownArrow(f"unknown vertex {word.vertex}")
    for l in word.letters:
        if not quiver.has_arrow(l.arrow):
            raise UnknownArrow(f"unknown arrow {l.arrow!r}")
    return word


def _fits(letters: tuple[Letter, ...], algebra: Algebra, stop: int = 1) -> bool:
    """Whether each of the first ``stop`` letters ends where the next one
    starts, is not undone by it, and starts no window of its own run that
    spells a socle rule: the next k names of a direct run, the reversed
    next k of an inverse one.  Every window starts at some letter, so at
    every letter this is the whole string condition.  Each letter costs
    O(rules * longest rule)."""
    quiver = algebra.quiver
    for i in range(stop):
        x = letters[i]
        if i + 1 < len(letters):
            y = letters[i + 1]
            if (letter_target(quiver, x) != letter_source(quiver, y)
                    or (y.arrow == x.arrow and y.inverse != x.inverse)):
                return False
        for rule in algebra.socle_rules:
            names = rule.arrows
            if i + len(names) > len(letters) or names[-1 if x.inverse else 0] != x.arrow:
                continue
            window = letters[i:i + len(names)]
            if all(l.inverse == x.inverse and l.arrow == name for l, name in
                   zip(reversed(window) if x.inverse else window, names)):
                return False
    return True


def is_string(word: StringWord, algebra: Algebra) -> bool:
    """Whether the word is a valid string for the socle-quotient rules."""
    _known(word, algebra.quiver)
    return word.is_trivial or _fits(word.letters, algebra, stop=word.length)


def _extend(word: StringWord, letter: Letter, algebra: Algebra) -> StringWord | None:
    """``letter`` followed by ``word`` when that is a string, else None.

    ``word`` must already be a string, so only the new letter is checked:
    it must end where the word starts, and ``_fits`` judges the rest."""
    if word.is_trivial and letter_target(algebra.quiver, letter) != word.vertex:
        return None
    letters = (letter,) + word.letters
    return StringWord(letters) if _fits(letters, algebra) else None


def _prepended(word: StringWord, algebra: Algebra, directions: tuple[bool, ...]) -> list[StringWord]:
    """Every string ``letter`` + ``word`` whose letter's ``inverse`` flag is
    in ``directions``, in arrow order; ``word`` must be a string."""
    return [got for a in algebra.quiver.arrows for inv in directions
            if (got := _extend(word, Letter(a.name, inv), algebra)) is not None]


@memoized
def enumerate_strings(algebra: Algebra, length_cap: int | None = None) -> tuple[StringWord, ...]:
    """All strings, one canonical representative per class, in word order.

    ``_fits`` judges a letter by the windows of at most K = max(2, longest
    socle rule) letters that start there.  So if a string's first K - 1
    letters come again later in it, the stretch before the repeat pumps:
    there are infinitely many strings, and RepresentationInfinite names
    that string.  Each string is grown from its suffixes, so checking each
    new word's first K - 1 letters finds such a repeat if any string has
    one; else the strings are finite and the growth stops.  ``length_cap``
    is ignored; perfbench's spans bind that name."""
    quiver = algebra.quiver
    head = max([2, *(len(rule.arrows) for rule in algebra.socle_rules)]) - 1  # K - 1
    words: list[StringWord] = [empty_word(v) for v in quiver.vertices]
    frontier = list(words)
    while frontier:
        frontier = [got for w in frontier for got in _prepended(w, algebra, (False, True))]
        for w in frontier:
            first = w.letters[:head]
            if any(w.letters[j:j + head] == first for j in range(1, w.length - head + 1)):
                raise RepresentationInfinite(
                    f"the algebra has infinitely many strings: {w} repeats its "
                    f"first letters {StringWord(first)}")
        words.extend(frontier)
    classes = dict(_keyed_canonical(w, quiver) for w in words)  # a key names one word
    return tuple(classes[key] for key in sorted(classes))


# -- string modules -------------------------------------------------------------


@memoized
def string_module(algebra: Algebra, word: StringWord) -> homology.Representation:
    """The module on the walk: one basis vector per visited vertex."""
    if not is_string(word, algebra):
        raise NotAString(f"{word} is not a string over this algebra")
    quiver = algebra.quiver
    verts, local = word_layout(quiver, word)
    counts = Counter(verts)
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
    while True:
        candidates = _prepended(word, algebra, (inverse,))
        if not candidates:
            return word
        if len(candidates) > 1:
            raise StrcatError("ambiguous directed extension; "
                              "the quiver is not special biserial")
        word = candidates[0]


def extensions_at_start(word: StringWord, algebra: Algebra, hook: bool) -> list[StringWord]:
    """Hook extensions D~ g w, whose junction arrow g points into the old
    part, so the old module embeds into the new one; or, with ``hook``
    false, cohook extensions D g~ w, whose junction points away from the
    old part, so the new module projects onto the old one.

    ``word`` must be a string, as for ``_extend``."""
    return [_grow_directed(first, algebra, inverse=hook)
            for first in _prepended(word, algebra, (not hook,))]


def class_moves(algebra: Algebra, word: StringWord) -> list[tuple[StringWord, StringWord, str]]:
    """All one-step moves of the class: (source, target, kind) triples.

    Hook moves give an arrow from the word to its extension; cohook moves
    give an arrow from the extension to the word.  A word that is not a
    string has no moves.
    """
    if not is_string(word, algebra):
        return []
    quiver = algebra.quiver
    node = canonical(word, quiver)
    seen = set()
    edges = []
    orientations = [node] if node.is_trivial else [node, node.inverse()]
    for w in orientations:
        for hook in (True, False):
            for ext in extensions_at_start(w, algebra, hook):
                ext = canonical(ext, quiver)
                edge = (node, ext, "hook") if hook else (ext, node, "cohook")
                if edge not in seen:
                    seen.add(edge)
                    edges.append(edge)
    return edges


# -- named strings of the built-in families ------------------------------------------


_NAME_RE = re.compile(r"^([A-Za-z])(\d+)$")


def named_string(family: str, m: int, name: str) -> StringWord:
    """The string for a series name such as V2, M3, X1, U0."""
    parsed = _NAME_RE.match(name.strip())
    if not parsed:
        raise IndexOutOfRange(f"cannot parse module name {name!r}")
    series, index = parsed.group(1).upper(), int(parsed.group(2))
    fam = families.get(family)
    ranges = fam.series(m)
    if series not in ranges or index not in ranges[series]:
        raise IndexOutOfRange(
            f"{series}{index} is not a valid {family} module name for m={m}")
    return _parse_literal(fam.word(series, index, m))


def family_node_names(family: str, m: int, quiver: Quiver) -> list[tuple[str, StringWord]]:
    """(name, canonical word) for every node, in report order."""
    fam = families.get(family)
    return [(f"{series}{i}", canonical(_parse_literal(fam.word(series, i, m)), quiver))
            for series, rng in fam.series(m).items() for i in rng]


def _parse_literal(text: str) -> StringWord:
    text = text.strip()
    m = TRIVIAL_LITERAL.fullmatch(text)
    if m:
        return empty_word(int(m.group(1)))
    if "," in text:
        tokens = [t.strip() for t in text.split(",") if t.strip()]
    else:
        tokens = re.findall(r"[^~]~?", text)
        if "".join(tokens) != text:
            raise StrcatError(f"stray '~' in string literal {text!r}")
    if not tokens:
        raise StrcatError("empty string literal")
    return StringWord(tuple(Letter(t.removesuffix("~"), t.endswith("~"))
                            for t in tokens))


def parse_string_literal(text: str, quiver: Quiver) -> StringWord:
    """Parse ``b,r~,a`` style literals; ``e0`` gives the trivial word, and
    a literal without commas that is an arrow name, ``~`` or not, is that
    one letter, so ``w.literal()`` reads back as ``w`` for every word."""
    name = text.strip().removesuffix("~")
    if "," not in name and quiver.has_arrow(name):
        return StringWord((Letter(name, name != text.strip()),))
    return _known(_parse_literal(text), quiver)
