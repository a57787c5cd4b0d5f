"""Words over arrows and formal inverses, string modules, hooks and cohooks.

String validity is judged against the monomial quotient of the algebra by
its socle; the resulting string modules are exactly the non-projective
indecomposables of the algebras this package builds.

Being a string, and being a module over the full algebra, are conditions
of forbidden factors (Butler and Ringel, Comm. Algebra 15, 1987): no
letter is followed by one that does not compose with it or undoes it, no
run of one direction contains a socle rule, and no run spells a completed
rule's right side (``check_rules``).  So each check is one search of the
word's spelling in the quiver's letter code (``Quiver.codes``) for a
pattern spelt once per algebra from its table of forbidden factors by
first letter (``_factors``); a word that matches is searched rule by rule
to name the first rule it fails.  Strings grow one letter at a time at
the start in the enumeration and the hook and cohook moves, so
``_extend`` reads only the new first letter's row of that table.

Going the other way, ``module_word`` reads the string a module's basis
graph spells, which names a module without an isomorphism test; and
``omega_string`` reads the string of Omega M(w) off w's peaks and deeps,
with no module at all, from each arrow's branch in the projectives, read
once per algebra (``_branches``, which also decides the rule's scope).
``arquiver.omega_word`` calls it.

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
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import families, homology
from .errors import (
    IndexOutOfRange,
    NotAString,
    RepresentationInfinite,
    StrcatError,
    UnknownArrow,
)
from .quiver_core import TRIVIAL_LITERAL, Algebra, Path, Quiver, memoized


class Letter(NamedTuple):
    """An arrow, or its formal inverse: the plain tuple ``(arrow, inverse)``,
    equal to it, so words hash and compare as tuples, in C.  The words
    built here share one Letter per arrow and direction (``_LETTERS``)."""

    arrow: str
    inverse: bool = False

    def flipped(self) -> "Letter":
        return _LETTERS[self.arrow, not self.inverse]

    def __str__(self) -> str:
        return self.arrow + ("~" if self.inverse else "")


class _Letters(dict):
    """(arrow, inverse) -> its one Letter, interned when first asked for."""

    def __missing__(self, key: tuple[str, bool]) -> Letter:
        return self.setdefault(key, Letter(*key))


_LETTERS = _Letters()


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
        return StringWord(tuple(_LETTERS[a, not inv] for a, inv in reversed(self.letters)))

    def literal(self) -> str:
        if self.is_trivial:
            return f"e{self.vertex}"
        return ",".join(str(l) for l in self.letters)

    def __str__(self) -> str:
        return self.literal()


def empty_word(vertex: int) -> StringWord:
    return StringWord((), vertex)


def word_vertices(quiver: Quiver, word: StringWord) -> list[int]:
    """The length+1 vertices the walk visits."""
    if word.is_trivial:
        return [word.vertex]
    ends = quiver.letter_ends
    return [ends(word.letters[0])[0]] + [ends(l)[1] for l in word.letters]


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
    """Sort key: the length, then the spelling (``Quiver.codes``), or a
    trivial word's vertex's code."""
    return (word.length, spelling(quiver, word) or quiver.codes[word.vertex])


def _keyed_canonical(word: StringWord, quiver: Quiver) -> tuple[tuple, StringWord]:
    """``(word_key, word)`` of ``canonical(word, quiver)``; the inverse word is
    built only when its key, the inverse spelling, is strictly smaller."""
    key = word_key(quiver, word)
    flipped = (key[0], inverse_spelling(quiver, key[1]))
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
    for name, _ in word.letters:
        if not quiver.has_arrow(name):
            raise UnknownArrow(f"unknown arrow {name!r}")
    return word


@memoized
def _factors(algebra: Algebra):
    """The factors no string holds, by first letter x: the letters and
    vertices that may not follow x (where x does not end, and x's inverse),
    and the tails of the socle runs from x (a socle rule as direct letters,
    or reversed as inverse ones); the pattern spelt from that table; one of
    the factors on which a completed rule fails; each such rule with its."""
    quiver, codes, ends = algebra.quiver, algebra.quiver.codes, algebra.quiver.letter_ends
    letters = [_LETTERS[a.name, inverse] for inverse in (False, True) for a in quiver.arrows]
    table = {x: ({y for y in letters if ends(x)[1] != ends(y)[0] or y == x.flipped()}
                 | {v for v in quiver.vertices if v != ends(x)[1]}, []) for x in letters}
    for rule in algebra.socle_rules:
        for run in ([_LETTERS[name, False] for name in rule.arrows],
                    [_LETTERS[name, True] for name in reversed(rule.arrows)]):
            table[run[0]][1].append(tuple(run[1:]))
    def spelt(chars) -> str:
        return re.escape("".join(codes[c] for c in chars))
    string = "|".join(spelt([x]) + "(?:[" + spelt(blocked) + "]"
                      + "".join("|" + spelt(tail) for tail in tails) + ")"
                      for x, (blocked, tails) in table.items())
    each_rule = [(rule, spelt([(a, False) for a in rule.rhs.arrows]) + "|"
                  + spelt([(a, True) for a in reversed(rule.rhs.arrows)]) if rule.rhs.arrows
                  else "[" + spelt([l for l in letters if rule.rhs.source in ends(l)]
                                   + [rule.rhs.source]) + "]")
                 for rule in algebra.rules if rule.rhs is not None]
    return (table, re.compile(string or "(?!)"),
            re.compile("|".join(factor for _, factor in each_rule) or "(?!)"), each_rule)


def spelling(quiver: Quiver, word: StringWord) -> str:
    """The word, one character per letter (``Quiver.codes``)."""
    return "".join(map(quiver.codes.__getitem__, word.letters))


def inverse_spelling(quiver: Quiver, text: str) -> str:
    """The spelling of the inverse of the word that ``text`` spells."""
    return text[::-1].translate(quiver.flip_codes)


def is_string(word: StringWord, algebra: Algebra) -> bool:
    """Whether the word is a valid string for the socle-quotient rules."""
    _known(word, algebra.quiver)
    return not _factors(algebra)[1].search(spelling(algebra.quiver, word))


def _extend(word: StringWord, letter: Letter, algebra: Algebra) -> StringWord | None:
    """``letter`` followed by ``word`` when that is a string, else None.
    ``word`` must be a string, so only the new letter's row of ``_factors``
    is read: what follows it (a letter, or a trivial word's vertex) and the
    socle runs from it."""
    blocked, tails = _factors(algebra)[0][letter]
    letters = word.letters
    if (letters[0] if letters else word.vertex) in blocked or any(
            letters[:len(tail)] == tail for tail in tails):
        return None
    return StringWord((letter,) + letters)


def _prepended(word: StringWord, algebra: Algebra, directions: tuple[bool, ...]) -> list[StringWord]:
    """Every string ``letter`` + ``word`` whose letter's ``inverse`` flag is
    in ``directions``, in arrow order; ``word`` must be a string."""
    return [got for a in algebra.quiver.arrows for inv in directions
            if (got := _extend(word, _LETTERS[a.name, inv], algebra)) is not None]


@memoized
def enumerate_strings(algebra: Algebra, length_cap: int | None = None) -> tuple[StringWord, ...]:
    """All strings, one canonical representative per class, in word order.

    ``_extend`` judges a letter by the forbidden factors of at most K = max(2,
    longest socle rule) letters from it.  So if a string's first K - 1 letters
    come again later in it, the stretch before the repeat pumps: there are
    infinitely many strings, and RepresentationInfinite names that string.
    Each string is grown from its suffixes, so checking each new word's first
    K - 1 letters finds such a repeat if any string has one; else the strings
    are finite and the growth stops.  ``length_cap`` is ignored; perfbench's
    spans bind that name."""
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


def _moves(word: StringWord) -> dict[tuple[int, str], int]:
    """Where each arrow sends each position of the walk in M(word), with
    value 1: (position, arrow name) -> position.  A position absent for
    an arrow is sent to zero.  A string never follows a letter with its
    own inverse, so no key is set twice."""
    move = {}
    for j, l in enumerate(word.letters):
        if l.inverse:
            move[j + 1, l.arrow] = j
        else:
            move[j, l.arrow] = j + 1
    return move


def check_rules(algebra: Algebra, word: StringWord) -> None:
    """Raise a StrcatError naming the first completed rule that fails on
    M(word), for a string ``word``, with no matrix.  A path sends each
    position of the walk one way along a run, with value 1, or to zero;
    two paths from one position never meet, and no coefficient is 0 mod
    p.  So a rule fails when a side walks: never the left, a socle rule;
    the right where the spelling holds it as direct letters or, reversed,
    as inverse ones, or, trivial at v, where the word visits v."""
    if all(rule.rhs is None for rule in algebra.rules):
        return  # nothing to search for, as on ae1 and ae2
    _, _, rules, each_rule = _factors(algebra)
    text = spelling(algebra.quiver, word) or algebra.quiver.codes[word.vertex]
    if rules.search(text):
        rule = next(rule for rule, factor in each_rule if re.search(factor, text))
        raise StrcatError(f"rule {rule} fails on this representation")


@memoized
def check_string_module(algebra: Algebra, word: StringWord) -> None:
    """Refuse a word whose walk is not a module over the algebra, as the
    construction check of M(word) as a ``Representation`` would, with no
    matrix: NotAString unless it is a string, else ``check_rules``'s
    StrcatError naming the first completed rule that fails on M(word)."""
    if not is_string(word, algebra):
        raise NotAString(f"{word} is not a string over this algebra")
    check_rules(algebra, word)


@memoized
def string_module(algebra: Algebra, word: StringWord) -> homology.Representation:
    """The module on the walk: one basis vector per visited vertex, each
    arrow's matrix an index map (``_moves``).  ``check_string_module``
    refuses a word whose walk is not a module, so the construction does
    not check the rules again."""
    check_string_module(algebra, word)
    verts, local = word_layout(algebra.quiver, word)
    counts = Counter(verts)
    maps = {a.name: (np.full(counts[a.source] + 1, counts[a.target], dtype=np.int64),
                     np.zeros(counts[a.source] + 1, dtype=np.int64))
            for a in algebra.quiver.arrows}
    for (j, arrow), k in _moves(word).items():
        cols, vals = maps[arrow]
        cols[local[j]], vals[local[j]] = local[k], 1
    return homology.Representation._of_index_maps(algebra, counts, maps)


def module_word(rep: homology.Representation) -> StringWord | None:
    """A string w with ``rep`` isomorphic to M(w), read off rep's basis
    graph; None when the graph does not give one.

    When the arrow matrices are index maps (see
    ``Representation._row_maps``), each nonzero entry is an edge x -a-> y
    between basis vectors; ``_path_word`` reads the word these edges
    spell."""
    maps = rep._row_maps()
    if maps is None:
        return None
    quiver = rep.algebra.quiver
    start, total = {}, 0
    for v in quiver.vertices:
        start[v], total = total, total + rep.dims[v]
    steps = [[] for _ in range(total)]  # per basis vector: (neighbour, letter)
    for a in quiver.arrows:
        cols, vals = maps[a.name]
        for r in vals[:-1].nonzero()[0]:
            x, y = start[a.source] + int(r), start[a.target] + int(cols[r])
            steps[x].append((y, _LETTERS[a.name, False]))
            steps[y].append((x, _LETTERS[a.name, True]))
    first = next((v for v in quiver.vertices if rep.dims[v]), None)
    return _path_word(rep.algebra, steps, first)


def _path_word(algebra: Algebra, steps: list[list], vertex) -> StringWord | None:
    """The string a basis graph spells, None when it spells none.

    ``steps[x]`` lists the edges at basis vector x as (neighbour, letter),
    a direct letter for x -a-> y and an inverse one for y -a-> x, and
    ``vertex`` is the vertex of vector 0.  When the edges form one path,
    the arrows along it spell a word, a direct letter where the walk
    follows an arrow and an inverse one where it goes back.  Rescaling the
    basis vectors one by one along the path makes every value 1, which
    turns the module into M(w) with its basis reordered; so if w is a
    string it names the module.  The walk starts at an end of the path, so
    w is read in either orientation: ``canonical`` picks the class's
    one."""
    total = len(steps)
    if sum(map(len, steps)) != 2 * (total - 1) or any(len(s) > 2 for s in steps):
        return None  # with total - 1 edges, a walk over every vector is a path
    x = next(x for x, s in enumerate(steps) if len(s) < 2)
    seen, letters = {x}, []
    while len(seen) < total:
        ahead = [(y, letter) for y, letter in steps[x] if y not in seen]
        if not ahead:
            return None
        x, letter = ahead[0]
        seen.add(x)
        letters.append(letter)
    if not letters:
        return empty_word(vertex)
    word = StringWord(tuple(letters))
    return word if is_string(word, algebra) else None


def word_peaks(word: StringWord) -> list[int]:
    """The positions of the walk that no arrow of M(word) maps into: no
    direct letter ends there and no inverse letter starts there.  Their
    basis vectors span a complement of the radical, so they are the top
    of M(word), and its projective cover is one P(v) per peak at v."""
    letters = word.letters
    return [i for i in range(len(letters) + 1)
            if not (i and not letters[i - 1].inverse)
            and not (i < len(letters) and letters[i].inverse)]


@memoized
def _branches(algebra: Algebra):
    """Each arrow's branch, the maximal nonzero path from it, as direct
    letters and as inverse ones back from its end (empty for no arrow); the
    arrows out of each vertex; the vertex of each soc P(v); the pattern of a
    deep, a direct letter then an inverse one; and the inverse letters'
    codes.  None off ``omega_string``'s scope: there at most two arrows go
    into and out of each vertex, an arrow follows at most one with a nonzero
    product, a nontrivial basis path times at most one arrow is nonzero,
    P(v) is e_v plus its branches, which meet only at their one end, and the
    socles lie at distinct vertices.  So A is self-injective: P(v) embeds in
    the injective hull of its simple socle, and both sides' dimensions sum
    to dim A.  An arrow that is no basis path (c = a0*b0 on a Brauer line)
    is in no string and left out."""
    quiver, zero, act = algebra.quiver, algebra.dim, algebra.act_index.tolist()
    after = [[x for x, k in enumerate(row) if k != zero] for row in act[:zero]]
    first = {a.name: algebra.index[path] for a in quiver.arrows
             if (path := Path(a.source, a.target, (a.name,))) in algebra.index}
    out = {v: [name for name in first if quiver.arrow(name).source == v] for v in quiver.vertices}
    into = Counter(quiver.arrow(name).target for name in first)
    follows = [y for k in first.values() for y in after[k]]
    if (len(set(follows)) < len(follows) or max([0, *into.values(), *map(len, out.values())]) > 2
            or any(len(after[k]) > 1 for k, q in enumerate(algebra.basis) if q.arrows)):
        return None
    size, branch, socle = Counter(q.source for q in algebra.basis), {None: ((), ())}, {}
    for v in quiver.vertices:
        ends, seen = set(), set()
        for name in out[v]:
            run, k = [name], first[name]
            while after[k] and k not in seen:
                seen.add(k)
                run.append(quiver.arrows[after[k][0]].name)
                k = act[k][after[k][0]]
            ends.add(k)
            branch[name] = (tuple(_LETTERS[a, False] for a in run),
                            tuple(_LETTERS[a, True] for a in reversed(run)))
        if len(ends) > 1 or any(after[k] for k in ends) or len(seen | ends) + 1 != size[v]:
            return None
        socle[v] = algebra.basis[ends.pop()].target if ends else v
    if len(set(socle.values())) < len(socle):
        return None
    direct, inverse = ("".join(quiver.codes[a.name, inv] for a in quiver.arrows) for inv in (0, 1))
    deep = re.compile(f"(?<=[{re.escape(direct)}])(?=[{re.escape(inverse)}])")
    return branch, out, socle, deep, inverse


def omega_string(algebra: Algebra, word: StringWord) -> StringWord | None:
    """The canonical word of Omega M(word), a module (``check_string_module``),
    read off its peaks; None off ``_branches``'s scope and for a projective
    M(word).  Its cover is one P(v) per peak, whose legs start P(v)'s two
    branches: the kernel holds each branch's rest beyond its leg, down to the
    socle and back up, and at each deep between two peaks the difference of
    the two vectors there, a peak of Omega joining the rests on either side.
    At an end of the word no deep joins the rest, so its end letter goes
    (Butler and Ringel, Comm. Algebra 15, 1987; Erdmann, LNM 1428, 1990)."""
    if (table := _branches(algebra)) is None:
        return None
    branch, out, socle, deep, inverse = table
    quiver, letters = algebra.quiver, word.letters
    rests, end = [], 0
    for piece in deep.split(spelling(quiver, word)):
        down = len(piece.lstrip(inverse))  # a peak: up its left leg, down its right
        end += len(piece)
        peak, up = end - down, len(piece) - down
        legs = (letters[peak - 1].arrow if up else None, letters[peak].arrow if down else None)
        v = quiver.arrow(legs[0] or legs[1]).source if letters else word.vertex
        spare = iter([a for a in out[v] if a not in legs])
        left, right = (leg or next(spare, None) for leg in legs)
        rests += branch[left][0][up:], branch[right][1][:len(branch[right][1]) - down]
    got = tuple(chain.from_iterable(rests))
    if not got:
        return None  # M(word) is P(v)
    got = got[bool(rests[0]):len(got) - bool(rests[-1])]
    return canonical(StringWord(got), quiver) if got else empty_word(socle[v])


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
    edges = {}  # in the order first found
    for w in [node] if node.is_trivial else [node, node.inverse()]:
        for hook in (True, False):
            for ext in extensions_at_start(w, algebra, hook):
                ext = canonical(ext, quiver)
                edges[(node, ext, "hook") if hook else (ext, node, "cohook")] = None
    return list(edges)


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
    return _shared(_parse_literal(fam.word(series, index, m)))


def family_node_names(family: str, m: int, quiver: Quiver) -> list[tuple[str, StringWord]]:
    """(name, canonical word) for every node, in report order."""
    fam = families.get(family)
    return [(f"{series}{i}", canonical(_shared(_parse_literal(fam.word(series, i, m))), quiver))
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
    return StringWord(tuple((t.removesuffix("~"), t.endswith("~")) for t in tokens))


def _shared(word: StringWord) -> StringWord:
    """``word`` with its letters' one shared Letter each; ``_parse_literal``
    spells plain (arrow, inverse) pairs, which enter ``_LETTERS`` only here."""
    return StringWord(tuple(map(_LETTERS.__getitem__, word.letters)), word.vertex)


def parse_string_literal(text: str, quiver: Quiver) -> StringWord:
    """Parse ``b,r~,a`` style literals; ``e0`` gives the trivial word, and
    a literal without commas that is an arrow name, ``~`` or not, is that
    one letter, so ``w.literal()`` reads back as ``w`` for every word."""
    name = text.strip().removesuffix("~")
    if "," not in name and quiver.has_arrow(name):
        return StringWord((_LETTERS[name, name != text.strip()],))
    return _shared(_known(_parse_literal(text), quiver))
