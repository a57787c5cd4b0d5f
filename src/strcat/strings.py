"""Words over arrows and formal inverses, string modules, hooks and cohooks.

String validity is judged against the monomial quotient of the algebra by
its socle; the resulting string modules are exactly the non-projective
indecomposables of the algebras this package builds.  That M(w) is a
module over the full algebra is checked on the word, with no matrix:
``check_rules`` walks each completed rule's right side from each
position of w, and ``string_module`` builds M(w) only once
``check_string_module`` (``is_string`` and ``check_rules``) passes.

Being a string is a local condition (Butler and Ringel, Comm. Algebra 15,
1987): consecutive letters compose and do not cancel, and no run of
direct letters, nor of inverse ones, contains a socle rule.  ``_fits``
states it once, letter by letter: a letter composes with the next one, is
not undone by it, and starts no socle-rule window of its own run.
``is_string`` applies it at every letter of a word from outside
(``check_string_module``, which ``string_module``, ``canonical_homs`` and
``arquiver.omega_word`` call, and ``class_moves``).  The enumeration and
the hook and cohook moves grow strings one letter at a time at the start,
so ``_extend`` applies it at the new first letter only, in O(rules *
longest rule) whatever the length of the word.

Going the other way, ``module_word`` reads the string a module's basis
graph spells, which names a module without an isomorphism test; and
``syzygy_word`` reads the string that Omega M(w) spells off w and the
algebra's act table, with no module at all: the cover is one P(v) per
peak of w (``word_peaks``), and its kernel's basis graph is walked as
``module_word`` walks a module's.  ``arquiver.omega_word`` calls it.

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
    """An arrow, or its formal inverse.  A Letter is the plain tuple
    ``(arrow, inverse)`` and equals it, so words hash and compare as
    tuples, in C."""

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
    spells a socle rule (``Algebra.socle_windows``): the next k names of a
    direct run, the reversed next k of an inverse one.  Every window starts
    at some letter, so at every letter this is the whole string condition.
    Each letter costs O(longest rule) per window that starts with it."""
    ends = algebra.quiver.letter_ends
    windows = algebra.socle_windows
    for i in range(stop):
        x = letters[i]
        if i + 1 < len(letters):
            y = letters[i + 1]
            if ends(x)[1] != ends(y)[0] or (y.arrow == x.arrow and y.inverse != x.inverse):
                return False
        for window in windows.get(x, ()):
            if letters[i:i + len(window)] == window:
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
    if word.is_trivial and algebra.quiver.letter_ends(letter)[1] != word.vertex:
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


def _walk(move: dict, i: int, arrows: tuple[str, ...]) -> int | None:
    """The position that the path ``arrows`` sends position i to, with
    value 1, or None when it sends it to zero."""
    for a in arrows:
        i = move.get((i, a))
        if i is None:
            return None
    return i


def check_rules(algebra: Algebra, word: StringWord) -> None:
    """Raise a StrcatError naming the first completed rule that fails on
    M(word), for a string ``word``, with no matrix.

    Each arrow sends a position of the walk to at most one position, with
    value 1 (``_moves``), so a path sends it to one position or to zero,
    walking one way along the word and spelling a run of one direction.
    Two different paths from one position never reach the same position,
    and no completed rule's coefficient is 0 mod p, so a rule holds at a
    position exactly when each of its sides sends it to zero.  A left side
    is a socle rule (``Algebra._socle_quotient_rules``), which no run of a
    string contains, so only the right sides are walked."""
    rules = [rule for rule in algebra.rules if rule.rhs is not None]
    if not rules:
        return
    move = _moves(word)
    verts = word_vertices(algebra.quiver, word)
    for rule in rules:
        if any(_walk(move, i, rule.rhs.arrows) is not None
               for i, v in enumerate(verts) if v == rule.rhs.source):
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
    """The module on the walk: one basis vector per visited vertex.
    ``check_string_module`` refuses a word whose walk is not a module, so
    the construction does not check the rules again."""
    check_string_module(algebra, word)
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
    return homology.Representation(algebra, counts, mats, check=False)


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
            steps[x].append((y, Letter(a.name)))
            steps[y].append((x, Letter(a.name, True)))
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
def _cover_paths(algebra: Algebra):
    """What ``syzygy_word`` reads of the algebra, as lists: for each vertex
    v, each basis path k out of v as (k, prefix, a), the basis path
    ``prefix`` followed by the arrow named a being k (``prefix`` -1 for
    e_v), in basis order, which lists a prefix first; the arrow indices
    out of each vertex; each basis path's target; and the act table."""
    quiver = algebra.quiver
    paths = {v: [] for v in quiver.vertices}
    for k, q in enumerate(algebra.basis):
        if not q.arrows:
            paths[q.source].append((k, -1, None))
            continue
        a = quiver.arrow(q.arrows[-1])
        prefix = algebra.index[Path(q.source, a.source, q.arrows[:-1])]
        paths[q.source].append((k, prefix, a.name))
    out = {v: [x for x, a in enumerate(quiver.arrows) if a.source == v]
           for v in quiver.vertices}
    return (paths, out, [q.target for q in algebra.basis],
            algebra.act_index.tolist(), algebra.act_coeff.tolist())


def syzygy_word(algebra: Algebra, word: StringWord) -> StringWord | None:
    """The canonical word of Omega M(word), read off the word and the
    algebra's act table with no matrix; None when this read gives no
    answer, and always for a projective M(word), whose syzygy is zero.
    ``word`` must be a string whose M(word) is a module over the algebra,
    as ``check_string_module`` checks.

    The cover of M(word) is one P(v) per peak (``word_peaks``), and its
    basis vector (peak i, basis path q) goes to the position that q walks
    to from i along the word, or to zero.  So the kernel is spanned by the
    vectors sent to zero and, at each position that two of them reach (a
    deep between two peaks), by their difference.  Each arrow sends a
    vector of the first kind to one such vector (the act table), and a
    difference to a multiple of one kernel vector when the two terms'
    images are in the kernel basis; else the read gives up.  The kernel's
    edges then spell its word as in ``module_word``, and a string word
    names Omega M(word) (Butler and Ringel, Comm. Algebra 15, 1987).  It
    also gives up when some position is reached from no peak or from
    more than two rows, or when the edges spell no string."""
    quiver = algebra.quiver
    paths, out, target, act_index, act_coeff = _cover_paths(algebra)
    p, zero = algebra.p, algebra.dim
    verts, move = word_vertices(quiver, word), _moves(word)
    killed, fibres = [], [[] for _ in verts]  # the cover's rows (peak, basis path)
    for i in word_peaks(word):
        at = {}
        for k, prefix, a in paths[verts[i]]:
            at[k] = i if prefix < 0 else move.get((at[prefix], a))
            (killed if at[k] is None else fibres[at[k]]).append((i, k))
    if any(not 0 < len(f) <= 2 for f in fibres):
        return None
    # kernel vectors as {row: coefficient}: killed rows, then differences
    basis = [{r: 1} for r in killed] + [{f[1]: 1, f[0]: p - 1} for f in fibres if len(f) == 2]
    if not basis:
        return None
    coord = {r: (n, c) for n, vec in enumerate(basis) for r, c in vec.items()}
    steps = [[] for _ in basis]
    for n, vec in enumerate(basis):
        for x in out[target[next(iter(vec))[1]]]:
            image = {}
            for (i, k), c in vec.items():
                if act_index[k][x] != zero:
                    r = (i, act_index[k][x])
                    image[r] = (image.get(r, 0) + c * act_coeff[k][x]) % p
            image = {r: c for r, c in image.items() if c}
            if not image:
                continue
            r = next(iter(image))
            if r not in coord:
                return None
            m, unit = coord[r]  # unit is 1 or p - 1, its own inverse
            if image != {s: image[r] * unit * c % p for s, c in basis[m].items()}:
                return None  # not one multiple of one kernel vector
            name = quiver.arrows[x].name
            steps[n].append((m, Letter(name)))
            steps[m].append((n, Letter(name, True)))
    got = _path_word(algebra, steps, target[next(iter(basis[0]))[1]])
    return None if got is None else canonical(got, quiver)


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
