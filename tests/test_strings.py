import itertools
import re
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, find, given, settings
from hypothesis import strategies as st

from strcat import (
    DimensionBoundExceeded,
    IndexOutOfRange,
    NonTerminating,
    NotAString,
    RepresentationInfinite,
    StrcatError,
    UnknownArrow,
    build_family,
    canonical,
    canonical_homs,
    classify,
    empty_word,
    enumerate_strings,
    hom_dim,
    is_isomorphic,
    is_string,
    load_algebra_spec,
    named_string,
    parse_string_literal,
    string_module,
    syzygy,
    word_vertices,
)
from strcat import arquiver, cli, families, strings
from strcat.families import get as get_family
from strcat.quiver_core import DEFAULT_PRIME
from strcat.strings import (
    Letter,
    StringWord,
    class_moves,
    family_node_names,
    module_word,
)

from .builders import (
    INFINITE_SPEC,
    NON_MODULE_STRING_SPEC,
    NOT_SELF_INJECTIVE_SPEC,
    ae1,
    ae2,
    ae3,
    brauer_line_spec,
    brauer_star_spec,
    brauer_tree_specs,
)
from .oracles import ORACLE_CASES
from .reference import (
    capped_strings,
    default_cap,
    extensions_at_start,
    family_literal,
    letter_class_moves,
    letter_omega_string,
    letter_strings,
    letter_source,
    letter_target,
    rescanned_extension,
    scanned_is_string,
    socle_dims,
    syzygy_word,
    top_dims,
    walked_representation,
    word_order_key,
)
from .test_arquiver import nakayama_spec, word_read_algebras
from .test_quiver_core import built_or_skipped, small_specs


class OnPeak(StrcatError):
    """The string admits no hook extension on the requested side."""


class InDeep(StrcatError):
    """The string admits no cohook extension on the requested side."""


def maximal_directed_strings(algebra):
    """Direct strings no arrow can prolong on the left."""
    quiver = algebra.quiver
    out = []
    for w in enumerate_strings(algebra):
        if w.length < 1:
            continue
        if any(l.inverse for l in w.letters):
            if not all(l.inverse for l in w.letters):
                continue
            w = w.inverse()
        if not any(is_string(StringWord((Letter(a.name),) + w.letters), algebra)
                   for a in quiver.arrows):
            out.append(canonical(w, quiver))
    return sorted(set(out), key=lambda w: word_order_key(quiver, w))


def _one_sided(word, algebra, side, hook):
    if side not in ("left", "right"):
        raise StrcatError("side must be 'left' or 'right'")
    attempts = [word, word.inverse()] if side == "left" else \
        [word.inverse(), word]
    for w in attempts:
        got = extensions_at_start(w, algebra, hook)
        if got:
            return canonical(got[0], algebra.quiver)
    return None


def add_hook(algebra, word, side):
    """One-step hook extension on the given side of the walk.

    The move attaches a junction arrow pointing into the walk plus the
    maximal directed tail; when the shown representative is on a peak the
    reversed representative is tried, so the operation acts on the class.
    With two admissible junction arrows, declaration order decides.
    """
    if not is_string(word, algebra):
        raise NotAString(f"{word} is not a string over this algebra")
    got = _one_sided(word, algebra, side, hook=True)
    if got is None:
        raise OnPeak(f"{word} admits no hook on the {side} side")
    return got


def add_cohook(algebra, word, side):
    """One-step cohook extension; the extension projects onto the input."""
    if not is_string(word, algebra):
        raise NotAString(f"{word} is not a string over this algebra")
    got = _one_sided(word, algebra, side, hook=False)
    if got is None:
        raise InDeep(f"{word} admits no cohook on the {side} side")
    return got


def lit(text, algebra):
    return parse_string_literal(text, algebra.quiver)


def test_is_string_examples():
    A = ae2(2)
    assert is_string(lit("a,b,a", A), A)
    assert not is_string(lit("a,a~", A), A)
    B = ae3(3)
    assert not is_string(lit("b,r", B), B)  # br dies in the socle quotient
    assert is_string(lit("b,r~", B), B)


def test_is_string_unknown_arrow():
    A = ae1(2)
    with pytest.raises(UnknownArrow):
        is_string(StringWord((Letter("z"),)), A)


@pytest.mark.parametrize("build", [lambda: ae1(3), lambda: ae2(2), lambda: ae3(3)])
def test_letter_ends_are_the_declared_arrows_ends(build):
    quiver = build().quiver
    for a in quiver.arrows:
        for letter in (Letter(a.name), Letter(a.name, True)):
            assert quiver.letter_ends(letter) == (letter_source(quiver, letter),
                                                  letter_target(quiver, letter))
    for bad in (Letter("z"), Letter("z", True), ([], False)):
        with pytest.raises(StrcatError, match="unknown arrow"):
            quiver.letter_ends(bad)
    with pytest.raises(StrcatError, match="unknown arrow 'z'"):
        word_vertices(quiver, StringWord((Letter("a"), Letter("z"))))


@pytest.mark.parametrize("m", range(1, 6))
def test_ae1_string_count(m):
    A = ae1(m)
    words = enumerate_strings(A)
    assert len(words) == m
    assert words[0] == empty_word(0)


@pytest.mark.parametrize("m", range(1, 6))
def test_ae2_string_count(m):
    assert len(enumerate_strings(ae2(m))) == 4 * m


@pytest.mark.parametrize("m", range(2, 6))
def test_ae3_string_count(m):
    assert len(enumerate_strings(ae3(m))) == 4 * m


@pytest.mark.parametrize("family,m", [("ae1", 3), ("ae2", 2), ("ae3", 4)])
def test_named_strings_cover_the_enumeration(family, m):
    A = build_family(family, m)
    named = {w for _, w in family_node_names(family, m, A.quiver)}
    assert named == set(enumerate_strings(A))


def smaller_orientation(word, quiver):
    return min(word, word.inverse(), key=lambda w: word_order_key(quiver, w))


@pytest.mark.parametrize("family,m", ORACLE_CASES)
def test_canonical_is_the_smaller_orientation(family, m):
    # every string, and every word one letter longer at either end, string or not
    A = build_family(family, m)
    letters = [Letter(a.name, inv) for a in A.quiver.arrows for inv in (False, True)]
    for w in enumerate_strings(A):
        longer = [StringWord(ext) for l in letters for ext in ((l,) + w.letters, w.letters + (l,))]
        for word in [w, w.inverse()] + longer:
            assert canonical(word, A.quiver) == smaller_orientation(word, A.quiver), str(word)


@given(st.lists(st.tuples(st.sampled_from("rab"), st.booleans()), max_size=8),
       st.sampled_from([0, 1]))
def test_canonical_of_any_word_is_the_smaller_orientation(letters, vertex):
    # the letters need not compose; a word such as r,r~ is its own inverse
    quiver = algebra_of("ae3", 3).quiver
    word = (StringWord(tuple(Letter(a, inv) for a, inv in letters)) if letters
            else empty_word(vertex))
    assert canonical(word, quiver) == smaller_orientation(word, quiver)


def test_enumeration_is_sorted_and_deterministic():
    A = ae3(3)
    words = enumerate_strings(A)
    keys = [word_order_key(A.quiver, w) for w in words]
    assert keys == sorted(keys)
    # a second call on A would return the memoized tuple itself
    assert words == enumerate_strings(ae3(3))


# and a Brauer line with its vertices declared in decreasing order, where
# the trivial words sort by vertex, not by declaration
ORDERED_ALGEBRAS = word_read_algebras() + [
    ("brauer-2-vertices-reversed",
     lambda: load_algebra_spec({**brauer_line_spec(2), "vertices": [2, 1, 0]}))]


@pytest.mark.parametrize("build", [b for _, b in ORDERED_ALGEBRAS],
                         ids=[name for name, _ in ORDERED_ALGEBRAS])
def test_enumeration_is_in_the_word_order(build):
    # the spelling's order is the letter-by-letter order of word_order_key
    A = build()
    keys = [word_order_key(A.quiver, w) for w in enumerate_strings(A)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumeration_memo_ignores_the_call_form():
    A = ae3(3)
    words = enumerate_strings(A)
    assert enumerate_strings(A, None) is words
    assert enumerate_strings(A, length_cap=None) is words
    # the cap is ignored, even one below the longest string
    assert enumerate_strings(A, length_cap=2) == words


def assert_enumeration_is_exact(A):
    """The strings equal the capped enumeration run just past the longest
    of them, and the default-capped one wherever that one finishes."""
    words = enumerate_strings(A)
    assert capped_strings(A, max(w.length for w in words) + 1) == words
    assert capped_strings(A, default_cap(A)) in (None, words)
    return words


@pytest.mark.parametrize("p", [2, 3, DEFAULT_PRIME])
@pytest.mark.parametrize("family,m", ORACLE_CASES)
def test_enumeration_equals_the_capped_one(family, m, p):
    A = build_family(family, m, p)
    assert capped_strings(A, default_cap(A)) == assert_enumeration_is_exact(A)


@pytest.mark.parametrize("e", [2, 3, 5, 8])
def test_brauer_lines_have_strings_past_the_old_cap(e):
    # the cap at the longest basis path plus two refused these algebras
    A = load_algebra_spec(brauer_line_spec(e))
    assert capped_strings(A, default_cap(A)) is None
    assert len(assert_enumeration_is_exact(A)) == 9 * e
    if e <= 5:
        assert capped_strings(A, 60) == enumerate_strings(A)


def assert_pumps(A, exc):
    """The string that RepresentationInfinite names repeats its first K - 1
    letters, and stays a string, by ``is_string`` alone, with the stretch
    before the repeat written once and twice more."""
    word = parse_string_literal(re.search(r"strings: (\S+) repeats", str(exc)).group(1),
                                A.quiver)
    head = max([2, *(len(rule.arrows) for rule in A.socle_rules)]) - 1
    letters = word.letters
    period = next(j for j in range(1, word.length - head + 1)
                  if letters[j:j + head] == letters[:head])
    assert is_string(word, A)
    for times in (1, 2):
        assert is_string(StringWord(letters[:period] * times + letters), A), times


def test_representation_infinite_algebra_names_a_pumping_string():
    A = load_algebra_spec(INFINITE_SPEC)
    with pytest.raises(RepresentationInfinite, match="x,y~,x repeats") as exc:
        enumerate_strings(A)
    assert_pumps(A, exc.value)


@given(spec=small_specs())
def test_enumeration_of_random_specs_is_exact_or_pumps(spec):
    A = built_or_skipped(spec)
    try:
        assert_enumeration_is_exact(A)
    except RepresentationInfinite as exc:
        assert_pumps(A, exc)


@st.composite
def infinite_specs(draw):
    """k<x, y> / (x^a, y^b, yx - c xy) with a, b in {2, 3} and c in F_p^x:
    INFINITE_SPEC when a = b = 2 and c = 1.  The band x y~ x y~ ... gives
    each infinitely many strings."""
    a, b = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    c = draw(st.integers(1, DEFAULT_PRIME - 1))
    return {**INFINITE_SPEC, "dim_bound": a * b, "rules": [
        {"lhs": ["x"] * a, "rhs": None}, {"lhs": ["y"] * b, "rhs": None},
        {"lhs": ["y", "x"], "rhs": {"coeff": c, "path": ["x", "y"]}}]}


@given(spec=infinite_specs())
def test_enumeration_of_infinite_specs_pumps(spec):
    A = load_algebra_spec(spec)
    with pytest.raises(RepresentationInfinite) as exc:
        enumerate_strings(A)
    assert_pumps(A, exc.value)


def test_maximal_directed_strings():
    assert [w.literal() for w in maximal_directed_strings(ae1(4))] == ["a,a,a"]
    assert {w.literal() for w in maximal_directed_strings(ae2(2))} == \
        {"a,b,a", "b,a,b"}
    got = {w.literal() for w in maximal_directed_strings(ae3(3))}
    assert "r,r" in got and got == {"a", "b", "r,r"}


def test_string_module_shapes():
    A = ae2(2)
    S0 = string_module(A, empty_word(0))
    assert S0.dim_vector() == (1, 0)
    M = string_module(A, lit("a,b", A))
    assert M.dim_vector() == (2, 1)

    B = ae3(2)
    Mb = string_module(B, lit("b", B))
    assert top_dims(Mb) == {0: 0, 1: 1}    # top S(1)
    assert socle_dims(Mb) == {0: 1, 1: 0}  # socle S(0)


@pytest.mark.parametrize("family,m", ORACLE_CASES)
def test_string_module_places_its_matrices_by_word_layout(family, m):
    # letter j joins positions j and j + 1; its 1 sits at their indices in
    # the layout, read from the arrow's source to its target
    A = build_family(family, m)
    for w in enumerate_strings(A):
        for word in (w, w.inverse()):
            verts, local = strings.word_layout(A.quiver, word)
            assert verts == word_vertices(A.quiver, word)
            assert local == [verts[:j].count(v) for j, v in enumerate(verts)]
            M = string_module(A, word)
            assert M.dims == {v: verts.count(v) for v in A.quiver.vertices}
            want = {name: np.zeros_like(mat) for name, mat in M.mats.items()}
            for j, letter in enumerate(word.letters):
                src, tgt = (j + 1, j) if letter.inverse else (j, j + 1)
                want[letter.arrow][local[src], local[tgt]] = 1
            for name, mat in M.mats.items():
                assert np.array_equal(mat, want[name]), (str(word), name)


def peaks_and_deeps(quiver, word):
    """Per vertex, the positions of the walk that no letter points into
    (peaks) and that no letter leaves (deeps)."""
    verts = word_vertices(quiver, word)
    entered = [False] * len(verts)
    left = [False] * len(verts)
    for j, letter in enumerate(word.letters):
        # letter j joins positions j and j + 1; a direct letter maps j to j + 1
        src, tgt = (j + 1, j) if letter.inverse else (j, j + 1)
        left[src] = entered[tgt] = True
    peaks = Counter(v for v, hit in zip(verts, entered) if not hit)
    deeps = Counter(v for v, hit in zip(verts, left) if not hit)
    return ({v: peaks[v] for v in quiver.vertices},
            {v: deeps[v] for v in quiver.vertices})


ALL_SMALL = ([("ae1", m) for m in range(1, 7)] + [("ae2", m) for m in range(1, 5)]
             + [("ae3", m) for m in range(2, 7)])


@pytest.mark.parametrize("family,m", ALL_SMALL)
def test_string_tops_are_peaks_and_socles_are_deeps(family, m):
    # Butler-Ringel: the top of a string module has one simple per peak of
    # the walk and its socle one per deep
    A = build_family(family, m)
    for w in enumerate_strings(A):
        M = string_module(A, w)
        peaks, deeps = peaks_and_deeps(A.quiver, w)
        assert top_dims(M) == peaks, w
        assert socle_dims(M) == deeps, w


@pytest.mark.parametrize("family,m", [("ae1", 4), ("ae2", 2), ("ae3", 3)])
def test_module_of_inverse_word_is_isomorphic(family, m):
    A = build_family(family, m)
    for w in enumerate_strings(A):
        assert string_module(A, w).total_dim == w.length + 1
        assert is_isomorphic(string_module(A, w), string_module(A, w.inverse()))


def test_ae1_right_hook_climbs_the_tube():
    m = 4
    A = ae1(m)
    for j in range(1, m):
        got = add_hook(A, named_string("ae1", m, f"V{j - 1}"), "right")
        assert got == canonical(named_string("ae1", m, f"V{j}"), A.quiver)
    with pytest.raises(OnPeak):
        add_hook(A, named_string("ae1", m, f"V{m - 1}"), "right")


def test_ae2_right_cohook_climbs_the_component():
    m = 3
    A = ae2(m)
    for j in range(1, 2 * m):
        got = add_cohook(A, named_string("ae2", m, f"M{j - 1}"), "right")
        assert got == canonical(named_string("ae2", m, f"M{j}"), A.quiver)
    with pytest.raises(InDeep):
        add_cohook(A, named_string("ae2", m, f"M{2 * m - 1}"), "right")


def test_ae3_left_hook_of_x_series():
    m = 4
    A = ae3(m)
    for i in range(1, m):
        got = add_hook(A, named_string("ae3", m, f"X{i}"), "left")
        assert got == canonical(named_string("ae3", m, f"U{i}"), A.quiver)


@pytest.mark.parametrize("family,m", [("ae1", 4), ("ae2", 2), ("ae3", 3)])
def test_hook_cohook_web_connects_every_string_to_a_simple(family, m):
    # every string takes part in a hook or cohook move chain that touches
    # a trivial string; the nested inverse-loop strings of ae3 only occur
    # as bases of moves, never as extensions, so the web is traversed in
    # both roles
    A = build_family(family, m)
    nodes = set(enumerate_strings(A))
    neighbors = {w: set() for w in nodes}
    for w in nodes:
        for src, tgt, _ in class_moves(A, w):
            neighbors[src].add(tgt)
            neighbors[tgt].add(src)
    reached = {w for w in nodes if w.length == 0}
    frontier = list(reached)
    while frontier:
        nxt = []
        for w in frontier:
            for got in neighbors[w]:
                if got not in reached:
                    reached.add(got)
                    nxt.append(got)
        frontier = nxt
    assert reached == nodes


def all_letters(algebra):
    return [Letter(a.name, inverse) for a in algebra.quiver.arrows for inverse in (False, True)]


def assert_extension_matches_a_rescan(algebra, longest):
    """On every string of length at most ``longest``, in both orientations
    and grown by ``rescanned_extension``, ``_prepended`` gives the spellings
    of the strings that a whole-word ``is_string`` check gives for each
    letter, in arrow order with direct before inverse, and in each
    direction alone; a trivial word is given by its vertex's code."""
    quiver = algebra.quiver
    level = [empty_word(v) for v in quiver.vertices]
    for _ in range(longest + 1):
        longer = []
        for w in level:
            text = strings.spelling(quiver, w) or quiver.codes[w.vertex]
            want = [got for letter in all_letters(algebra)
                    if (got := rescanned_extension(w, letter, algebra)) is not None]
            spelt = [strings.spelling(quiver, got) for got in want]
            assert strings._prepended(text, algebra, (False, True)) == spelt, str(w)
            for inverse in (False, True):
                assert strings._prepended(text, algebra, (inverse,)) == [
                    t for got, t in zip(want, spelt) if got.letters[0].inverse == inverse
                ], (str(w), inverse)
            longer += want
        level = longer


ORACLE_CASES_AT_PRIMES = [(family, m, p) for family, m in ORACLE_CASES
                          for p in (2, 3, DEFAULT_PRIME)]


# every family with m <= 8 at each prime, which holds ORACLE_CASES_AT_PRIMES,
# then the Brauer lines and stars and the Nakayama algebras
@pytest.mark.parametrize("build", [b for _, b in word_read_algebras()],
                         ids=[name for name, _ in word_read_algebras()])
def test_extension_checks_only_the_new_letter(build):
    A = build()
    longest = max(w.length for w in enumerate_strings(A))
    assert_extension_matches_a_rescan(A, longest + 1)


@given(spec=small_specs(), p=st.sampled_from([2, 3, DEFAULT_PRIME]))
def test_extension_of_random_strings_checks_only_the_new_letter(spec, p):
    assert_extension_matches_a_rescan(built_or_skipped({**spec, "prime": p}), 4)


@settings(max_examples=30, deadline=None)
@given(case=brauer_tree_specs())
def test_extension_on_random_brauer_trees_checks_only_the_new_letter(case):
    A = load_algebra_spec(case[0])
    longest = max(w.length for w in enumerate_strings(A))
    assert_extension_matches_a_rescan(A, longest + 1)


class _CountedRows(dict):
    """A row table that counts its lookups."""

    lookups = 0

    def __getitem__(self, head):
        self.lookups += 1
        return super().__getitem__(head)


def test_enumeration_reads_one_row_per_grown_word(monkeypatch):
    # the head's row, keyed by the head's code, is read once per _prepended
    # call, not once per candidate letter (2 * #arrows per word)
    A = build_family("ae3", 16)
    table = strings._factors(A)
    rows = _CountedRows(table[0])
    assert set(rows) == set(A.quiver.codes.values())
    monkeypatch.setattr(strings, "_factors", lambda algebra: (rows, *table[1:]))
    calls = []
    prepended = strings._prepended
    monkeypatch.setattr(strings, "_prepended", lambda *args: calls.append(args) or prepended(*args))
    words = strings.enumerate_strings.__wrapped__(A)
    assert words == enumerate_strings(A)
    assert all(type(text) is str for text, _, _ in calls)
    assert 0 < rows.lookups <= len(calls)


def assert_is_string_matches_a_scan(algebra, longest):
    """On each trivial word and on every word of at most ``longest``
    letters, composable or not, ``is_string`` agrees with a whole-word scan
    of its runs."""
    letters = all_letters(algebra)
    words = [empty_word(v) for v in algebra.quiver.vertices]
    words += [StringWord(w) for k in range(1, longest + 1)
              for w in itertools.product(letters, repeat=k)]
    for w in words:
        assert is_string(w, algebra) == scanned_is_string(w, algebra), str(w)


@pytest.mark.parametrize("family,m,p", ORACLE_CASES_AT_PRIMES)
def test_is_string_of_every_short_word_matches_a_scan(family, m, p):
    # every socle rule and one letter more, where that stays under about
    # 22 000 words: all of ae1's and ae2's rules are reached, r^5 but not
    # r^6 of ae3 m=5, in either direction
    A = build_family(family, m, p)
    longest = max(r.length for r in A.socle_rules) + 1
    assert_is_string_matches_a_scan(A, min(longest, {"ae1": 8, "ae2": 7, "ae3": 5}[family]))


@given(spec=small_specs(), p=st.sampled_from([2, 3, DEFAULT_PRIME]))
def test_is_string_of_every_short_random_word_matches_a_scan(spec, p):
    assert_is_string_matches_a_scan(built_or_skipped({**spec, "prime": p}), 4)


def test_enumeration_never_rescans_a_word(monkeypatch):
    calls = []
    real = strings.is_string

    def counted(word, algebra):
        calls.append(word)
        return real(word, algebra)

    monkeypatch.setattr(strings, "is_string", counted)
    assert max(w.length for w in enumerate_strings(build_family("ae3", 16))) > 1
    assert not calls


def test_a_word_that_is_not_a_string_has_no_moves():
    A = ae3(3)
    for text in ("b,r", "a,a~", "r~,b~"):
        word = lit(text, A)
        assert not is_string(word, A)
        assert class_moves(A, word) == []


def test_a_nonempty_word_has_no_base_vertex():
    with pytest.raises(StrcatError, match="no base vertex"):
        StringWord((Letter("a"),), 0)
    with pytest.raises(StrcatError, match="needs its base vertex"):
        StringWord()


def test_named_string_words():
    assert named_string("ae2", 2, "M3").literal() == "a,b,a"
    assert named_string("ae3", 3, "U0") == empty_word(1)
    assert named_string("ae1", 3, "V0") == empty_word(0)
    assert named_string("ae3", 3, "X2").literal() == "r~,a"
    with pytest.raises(IndexOutOfRange):
        named_string("ae1", 3, "V3")
    with pytest.raises(IndexOutOfRange):
        named_string("ae2", 2, "X1")


def family_names(family, m):
    """(name, series, index) of every string the family names at m."""
    return [(f"{series}{i}", series, i)
            for series, rng in get_family(family).series(m).items() for i in rng]


@pytest.mark.parametrize("family,m", [(f.name, m) for f in families.FAMILIES.values()
                                      for m in [*range(f.m_min, f.m_min + 8), f.m_max]])
def test_family_words_equal_the_literal_oracle(family, m):
    # the record's letters spell the words the paper's series name
    quiver = build_family(family, m).quiver
    names = family_names(family, m)
    for name, series, i in names:
        assert named_string(family, m, name).literal() == family_literal(family, series, i, m)
    assert family_node_names(family, m, quiver) == [
        (name, canonical(parse_string_literal(family_literal(family, series, i, m), quiver),
                         quiver))
        for name, series, i in names]


def named_results(family, m):
    """What the named words give: the node names, every named word, and
    classify's reports, in the library and on the command line."""
    A = build_family(family, m)  # a fresh algebra, so nothing is memoized
    return (family_node_names(family, m, A.quiver),
            [named_string(family, m, name) for name, _, _ in family_names(family, m)],
            classify(A, family, m),
            cli.main(["classify", "--family", family, "--m", str(m)]))


class Refusing:
    """A stand-in for a literal reader, a function or a pattern, that raises
    when it is called or a method of it is."""

    def __call__(self, *args, **kwargs):
        raise AssertionError("a named word was read from a literal")

    def __getattr__(self, attr):
        return self


@pytest.mark.parametrize("family,m", [("ae1", 4), ("ae2", 3), ("ae3", 4)])
def test_named_words_read_no_literal(family, m, monkeypatch, capsys):
    # the family record gives letters, so every literal reader left in
    # strings can raise and the named words and what they give stay the same
    want, out = named_results(family, m), capsys.readouterr().out
    readers = [name for name, value in vars(strings).items()
               if "literal" in name.lower() and (callable(value) or isinstance(value, re.Pattern))]
    assert {"parse_string_literal", "TRIVIAL_LITERAL"} <= set(readers)
    for name in readers:
        monkeypatch.setattr(strings, name, Refusing())
    assert named_results(family, m) == want and capsys.readouterr().out == out


def test_parse_string_literal_forms():
    A = ae3(2)
    assert parse_string_literal("e1", A.quiver) == empty_word(1)
    word = parse_string_literal("b,r~,a", A.quiver)
    assert [str(l) for l in word.letters] == ["b", "r~", "a"]
    # juxtaposition without commas works for single-letter arrow names
    assert parse_string_literal("br~a", A.quiver) == word
    with pytest.raises(UnknownArrow):
        parse_string_literal("q", A.quiver)
    # a '~' that follows no letter is refused, not dropped
    for text in ("~b", "b~~", "br~~a", "~"):
        with pytest.raises(StrcatError, match="stray '~'"):
            parse_string_literal(text, A.quiver)
    # so is an empty name between commas: a,,a is not read as a,a
    for text in ("a,,a", ",a", "a,", ",", " b, ,a "):
        with pytest.raises(StrcatError, match="empty letter in string literal "
                           + re.escape(repr(text.strip()))):
            parse_string_literal(text, A.quiver)
    assert parse_string_literal(" b , r~ ,a ", A.quiver) == word
    # a literal without commas that names an arrow is that one letter
    B = load_algebra_spec(nakayama_spec())
    assert parse_string_literal("x0", B.quiver) == StringWord((Letter("x0"),))
    assert parse_string_literal(" x6~ ", B.quiver) == StringWord((Letter("x6", True),))
    assert parse_string_literal("x0,x1", B.quiver).length == 2
    with pytest.raises(UnknownArrow):
        parse_string_literal("x0x1", B.quiver)


def test_a_literal_that_fails_to_parse_interns_no_letter():
    # the names are checked against the quiver before any Letter is made, so
    # the shared table holds the letters of arrows only
    A = ae3(3)
    enumerate_strings(A)
    before = dict(strings._LETTERS)
    for text in ("zz,qq~", "a,zz~", "b~,r,qq", "z~"):
        with pytest.raises(UnknownArrow):
            parse_string_literal(text, A.quiver)
    assert strings._LETTERS == before
    assert not {name for name, _ in strings._LETTERS} & {"zz", "qq", "z"}


def assert_literals_read_back(algebra):
    for w in enumerate_strings(algebra):
        for word in {w, w.inverse()}:
            assert parse_string_literal(word.literal(), algebra.quiver) == word, word


def test_literals_of_the_nakayama_strings_read_back():
    assert_literals_read_back(load_algebra_spec(nakayama_spec()))


@pytest.mark.parametrize("family,m", [("ae1", 1), ("ae1", 5), ("ae2", 1), ("ae2", 3),
                                      ("ae3", 2), ("ae3", 5)])
def test_literals_of_the_family_strings_read_back(family, m):
    assert_literals_read_back(build_family(family, m))


@given(spec=small_specs())
def test_literals_of_random_spec_strings_read_back(spec):
    # arrow names x0, x1, ...: a one-letter word prints without a comma
    A = built_or_skipped(spec)
    try:
        assert_literals_read_back(A)
    except RepresentationInfinite:
        assume(False)


# -- random words ------------------------------------------------------------------


algebra_of = lru_cache(maxsize=None)(build_family)


@st.composite
def random_strings(draw):
    """An algebra of a built-in family and a string over it, grown one
    letter at a time from a vertex; each step draws among the letters that
    keep the walk a string."""
    family = draw(st.sampled_from(["ae1", "ae2", "ae3"]))
    m = draw(st.integers(get_family(family).m_min, 5))
    A = algebra_of(family, m)
    word = empty_word(draw(st.sampled_from(A.quiver.vertices)))
    for _ in range(draw(st.integers(0, 12))):
        end = word_vertices(A.quiver, word)[-1]
        longer = [StringWord(word.letters + (l,))
                  for a in A.quiver.arrows for l in (Letter(a.name), Letter(a.name, True))
                  if letter_source(A.quiver, l) == end]
        longer = [w for w in longer if is_string(w, A)]
        if not longer:
            break
        word = draw(st.sampled_from(longer))
    return A, word


@given(random_strings())
def test_random_strings_give_modules(case):
    A, w = case
    M = string_module(A, w)
    M.check_relations()
    assert M.total_dim == w.length + 1


@given(random_strings())
def test_random_string_and_its_inverse_give_isomorphic_modules(case):
    A, w = case
    assert is_isomorphic(string_module(A, w), string_module(A, w.inverse()))


@given(random_strings())
def test_random_string_endomorphisms_are_counted_by_canonical_homs(case):
    A, w = case
    M = string_module(A, w)
    assert hom_dim(M, M) == len(canonical_homs(A, w, w))


# -- syzygies read off words ----------------------------------------------------------


def module_syzygy_word(algebra, word):
    """The canonical word of Omega M(word) by the module route: the cover's
    kernel as a module, named by the word its basis graph spells; None for
    a zero syzygy."""
    rep = syzygy(string_module(algebra, word))
    return None if rep.is_zero() else canonical(strings.module_word(rep), algebra.quiver)


@pytest.mark.parametrize("build", [b for _, b in word_read_algebras()],
                         ids=[name for name, _ in word_read_algebras()])
def test_syzygy_word_equals_the_module_syzygy(build):
    # on these self-injective string algebras the rule and its oracle, the
    # cover's kernel walked as a basis graph, always answer, with the word
    # that the module syzygy spells
    A = build()
    for w in enumerate_strings(A):
        got = strings.omega_string(A, w)
        assert got is not None and got == syzygy_word(A, w) == module_syzygy_word(A, w), w


def test_brauer_stars_have_n_squared_e_strings():
    for n, e in ((3, 1), (3, 2), (2, 3), (4, 2)):
        assert len(enumerate_strings(load_algebra_spec(brauer_star_spec(n, e)))) == n * n * e


@settings(max_examples=200, deadline=None)
@given(spec=small_specs())
def test_syzygy_word_of_random_specs_agrees_or_declines(spec):
    # off the string algebras the read may give up, but an answer it gives
    # names the module syzygy, and it never answers for a zero syzygy
    A = built_or_skipped(spec)
    try:
        words = enumerate_strings(A)
    except RepresentationInfinite:
        assume(False)
    for w in words:
        try:
            M = string_module(A, w)
        except StrcatError:
            continue
        got, rep = syzygy_word(A, w), syzygy(M)
        if rep.is_zero():
            assert got is None, w
        elif got is not None:
            assert is_isomorphic(rep, string_module(A, got)), (w, got)


@settings(max_examples=200, deadline=None)
@given(spec=small_specs())
def test_omega_string_of_random_specs_in_its_scope_names_the_module_syzygy(spec):
    # where the branch table certifies the algebra, the rule answers on every
    # string whose syzygy is nonzero, with a string of an isomorphic module;
    # off it, the rule declines every word
    A = built_or_skipped(spec)
    try:
        words = enumerate_strings(A)
    except RepresentationInfinite:
        assume(False)
    in_scope = strings._branches(A) is not None
    for w in words:
        try:
            M = string_module(A, w)
        except StrcatError:
            continue
        got, rep = strings.omega_string(A, w), syzygy(M)
        if rep.is_zero() or not in_scope:
            assert got is None, w
        else:
            assert got is not None and is_isomorphic(rep, string_module(A, got)), (w, got)


@settings(max_examples=100, deadline=None)
@given(case=brauer_tree_specs())
def test_omega_string_on_random_brauer_trees(case):
    # a tree of n edges with multiplicity mu has n^2 mu strings; the rule
    # equals the cover's kernel read on each, and every Omega-period divides
    # 2n (Green, J. Austral. Math. Soc. 17, 1974: the walk around the tree)
    spec, n, mu = case
    A = load_algebra_spec(spec)
    assert A.dim == spec["dim_bound"]
    words = enumerate_strings(A)
    assert len(words) == n * n * mu
    for w in words:
        got = strings.omega_string(A, w)
        assert got is not None and got == syzygy_word(A, w), w
    for w in words:
        orbit = [w]
        while (got := strings.omega_string(A, orbit[-1])) != w:
            orbit.append(got)
            assert len(orbit) <= len(words), w
        assert 2 * n % len(orbit) == 0, (w, len(orbit))


def test_the_branch_table_refuses_an_algebra_that_is_not_self_injective():
    # the peaks would read Omega(e1) = rad P(1), which is P(0), as x0, which
    # is no string: x0 spans soc P(0)
    A = load_algebra_spec(NOT_SELF_INJECTIVE_SPEC)
    assert strings._branches(A) is None
    e1 = empty_word(1)
    assert strings.omega_string(A, e1) is None
    rep = syzygy(string_module(A, e1))
    assert rep.dim_vector() == (2, 0) and module_word(rep) is None


# -- the rules checked on words -------------------------------------------------------


def construction_verdict(check, algebra, word):
    """The message of the StrcatError that ``check(algebra, word)`` raises,
    None when it raises none."""
    try:
        check(algebra, word)
    except StrcatError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def assert_rule_check_matches_the_construction(algebra, word):
    # the word check refuses a word that a whole-word scan finds is not a
    # string, first, and then exactly the strings whose module, built with
    # Representation's construction check, fails a rule, with its message
    if scanned_is_string(word, algebra):
        want = construction_verdict(lambda A, w: walked_representation(A, w), algebra, word)
    else:
        want = f"NotAString: {word} is not a string over this algebra"
    assert construction_verdict(strings.check_string_module, algebra, word) == want, str(word)


def assert_rule_check_matches_on_every_short_word(algebra, longest):
    """On each trivial word and on every word of at most ``longest``
    letters, composable or not."""
    letters = all_letters(algebra)
    for v in algebra.quiver.vertices:
        assert_rule_check_matches_the_construction(algebra, empty_word(v))
    for k in range(1, longest + 1):
        for w in itertools.product(letters, repeat=k):
            assert_rule_check_matches_the_construction(algebra, StringWord(w))


@pytest.mark.parametrize("build", [b for _, b in word_read_algebras()],
                         ids=[name for name, _ in word_read_algebras()])
def test_rule_check_on_words_matches_the_construction_check(build):
    A = build()
    for w in enumerate_strings(A):
        for word in (w, w.inverse()):
            assert_rule_check_matches_the_construction(A, word)


@pytest.mark.parametrize("build", [b for _, b in word_read_algebras()],
                         ids=[name for name, _ in word_read_algebras()])
def test_rule_check_on_every_short_word_matches_the_construction_check(build):
    # NotAString before any failing rule, on words that hold several
    # forbidden factors at once
    A = build()
    assert_rule_check_matches_on_every_short_word(A, 3 if len(A.quiver.arrows) > 3 else 4)


TRIVIAL_RIGHT_SIDE_SPEC = {
    "vertices": [0], "arrows": [{"name": "x", "from": 0, "to": 0}],
    "rules": [{"lhs": ["x", "x"], "rhs": {"coeff": 1, "path": []}}], "dim_bound": 4}


@pytest.mark.parametrize("spec", [NON_MODULE_STRING_SPEC, TRIVIAL_RIGHT_SIDE_SPEC],
                         ids=["non-module-string", "trivial-right-side"])
def test_rule_check_on_every_word_of_five_letters_matches_the_construction_check(spec):
    assert_rule_check_matches_on_every_short_word(load_algebra_spec(spec), 5)


def test_rule_check_refuses_what_string_module_refuses():
    A = load_algebra_spec(NON_MODULE_STRING_SPEC)
    x2 = parse_string_literal("x2", A.quiver)
    for check in (strings.check_string_module, string_module):
        with pytest.raises(StrcatError, match=r"^rule x1 -> 1\*x2 fails on this representation$"):
            check(A, x2)
        with pytest.raises(NotAString):
            check(A, parse_string_literal("x1", A.quiver))
        with pytest.raises(UnknownArrow):
            check(A, StringWord((Letter("z"),)))
    word = parse_string_literal("e1", A.quiver)
    assert strings.check_string_module(A, word) is None
    assert ("check_string_module", word) in A.memo  # memoized per algebra


# two binomial rules, x1 -> x2 before y1 -> y2 in rule order; the string
# y2,x2~ walks the right side of the second before that of the first.  The
# loop z keeps e0 out of the socle, so that x2 and y2 are strings.
TWO_BINOMIAL_RULES_SPEC = {
    "vertices": [0, 1, 2],
    "arrows": [{"name": "z", "from": 0, "to": 0},
               {"name": "x1", "from": 1, "to": 0}, {"name": "x2", "from": 1, "to": 0},
               {"name": "y1", "from": 2, "to": 0}, {"name": "y2", "from": 2, "to": 0}],
    "rules": [{"lhs": ["z", "z"], "rhs": None},
              {"lhs": ["x1"], "rhs": {"coeff": 1, "path": ["x2"]}},
              {"lhs": ["y1"], "rhs": {"coeff": 1, "path": ["y2"]}}],
    "dim_bound": 8,
}


def test_rule_check_names_the_first_failing_rule_in_rule_order():
    # the construction check names the first rule in rule order that
    # fails, not the one whose right side the word walks first
    A = load_algebra_spec(TWO_BINOMIAL_RULES_SPEC)
    assert [str(rule) for rule in A.rules] == ["x1 -> 1*x2", "y1 -> 1*y2", "z*z -> 0"]
    for literal in ("y2,x2~", "x2,y2~"):
        with pytest.raises(StrcatError, match=r"^rule x1 -> 1\*x2 fails on this representation$"):
            strings.check_string_module(A, parse_string_literal(literal, A.quiver))
    assert_rule_check_matches_on_every_short_word(A, 3)


def test_rule_check_on_a_trivial_right_side_matches_the_construction_check():
    # k[x]/(x^2 - 1) keeps the rule x*x -> 1*e0, which fails on every
    # string's module, even on M(e0), where x*x is zero and e0 is not
    A = load_algebra_spec(TRIVIAL_RIGHT_SIDE_SPEC)
    assert [str(rule) for rule in A.rules] == ["x*x -> 1*e0"]
    for w in enumerate_strings(A):
        assert_rule_check_matches_the_construction(A, w)
    with pytest.raises(StrcatError, match="rule x\\*x -> 1\\*e0 fails"):
        strings.check_string_module(A, empty_word(0))


@st.composite
def parallel_binomial_specs(draw):
    """A spec of ``small_specs`` with one more arrow, parallel to one of its
    arrows, and a rule that sets one of the two to a nonzero multiple of
    the other, at a prime of {2, 3, 32003}: M(w) fails that rule at every
    string w that walks the rule's right side."""
    spec = draw(small_specs())
    arrows = spec["arrows"]
    old = draw(st.sampled_from(arrows))
    new = {"name": f"x{len(arrows)}", "from": old["from"], "to": old["to"]}
    lhs, rhs = draw(st.permutations([old["name"], new["name"]]))
    p = draw(st.sampled_from([2, 3, DEFAULT_PRIME]))
    rule = {"lhs": [lhs], "rhs": {"coeff": draw(st.integers(1, p - 1)), "path": [rhs]}}
    return {**spec, "arrows": arrows + [new], "rules": spec["rules"] + [rule], "prime": p}


def strings_or_none(spec):
    """The spec's strings, None when its algebra cannot be built or has
    infinitely many."""
    try:
        return enumerate_strings(load_algebra_spec(spec))
    except (DimensionBoundExceeded, NonTerminating, RepresentationInfinite):
        return None


def refused_strings(spec):
    """The strings of the spec whose modules fail a rule."""
    A = load_algebra_spec(spec)
    return [w for w in enumerate_strings(A)
            if construction_verdict(strings.check_string_module, A, w) is not None]


def test_a_random_binomial_spec_has_a_string_whose_module_fails_a_rule():
    # the strategy reaches the refusal that NON_MODULE_STRING_SPEC pins by hand
    spec = find(parallel_binomial_specs(), lambda spec: bool(strings_or_none(spec))
                and bool(refused_strings(spec)), settings=settings(database=None))
    assert refused_strings(spec)


@settings(max_examples=150, deadline=None)
@given(spec=parallel_binomial_specs())
def test_rule_check_on_words_of_random_binomial_specs_matches_the_construction_check(spec):
    words = strings_or_none(spec)
    assume(words is not None)
    A = load_algebra_spec(spec)
    for w in words:
        for word in (w, w.inverse()):
            assert_rule_check_matches_the_construction(A, word)


# -- letters ------------------------------------------------------------------------


@pytest.mark.parametrize("family,m", [("ae1", 8), ("ae2", 5), ("ae3", 6)])
def test_words_share_one_letter_per_arrow_and_direction(family, m):
    A = build_family(family, m)
    nodes = enumerate_strings(A)
    words = list(nodes) + [w for _, w in family_node_names(family, m, A.quiver)]
    words += [w.inverse() for w in words]
    words += [got for w in nodes if (got := strings.omega_string(A, w)) is not None]
    words += [module_word(string_module(A, w)) for w in nodes]
    words += [parse_string_literal(w.literal(), A.quiver) for w in nodes]
    held = {id(l) for w in words for l in w.letters}
    assert len(held) <= 2 * len(A.quiver.arrows), len(held)


def test_letters_are_plain_immutable_tuples():
    x = Letter("a")
    assert x == ("a", False) and Letter("a", True) == ("a", True) != x
    assert hash(x) == hash(("a", False)) and isinstance(x, tuple)
    with pytest.raises(AttributeError):
        x.inverse = True
    assert x.flipped() == ("a", True) and x.flipped().flipped() == x
    assert (str(x), str(x.flipped())) == ("a", "a~")
    A = ae3(3)
    for w in enumerate_strings(A):
        plain = StringWord(tuple((l.arrow, l.inverse) for l in w.letters), w.vertex)
        rebuilt = StringWord(tuple(Letter(*l) for l in plain.letters), w.vertex)
        assert plain == w == rebuilt and hash(plain) == hash(w) == hash(rebuilt)
        assert parse_string_literal(w.literal(), A.quiver) == w
        assert parse_string_literal(w.inverse().literal(), A.quiver) == w.inverse()


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except StrcatError as error:
        return type(error), str(error)


def assert_spellings_equal_the_letter_oracles(algebra):
    """The enumeration, the hook and cohook moves of every string in both
    orientations, and Omega of every string whose walk is a module, built
    as spellings, equal the same built one Letter at a time on
    ``StringWord``s (``tests.reference``); so does a refusal."""
    want = outcome(letter_strings, algebra)
    assert outcome(enumerate_strings, algebra) == want
    if not all(isinstance(w, StringWord) for w in want):
        return  # infinitely many strings, refused alike
    for w in want:
        for word in {w, w.inverse()}:
            assert outcome(class_moves, algebra, word) == outcome(
                letter_class_moves, algebra, word), word
        if outcome(strings.check_string_module, algebra, w) is None:
            assert strings.omega_string(algebra, w) == letter_omega_string(algebra, w), w


@pytest.mark.parametrize("build", [b for _, b in word_read_algebras()],
                         ids=[name for name, _ in word_read_algebras()])
def test_spelling_routes_equal_the_letter_oracles(build):
    assert_spellings_equal_the_letter_oracles(build())


@given(spec=small_specs(), p=st.sampled_from([2, 3, DEFAULT_PRIME]))
def test_spelling_routes_of_random_specs_equal_the_letter_oracles(spec, p):
    assert_spellings_equal_the_letter_oracles(built_or_skipped({**spec, "prime": p}))


@settings(max_examples=40, deadline=None)
@given(case=brauer_tree_specs())
def test_spelling_routes_on_random_brauer_trees_equal_the_letter_oracles(case):
    assert_spellings_equal_the_letter_oracles(load_algebra_spec(case[0]))


@pytest.mark.parametrize("build", [lambda: ae3(16), lambda: ae2(12), lambda: ae1(24),
                                   lambda: load_algebra_spec(brauer_line_spec(3)),
                                   lambda: load_algebra_spec(brauer_star_spec(3, 2))])
def test_the_run_table_grows_each_junction_letter_once(build, monkeypatch):
    # a hook or cohook run depends on its junction letter alone, so the AR
    # quiver grows at most one run per letter, whatever its node count
    A = build()
    grown = []
    grow = strings._grow_directed
    monkeypatch.setattr(strings, "_grow_directed",
                        lambda text, *args: grown.append(text) or grow(text, *args))
    arquiver.build_ar_quiver(A)
    assert grown and max(Counter(grown).values()) == 1
    assert all(len(text) == 1 for text in grown) and len(grown) <= 2 * len(A.quiver.arrows)


@pytest.mark.parametrize("family,m", [("ae1", 1023), ("ae3", 1019), ("ae2", 255)])
def test_is_string_one_letter_around_the_longest_runs_matches_a_scan(family, m):
    # the socle runs are about m letters long and searched as plain text;
    # around the longest allowed run of each loop and each two-letter
    # cycle, one letter under and one over, in either direction and
    # between any two letters, is_string agrees with a whole-word scan
    A = build_family(family, m)
    letters = all_letters(A)
    cycles = [(x,) for x in letters if A.quiver.letter_ends(x)[0] == A.quiver.letter_ends(x)[1]]
    cycles += [(x, y) for x in letters for y in letters if x.arrow != y.arrow
               and A.quiver.letter_ends(x)[1] == A.quiver.letter_ends(y)[0]
               and A.quiver.letter_ends(y)[1] == A.quiver.letter_ends(x)[0]]
    longest = max(len(rule.arrows) for rule in A.socle_rules)
    for cycle in cycles:
        for k in range(longest - 3, longest + 2):
            run = (cycle * k)[:k]
            for ends in [((), ())] + [((x,), (y,)) for x in letters for y in letters]:
                word = StringWord(ends[0] + run + ends[1])
                assert is_string(word, A) == scanned_is_string(word, A), (str(cycle), k, ends)


def test_an_ambiguous_run_is_refused_as_the_letter_growth_refuses_it():
    # y~ ends at 5, and before it h, then p or q: the run is not unique, so
    # the quiver is not special biserial; the run table keeps no entry for
    # y~, and a second call is refused again
    A = load_algebra_spec({
        "vertices": [0, 1, 2, 3, 4, 5],
        "arrows": [{"name": "p", "from": 0, "to": 2}, {"name": "q", "from": 1, "to": 2},
                   {"name": "h", "from": 2, "to": 3}, {"name": "g", "from": 3, "to": 4},
                   {"name": "y", "from": 5, "to": 3}],
        "rules": [], "dim_bound": 40})
    refusal = (StrcatError, "ambiguous directed extension; the quiver is not special biserial")
    for _ in range(2):
        assert outcome(class_moves, A, empty_word(5)) == refusal
    assert outcome(letter_class_moves, A, empty_word(5)) == refusal
