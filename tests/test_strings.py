from collections import Counter

import pytest

from strcat import (
    CapTooSmall,
    IndexOutOfRange,
    NotAString,
    StrcatError,
    UnknownArrow,
    ae1,
    ae2,
    ae3,
    build_family,
    canonical,
    empty_word,
    enumerate_strings,
    is_isomorphic,
    is_string,
    named_string,
    parse_string_literal,
    string_module,
    word_vertices,
)
from strcat.strings import (
    Letter,
    StringWord,
    cohook_extensions_at_start,
    family_node_names,
    hook_extensions_at_start,
    word_key,
)

from .reference import socle_dims, top_dims


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
    return sorted(set(out), key=lambda w: word_key(quiver, w))


def _one_sided(word, algebra, side, mover):
    if side not in ("left", "right"):
        raise StrcatError("side must be 'left' or 'right'")
    attempts = [word, word.inverse()] if side == "left" else \
        [word.inverse(), word]
    for w in attempts:
        got = mover(w, algebra)
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
    got = _one_sided(word, algebra, side, hook_extensions_at_start)
    if got is None:
        raise OnPeak(f"{word} admits no hook on the {side} side")
    return got


def add_cohook(algebra, word, side):
    """One-step cohook extension; the extension projects onto the input."""
    if not is_string(word, algebra):
        raise NotAString(f"{word} is not a string over this algebra")
    got = _one_sided(word, algebra, side, cohook_extensions_at_start)
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


def test_enumeration_is_sorted_and_deterministic():
    A = ae3(3)
    words = enumerate_strings(A)
    keys = [word_key(A.quiver, w) for w in words]
    assert keys == sorted(keys)
    assert words == enumerate_strings(A)


def test_cap_too_small():
    A = ae2(3)
    with pytest.raises(CapTooSmall):
        enumerate_strings(A, length_cap=2)


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
        assert is_isomorphic(string_module(A, w), string_module(A, w.inverse()),
                             seed=7)


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
    from strcat import build_family
    from strcat.strings import class_moves

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


def test_named_string_words():
    assert named_string("ae2", 2, "M3").literal() == "a,b,a"
    assert named_string("ae3", 3, "U0") == empty_word(1)
    assert named_string("ae1", 3, "V0") == empty_word(0)
    assert named_string("ae3", 3, "X2").literal() == "r~,a"
    with pytest.raises(IndexOutOfRange):
        named_string("ae1", 3, "V3")
    with pytest.raises(IndexOutOfRange):
        named_string("ae2", 2, "X1")


def test_parse_string_literal_forms():
    A = ae3(2)
    assert parse_string_literal("e1", A.quiver) == empty_word(1)
    word = parse_string_literal("b,r~,a", A.quiver)
    assert [str(l) for l in word.letters] == ["b", "r~", "a"]
    # juxtaposition without commas works for single-letter arrow names
    assert parse_string_literal("br~a", A.quiver) == word
    with pytest.raises(UnknownArrow):
        parse_string_literal("q", A.quiver)
