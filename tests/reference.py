"""Module invariants and plain linear-algebra oracles that only the tests
read."""

import itertools

import numpy as np

from strcat import linalg
from strcat.errors import AlgebraMismatch
from strcat.homology import (
    CanonicalHom,
    ModuleMap,
    Representation,
    hom_basis,
    path_action,
    projective_cover,
    radical_rows,
    syzygy,
)
from strcat.quiver_core import (
    DEFAULT_PRIME,
    Algebra,
    Path,
    RewriteRule,
    complete_rewriting,
    make_path,
    make_quiver,
    memoized,
    path_key,
    projective_paths,
)
from strcat.strings import (
    _LETTERS,
    StringWord,
    _keyed_canonical,
    _moves,
    _path_word,
    _prepended,
    canonical,
    check_string_module,
    empty_word,
    word_layout,
    word_peaks,
    word_vertices,
)


def letter_source(quiver, letter):
    """Where a letter starts, read off the declared arrow."""
    a = quiver.arrow(letter.arrow)
    return a.target if letter.inverse else a.source


def letter_target(quiver, letter):
    """Where a letter ends, read off the declared arrow."""
    a = quiver.arrow(letter.arrow)
    return a.source if letter.inverse else a.target


def word_order_key(quiver, word):
    """The word order with no spelling: the length, then each letter as
    (inverse, arrow index), so direct letters come before inverse ones,
    each in declaration order; a trivial word by its vertex."""
    if word.is_trivial:
        return (0, (), word.vertex)
    return (word.length, tuple((l.inverse, quiver.arrow_index(l.arrow))
                               for l in word.letters), -1)


def hand_built(family, m, p=DEFAULT_PRIME):
    """The family's algebra with its quiver and rules written out by hand,
    not read from its spec."""
    if family == "ae1":
        q = make_quiver([0], [("a", 0, 0)])
        rules = [RewriteRule(make_path(q, ["a"] * (m + 1)))]
    elif family == "ae2":
        q = make_quiver([0, 1], [("a", 0, 1), ("b", 1, 0)])
        rules = [RewriteRule(make_path(q, ["a", "b"] * m + ["a"])),
                 RewriteRule(make_path(q, ["b", "a"] * m + ["b"]))]
    else:
        q = make_quiver([0, 1], [("r", 0, 0), ("a", 0, 1), ("b", 1, 0)])
        rules = [RewriteRule(make_path(q, ["r", "a"])), RewriteRule(make_path(q, ["b", "r"])),
                 RewriteRule(make_path(q, ["a", "b"]), 1, make_path(q, ["r"] * m))]
    dim = {"ae1": m + 1, "ae2": 4 * m + 2, "ae3": m + 5}[family]
    return complete_rewriting(q, rules, dim_bound=dim, p=p)


def top_dims(M):
    """Multiplicity of each simple in M / rad M."""
    return {v: M.dims[v] - rows.shape[0] for v, (rows, _) in radical_rows(M).items()}


def socle_dims(M):
    """Per-vertex dimension of the subspace killed by every arrow."""
    alg = M.algebra
    p = alg.p
    out = {}
    for v in alg.quiver.vertices:
        mats = [M.mats[a.name] for a in alg.quiver.arrows if a.source == v]
        if not mats or M.dims[v] == 0:
            out[v] = M.dims[v]
            continue
        stacked = np.hstack(mats)
        out[v] = left_nullspace(stacked, p).shape[0]
    return out


def left_nullspace(mat, p):
    """Rows x with x @ mat == 0."""
    return linalg.nullspace(np.asarray(mat).T, p)


def solve_right(a, b, p):
    """X with a @ X == b, or None when the system is inconsistent: one
    elimination of [a | b], read at its pivots."""
    a = linalg.as_field(a, p)
    b = linalg.as_field(b, p)
    cols = a.shape[1]
    r, pivots = linalg.rref(np.hstack([a, b]), p)
    if any(c >= cols for c in pivots):
        return None
    x = np.zeros((cols, b.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, cols:]
    return x


def solve_in_rowspace(basis_rows, targets, p):
    """X with X @ basis_rows == targets, or None if some target escapes."""
    y = solve_right(np.asarray(basis_rows).T, np.asarray(targets).T, p)
    return None if y is None else y.T


def eliminated_radical_rows(M):
    """``radical_rows(M)`` by elimination alone: per vertex, the RREF rows
    and pivots of the stacked matrices of the arrows into it."""
    alg = M.algebra
    out = {}
    for v in alg.quiver.vertices:
        stacked = np.vstack([M.mats[a.name] for a in alg.quiver.arrows_into(v)]
                            or [np.zeros((0, M.dims[v]), dtype=np.int64)])
        reduced, pivots = linalg.rref(stacked, alg.p)
        out[v] = reduced[: len(pivots)], pivots
    return out


def eliminated_presentation(M):
    """``presentation(M)`` by the elimination route: the generators off
    ``eliminated_radical_rows``, and per vertex w the cover map stacked
    from M's dense path actions, then the kernel rows, free columns and
    section from one reduction of [epi_w^T | I], as
    ``(generators, {w: (epi, kernel, free, section)})``."""
    alg = M.algebra
    p = alg.p
    rad = eliminated_radical_rows(M)
    generators = tuple((v, c) for v in alg.quiver.vertices
                       for c in range(M.dims[v]) if c not in rad[v][1])
    acts = {v: path_action(M, v) for v, _ in generators}
    out = {}
    for w in alg.quiver.vertices:
        epi = np.concatenate([acts[v][w][:, c] for v, c in generators])
        n, m = epi.shape
        reduced, pivots = linalg.rref(np.hstack([epi.T, np.eye(m, dtype=np.int64)]), p)
        assert not pivots or pivots[-1] < n, "the cover map is not onto"
        kernel, free = linalg.kernel_rows(reduced[:, :n], pivots, p)
        right_inverse = np.zeros((n, m), dtype=np.int64)
        right_inverse[pivots] = reduced[:, n:]
        out[w] = epi, kernel, free, right_inverse.T
    return generators, out


def eliminated_radical_series(M):
    """``radical_series(M)`` by elimination alone: rad^(i+1) M is the row
    space of the images of rad^i M under the arrows into each vertex,
    brought to reduced row echelon form by ``gauss_rref``; each layer
    counts the rows lost."""
    alg = M.algebra
    rows = {v: np.eye(M.dims[v], dtype=np.int64) for v in alg.quiver.vertices}
    layers = []
    while any(len(r) for r in rows.values()):
        rad = {}
        for v in alg.quiver.vertices:
            moved = [row for a in alg.quiver.arrows_into(v)
                     for row in (rows[a.source] @ M.mats[a.name] % alg.p).tolist()]
            reduced, pivots = gauss_rref(moved, alg.p)
            rad[v] = np.array(reduced[:len(pivots)], dtype=np.int64).reshape(len(pivots), M.dims[v])
        layers.append({v: len(rows[v]) - len(rad[v]) for v in alg.quiver.vertices})
        rows = rad
    return layers


def scanned_is_string(word, algebra):
    """Whether a word over the quiver's arrows is a string: consecutive
    letters compose and do not cancel, and no maximal run of one direction,
    read along its arrows, contains a socle rule."""
    quiver = algebra.quiver
    if word.is_trivial:
        return word.vertex in quiver.vertices
    for x, y in zip(word.letters, word.letters[1:]):
        if letter_target(quiver, x) != letter_source(quiver, y):
            return False
        if y == x.flipped():
            return False
    forbidden = [r.arrows for r in algebra.socle_rules]

    def run_ok(names):
        for lhs in forbidden:
            k = len(lhs)
            for i in range(len(names) - k + 1):
                if names[i: i + k] == lhs:
                    return False
        return True

    run = []
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


def capped_strings(algebra, cap):
    """Every string class in word order, grown one letter at a time at the
    start up to length ``cap`` - 1; None when strings of length ``cap``
    still appear, since longer ones could then exist.  A finished run is
    exact: a string of length ``cap`` or more would have a factor of length
    ``cap``, itself a string."""
    words = [empty_word(v) for v in algebra.quiver.vertices]
    frontier = list(words)
    length = 0
    while frontier:
        length += 1
        frontier = [got for w in frontier for got in _prepended(w, algebra, (False, True))]
        if frontier and length >= cap:
            return None
        words.extend(frontier)
    classes = dict(_keyed_canonical(w, algebra.quiver) for w in words)
    return tuple(classes[key] for key in sorted(classes))


def default_cap(algebra):
    """The longest basis path plus two, the length the strings were once
    assumed never to reach."""
    return max(q.length for q in algebra.basis) + 2


def rescanned_extension(word, letter, algebra):
    """``letter`` followed by ``word`` when that walk is a string, judged by
    ``scanned_is_string`` on the whole new word; None otherwise."""
    if word.is_trivial and letter_target(algebra.quiver, letter) != word.vertex:
        return None
    new = StringWord((letter,) + word.letters)
    return new if scanned_is_string(new, algebra) else None


def solved_subrep(parent, rows):
    """The representation on the per-vertex row spaces ``rows``, each
    arrow's matrix solved for with ``solve_in_rowspace``."""
    alg = parent.algebra
    mats = {}
    for a in alg.quiver.arrows:
        moved = linalg.mat_mul(rows[a.source], parent.mats[a.name], alg.p)
        mats[a.name] = solve_in_rowspace(rows[a.target], moved, alg.p)
        assert mats[a.name] is not None, a.name
    return Representation(alg, {v: len(r) for v, r in rows.items()}, mats, check=False)


def gauss_rref(rows, p):
    """Reduced row echelon form and pivot columns of a matrix given as a
    list of integer rows, by Gauss-Jordan elimination on Python ints mod p.
    The reduced form is unique, so any correct elimination must agree."""
    m = [[int(x) % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inverse = pow(m[r][c], -1, p)
        m[r] = [x * inverse % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [(x - factor * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def gauss_rank(rows, p):
    return len(gauss_rref(rows, p)[1])


def gauss_nullspace(rows, cols, p):
    """The kernel basis read off ``gauss_rref``: per free column f, in
    increasing order, the vector with 1 at f and minus the reduced form's
    column f at the pivots."""
    reduced, pivots = gauss_rref(rows, p)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [0] * cols
        vec[f] = 1
        for i, c in enumerate(pivots):
            vec[c] = -reduced[i][f] % p
        basis.append(vec)
    return basis


def flat_map(f):
    """The entries of the map ``f``, vertex by vertex and row-major; the
    inverse of ``map_from_flat``."""
    parts = [f.blocks[v].ravel() for v in f.source.algebra.quiver.vertices]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def map_from_flat(M, N, vec):
    """The map M -> N whose blocks, vertex by vertex and row-major, are the
    entries of ``vec``."""
    blocks = {}
    pos = 0
    for v in M.algebra.quiver.vertices:
        size = M.dims[v] * N.dims[v]
        blocks[v] = vec[pos: pos + size].reshape(M.dims[v], N.dims[v])
        pos += size
    return ModuleMap(M, N, blocks, check=False)


def kronecker_hom_basis(M, N):
    """A basis of Hom(M, N) from the intertwining system f_i N_a = M_a f_j
    over every arrow a: i -> j, with the dim M * dim N block entries as
    unknowns.  It shares no step with the presentation in ``hom_basis``."""
    if M.algebra is not N.algebra:
        raise AlgebraMismatch("modules live over different algebras")
    alg = M.algebra
    p = alg.p
    verts = alg.quiver.vertices
    sizes = {v: M.dims[v] * N.dims[v] for v in verts}
    offset = {}
    pos = 0
    for v in verts:
        offset[v] = pos
        pos += sizes[v]
    total = pos
    if total == 0:
        return []
    rows = []
    for a in alg.quiver.arrows:
        i, j = a.source, a.target
        n_eq = M.dims[i] * N.dims[j]
        if n_eq == 0:
            continue
        block = np.zeros((n_eq, total), dtype=np.int64)
        if sizes[i]:
            # vec(f_i @ N_a) with row-major flattening
            block[:, offset[i]: offset[i] + sizes[i]] += np.kron(
                np.eye(M.dims[i], dtype=np.int64), N.mats[a.name].T)
        if sizes[j]:
            block[:, offset[j]: offset[j] + sizes[j]] -= np.kron(
                M.mats[a.name], np.eye(N.dims[j], dtype=np.int64))
        rows.append(block % p)
    if rows:
        system = np.vstack(rows)
        sols = linalg.nullspace(system, p)
    else:
        sols = np.eye(total, dtype=np.int64)
    return [map_from_flat(M, N, sols[k]) for k in range(sols.shape[0])]


def hom_basis_isomorphic(M, N):
    """Whether M and N are isomorphic, from equal dimension vectors and an
    injective map in a basis of Hom(M, N) (``kronecker_hom_basis``); exact
    when N has a local endomorphism ring with End(N)/rad = k.  It reads no
    word."""
    return (M.dim_vector() == N.dim_vector()
            and any(f.is_injective() for f in kronecker_hom_basis(M, N)))


def composed_stable_hom_dim(M, N):
    """dim Hom(M, N) less the rank of the maps M -> P_N -> N, each lifted
    basis map composed with N's projective cover as a module map."""
    basis = hom_basis(M, N)
    if not basis:
        return 0
    _, epi = projective_cover(N)
    composed = [flat_map(g.then(epi)) for g in hom_basis(M, epi.source)]
    return len(basis) - (linalg.rank(np.vstack(composed), M.algebra.p) if composed else 0)


# -- the algebra and its modules, one reduction or product at a time ------------


def normal_form(algebra, path):
    """The normal form of ``path``, one term (path, coeff) or None, by
    ``scanned_reduction`` over the completed rules ``algebra.rules``; it
    shares no step with the act table or the rewriter that built it."""
    return scanned_reduction(algebra.rules, path, algebra.p)


def reduced_concatenation(algebra, p, q):
    """The normal form of the path p then q; None if they do not compose
    or the product is zero."""
    if p.target != q.source:
        return None
    return normal_form(algebra, Path(p.source, q.target, p.arrows + q.arrows))


def arrow_path(a):
    return Path(a.source, a.target, (a.name,))


def reduced_tables(algebra):
    """The products of two basis paths, filled entry by entry as the
    ``(dim+1)×(dim+1)`` arrays (index, coeff) of their normal forms, index
    ``dim`` standing for zero."""
    n = algebra.dim
    index = np.full((n + 1, n + 1), n, dtype=np.int64)
    coeff = np.zeros((n + 1, n + 1), dtype=np.int64)
    for i, p in enumerate(algebra.basis):
        for j, q in enumerate(algebra.basis):
            term = reduced_concatenation(algebra, p, q)
            if term is not None:
                index[i, j], coeff[i, j] = algebra.index[term[0]], term[1]
    return index, coeff


def reduced_act_tables(algebra):
    """``act_index`` and ``act_coeff`` filled entry by entry, each the normal
    form of a basis path times an arrow."""
    n, arrows = algebra.dim, algebra.quiver.arrows
    index = np.full((n + 1, len(arrows)), n, dtype=np.int64)
    coeff = np.zeros((n + 1, len(arrows)), dtype=np.int64)
    for k, p in enumerate(algebra.basis):
        for x, a in enumerate(arrows):
            term = reduced_concatenation(algebra, p, arrow_path(a))
            if term is not None:
                index[k, x], coeff[k, x] = algebra.index[term[0]], term[1]
    return index, coeff


def grown_product_table(algebra):
    """The products of two basis paths grown from the act table, one column
    per basis path: the column of e_v is the identity on the paths ending
    at v, and the column of z'*a is the column of z' acted on by a."""
    n, p = algebra.dim, algebra.p
    index = np.full((n + 1, n + 1), n, dtype=np.int64)
    coeff = np.zeros((n + 1, n + 1), dtype=np.int64)
    for j, q in enumerate(algebra.basis):
        if not q.arrows:
            rows = [i for i, b in enumerate(algebra.basis) if b.target == q.source]
            index[rows, j], coeff[rows, j] = rows, 1
            continue
        x = algebra.quiver.arrow_index(q.arrows[-1])
        a = algebra.quiver.arrows[x]
        prefix = algebra.index[Path(q.source, a.source, q.arrows[:-1])]
        col = index[:, prefix]
        index[:, j] = algebra.act_index[col, x]
        coeff[:, j] = coeff[:, prefix] * algebra.act_coeff[col, x] % p
    return index, coeff


def reduced_socle_rules(algebra):
    """The completed left sides plus every nontrivial basis path that each
    arrow, appended and reduced, sends to zero."""
    quiver = algebra.quiver
    gens = {r.lhs for r in algebra.rules}
    for path in algebra.basis:
        if path.arrows and all(reduced_concatenation(algebra, path, arrow_path(a)) is None
                               for a in quiver.arrows if a.source == path.target):
            gens.add(path)
    return tuple(sorted(gens, key=lambda q: path_key(quiver, q)))


def reduced_projective_mats(algebra, vertex):
    """The arrow matrices of P(vertex), each entry the reduced product of a
    basis path and an arrow."""
    by_vertex = projective_paths(algebra, vertex)
    mats = {}
    for a in algebra.quiver.arrows:
        rows, cols = by_vertex[a.source], by_vertex[a.target]
        mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for i, q in enumerate(rows):
            term = reduced_concatenation(algebra, q, arrow_path(a))
            if term is not None:
                mat[i, cols.index(term[0])] = term[1]
        mats[a.name] = mat
    return mats


def walked_representation(algebra, word):
    """M(word) built from the walk, with ``Representation``'s construction
    check: letter j joins positions j and j + 1, and position j is basis
    vector ``verts[:j].count(verts[j])`` at its vertex."""
    verts = [letter_source(algebra.quiver, word.letters[0])] if word.letters else [word.vertex]
    verts += [letter_target(algebra.quiver, letter) for letter in word.letters]
    local = [verts[:j].count(v) for j, v in enumerate(verts)]
    dims = {v: verts.count(v) for v in algebra.quiver.vertices}
    mats = {a.name: np.zeros((dims[a.source], dims[a.target]), dtype=np.int64)
            for a in algebra.quiver.arrows}
    for j, letter in enumerate(word.letters):
        src, tgt = (j + 1, j) if letter.inverse else (j, j + 1)
        mats[letter.arrow][local[src], local[tgt]] = 1
    return Representation(algebra, dims, mats)


def folded_path_matrix(M, names, source):
    """The matrix of a word on M, multiplied from the left one arrow at a
    time, starting from the identity at ``source``."""
    mat = np.eye(M.dims[source], dtype=np.int64)
    for name in names:
        mat = mat @ M.mats[name] % M.algebra.p
    return mat


def scanned_redex(rules, path, exclude=None, start=0):
    """The leftmost position from ``start`` where a rule other than
    ``exclude`` matches, and the first such rule in list order, by
    comparing every rule at every position."""
    arrows = path.arrows
    for pos in range(start, len(arrows)):
        for rule in rules:
            k = len(rule.lhs.arrows)
            if rule is not exclude and arrows[pos: pos + k] == rule.lhs.arrows:
                return pos, rule
    return None


def scanned_reduction(rules, path, p, step_cap=10_000):
    """Rewrite at the redex ``scanned_redex`` names until none is left: the
    normal form (path, coeff), or None.  The rules must terminate; more
    than ``step_cap`` rewrites fail the calling test."""
    coeff = 1
    for _ in range(step_cap + 1):
        hit = scanned_redex(rules, path)
        if hit is None:
            return path, coeff
        pos, rule = hit
        if rule.rhs is None:
            return None
        arrows = path.arrows
        path = Path(path.source, path.target,
                    arrows[:pos] + rule.rhs.arrows + arrows[pos + len(rule.lhs.arrows):])
        coeff = coeff * rule.coeff % p
    raise AssertionError(f"no normal form within {step_cap} rewrites")


def first_failing_rule(M):
    """The first completed rule, in the algebra's order, that fails on M,
    with both sides multiplied out as dense left-to-right folds; None when
    every rule holds."""
    p = M.algebra.p
    for rule in M.algebra.rules:
        left = folded_path_matrix(M, rule.lhs.arrows, rule.lhs.source)
        if rule.rhs is None:
            right = np.zeros_like(left)
        else:
            right = rule.coeff * folded_path_matrix(M, rule.rhs.arrows, rule.rhs.source) % p
        if not np.array_equal(left, right):
            return rule
    return None


def first_bad_triple(index, coeff, p):
    """The first basis triple (i, j, k), in lexicographic order, at which
    the product table's (i*j)*k and i*(j*k) differ as terms (index, coeff
    mod p); None when there is none.  One triple at a time, on Python
    ints."""
    n = len(index) - 1
    index, coeff = index.tolist(), coeff.tolist()
    for i in range(n):
        for j in range(n):
            ij, c_ij = index[i][j], coeff[i][j]
            for k in range(n):
                jk, c_jk = index[j][k], coeff[j][k]
                left = (index[ij][k], c_ij * coeff[ij][k] % p)
                right = (index[i][jk], c_jk * coeff[i][jk] % p)
                if left != right:
                    return i, j, k
    return None


def omega_power(M, n):
    """Omega^n M, from n syzygies in a row."""
    for _ in range(n):
        M = syzygy(M)
    return M


def four_orientation_canonical_homs(algebra, S, T):
    """Canonical homomorphisms M[S] -> M[T] searched over all four
    orientation pairs (S or its inverse) x (T or its inverse), as records
    (source_flip, target_flip, source_pos, target_pos, length), one per
    distinct matrix, in search order.  Cuts are compared as subwords of
    the flipped words, and a record's matrix is keyed by the entries of
    its 1s in the layouts of S and T."""
    def cuts(word, quotient):
        n = word.length
        return [(pos, length) for pos in range(n + 1)
                if pos == 0 or word.letters[pos - 1].inverse == quotient
                for length in range(n + 1 - pos)
                if pos + length == n or word.letters[pos + length].inverse != quotient]

    (verts_s, local_s) = word_layout(algebra.quiver, S)
    (verts_t, local_t) = word_layout(algebra.quiver, T)
    ns, nt = len(verts_s) - 1, len(verts_t) - 1

    def entries(s_flip, t_flip, spos, tpos, length):
        out = []
        for k in range(length + 1):
            j_s = (ns - (spos + k)) if s_flip else spos + k
            j_t = (nt - (tpos + k)) if t_flip else tpos + k
            assert verts_t[j_t] == verts_s[j_s], "cut does not align vertexwise"
            out.append((verts_s[j_s], local_s[j_s], local_t[j_t]))
        return frozenset(out)

    out, seen = [], set()
    for s_flip, t_flip in itertools.product((False, True), repeat=2):
        ws = S.inverse() if s_flip else S
        wt = T.inverse() if t_flip else T
        vs = verts_s[::-1] if s_flip else verts_s
        vt = verts_t[::-1] if t_flip else verts_t
        by_len = {}
        for cut in cuts(wt, quotient=False):
            by_len.setdefault(cut[1], []).append(cut)
        for spos, length in cuts(ws, quotient=True):
            piece = StringWord(ws.letters[spos: spos + length]) if length else None
            for tpos, _ in by_len.get(length, []):
                if length == 0:
                    if vs[spos] != vt[tpos]:
                        continue
                elif StringWord(wt.letters[tpos: tpos + length]) != piece:
                    continue
                record = (s_flip, t_flip, spos, tpos, length)
                key = entries(*record)
                if key not in seen:
                    seen.add(key)
                    out.append(record)
    return out


def _cuts(letters, quotient: bool) -> list[tuple[int, int]]:
    """Windows (pos, length) of the word with these letters that are a
    quotient of its module (inverse letter before, direct letter after) or,
    with ``quotient`` false, a submodule (direct before, inverse after)."""
    n = len(letters)
    return [(pos, length) for pos in range(n + 1)
            if pos == 0 or letters[pos - 1].inverse == quotient
            for length in range(n + 1 - pos)
            if pos + length == n or letters[pos + length].inverse != quotient]


def windowed_canonical_homs(algebra, S, T) -> list[CanonicalHom]:
    """The canonical homomorphisms M[S] -> M[T] found by listing every
    (pos, length) window of both words and comparing them pairwise, O(n^2)
    windows per word: the records of ``canonical_homs``, in its order.

    Reversing both words reverses a cut and keeps its matrix, so S is read
    as given and T both ways.  Distinct cuts give distinct matrices, except
    that an empty cut is found in both readings, so T read backwards adds
    only cuts of positive length."""
    for w in (S, T):
        check_string_module(algebra, w)
    verts_s, verts_t = word_vertices(algebra.quiver, S), word_vertices(algebra.quiver, T)
    s_cuts = _cuts(S.letters, quotient=True)
    out: list[CanonicalHom] = []
    for t_flip in (False, True):
        lt = T.inverse().letters if t_flip else T.letters
        vt = verts_t[::-1] if t_flip else verts_t
        by_len: dict[int, list[int]] = {}
        for tpos, length in _cuts(lt, quotient=False):
            if length or not t_flip:
                by_len.setdefault(length, []).append(tpos)
        for spos, length in s_cuts:
            piece = S.letters[spos: spos + length]
            for tpos in by_len.get(length, []):
                # an empty cut matches on its vertex alone
                if vt[tpos] != verts_s[spos] or lt[tpos: tpos + length] != piece:
                    continue
                out.append(CanonicalHom(algebra, S, T, t_flip, spos, tpos, length))
    return out


def filtered_full_cuts(algebra, source, target, injective):
    """The canonical homomorphisms M[source] -> M[target] whose cut is as
    long as the source (``injective``) or the target, kept from the whole
    list of ``windowed_canonical_homs``, which shares no code with the
    cut tables that ``homology.full_cut`` reads."""
    full = source.length if injective else target.length
    return [ch for ch in windowed_canonical_homs(algebra, source, target) if ch.length == full]


# Omega of a string by the cover's kernel, walked as a basis graph: the
# oracle of ``strings.omega_string``, with which it shares only ``canonical``


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
            steps[n].append((m, _LETTERS[name, False]))
            steps[m].append((n, _LETTERS[name, True]))
    got = _path_word(algebra, steps, target[next(iter(basis[0]))[1]])
    return None if got is None else canonical(got, quiver)
