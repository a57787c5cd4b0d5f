"""Representations, Hom spaces, covers, syzygies, and stable Hom.

A representation assigns to each vertex a free F_p module of row vectors
and to each arrow ``a: i -> j`` a matrix of shape (dim_i, dim_j) acting
on the right.  Everything is exact; string modules, projectives and
their syzygies have arrow matrices with at most one nonzero entry per
row, read once per module as index maps, and much of what follows reads
those maps instead of eliminating.

Hom comes from projective presentations: ``presentation(M)`` holds M's
projective cover, the rows of the syzygy in the cover's coordinates and a
section of the cover, and the Hom system solves for the images of the
cover's generators (Hom(P_v, N) = N e_v).  The same kernel rows give the
syzygy.  For a module with index maps, the cover map is composed as index
maps and its kernel rows and section are read off its fibres, the arrays
that the RREF of [epi_w^T | I] would give; any other module eliminates
that matrix once per vertex.  Minimality is one product against the RREF
of rad P, the radical of a module with index maps is read off its
columns, and a sub-representation reads its arrow matrices off the unit
columns of its basis.  Such a module's radical series is counted off the
same index maps, one layer of live basis vectors at a time, with no
elimination.  Module maps whose blocks are index maps, as canonical maps
and their composites are, compose, check, rank and give their kernels
and images the same way.  Dimensions come from ranks: ``hom_dim`` is the
system's unknowns less its rank.  Hom(M, -) of 0 -> Omega N -> P_N -> N ->
0 and Hom(-, N) of 0 -> Omega M -> P_M -> M -> 0 make ``stable_hom_dim`` and
``ext1_dim`` alternating sums of such dimensions; they stay linear, the
oracle for the counts that ``strcat.deformation`` takes from canonical
homomorphisms.  Maps are realised as ``ModuleMap``s only on request, by
``hom_basis``.

Canonical homomorphisms between string modules live here as well: they
are the combinatorial oracle for Hom dimensions, counted from substring
cuts and realized as explicit projection-then-inclusion matrices.  A cut
pairs a quotient window of the source word, read as given, with an equal
submodule window of the target word read either way; reversing both
words would only reverse the cut and keep its matrix.  A pair of window
starts carries at most one cut, so the cuts are found one per start pair
(``canonical_homs``).  The inclusions and projections of the deformation
tower are the cuts that are a whole word, looked up in the same per-word
window tables (``full_cut``); no other module reads windows.  A cut's 1s
are placed by ``strings.word_layout``, the numbering ``string_module``
builds on.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import indexmaps, linalg
from .errors import AlgebraMismatch, StrcatError, ZeroModule
from .quiver_core import indecomposable_projective, memoized, projective_paths


def _field_block(mat, shape: tuple[int, int], p: int, what: str, key) -> np.ndarray:
    """``mat`` reduced mod p, zeros when it is None; it must have ``shape``."""
    mat = linalg.as_field(np.zeros(shape, dtype=np.int64) if mat is None else mat, p)
    if mat.shape != shape:
        raise StrcatError(f"{what} {key} has shape {mat.shape}, wanted {shape}")
    return mat


def _matrices_agree(left, right, coeff, p: int) -> bool:
    """left == coeff * right, where a missing right side is zero."""
    if right is None:
        return not left.any()
    return np.array_equal(left, coeff * right % p)


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


def _index_maps(mats: dict) -> dict | None:
    """Each matrix of ``mats`` as an index map ``(cols, vals)`` (see
    ``strcat.indexmaps``), by the same key; None when some matrix has two
    nonzero entries in a row.  The arrays are read-only, because a memo
    hands them to every caller."""
    maps = {}
    for key, mat in mats.items():
        imap = indexmaps.read(mat)
        if imap is None:
            return None
        maps[key] = tuple(map(_read_only, imap))
    return maps


class Representation:
    """A module over a bound quiver algebra, stored vertexwise.

    The dimensions and arrow matrices are fixed at construction; ``memo``
    fills in with the projective cover and syzygy once they are computed.
    """

    def __init__(self, algebra, dims: dict[int, int], mats: dict[str, np.ndarray],
                 check: bool = True):
        self.algebra = algebra
        self.memo: dict = {}
        self.dims = {v: int(dims.get(v, 0)) for v in algebra.quiver.vertices}
        self.mats = {a.name: _field_block(mats.get(a.name),
                                          (self.dims[a.source], self.dims[a.target]),
                                          algebra.p, "matrix for arrow", a.name)
                     for a in algebra.quiver.arrows}
        if check:
            self.check_relations()

    # -- basics ---------------------------------------------------------------

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def dim_vector(self) -> tuple[int, ...]:
        return tuple(self.dims[v] for v in self.algebra.quiver.vertices)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def path_matrix(self, arrows, source: int | None = None) -> np.ndarray:
        """The matrix of a path (a Path or a sequence of arrow names).

        A word is multiplied as (first half) * (second half), and each
        product is kept by its word, so a word of length L built from
        repeated blocks, such as a**L, takes O(log L) products.  The cache
        lives for this call only: kept per module, path matrices would
        outweigh the answers.
        """
        names = tuple(getattr(arrows, "arrows", arrows))
        if not names:
            source = getattr(arrows, "source", source)
            if source is None:
                raise StrcatError("a trivial path needs its base vertex")
            return np.eye(self.dims[source], dtype=np.int64)
        p = self.algebra.p
        return indexmaps.halved(names, self.mats.__getitem__,
                                lambda x, y: linalg.mat_mul(x, y, p), {})

    def check_relations(self):
        """Every completed rule must hold as a matrix identity.

        When every arrow matrix has at most one nonzero entry per row, as
        for string modules and indecomposable projectives, each matrix is
        read as a map (see ``_row_maps``) and the words of the rules are
        composed as maps, in time linear in the dimensions.  Otherwise,
        say after a change of basis, the words are multiplied as dense
        matrices.  Either way a word is formed by halves, and no product
        outlives the call.
        """
        p = self.algebra.p
        maps = self._row_maps()
        if maps is None:
            value, agree = self.path_matrix, _matrices_agree
        else:
            value = functools.partial(self._path_map, maps=maps, products={})
            agree = indexmaps.agree
        for rule in self.algebra.rules:
            right = None if rule.rhs is None else value(rule.rhs)
            if not agree(value(rule.lhs), right, rule.coeff, p):
                raise StrcatError(f"rule {rule} fails on this representation")

    def _path_map(self, path, maps: dict, products: dict):
        """The map of a path, composed by halves from the arrow maps."""
        if not path.arrows:
            return indexmaps.identity(self.dims[path.source])
        p = self.algebra.p
        return indexmaps.halved(path.arrows, maps.__getitem__,
                                lambda f, g: indexmaps.compose(f, g, p), products)

    @memoized
    def _row_maps(self) -> dict | None:
        """Each arrow's matrix as an index map, by arrow name, or None
        (``_index_maps``); read once per module."""
        return _index_maps(self.mats)

    def __repr__(self) -> str:
        return f"Representation(dim_vector={self.dim_vector()})"

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _of_index_maps(cls, algebra, dims: dict[int, int], maps: dict) -> "Representation":
        """The module with these dimensions whose arrow matrices are the
        index maps ``maps``, unchecked; it keeps the maps as its
        ``_row_maps``."""
        rep = cls(algebra, dims, {a.name: indexmaps.dense(maps[a.name], dims[a.target])
                                  for a in algebra.quiver.arrows}, check=False)
        cls._row_maps.seed(rep, maps)
        return rep

    @classmethod
    def zero(cls, algebra) -> "Representation":
        return cls(algebra, {}, {}, check=False)


def direct_sum(reps: list[Representation]) -> Representation:
    """Block sum of the summands, in order."""
    if not reps:
        raise StrcatError("direct_sum needs at least one summand")
    algebra = reps[0].algebra
    if any(rep.algebra is not algebra for rep in reps):
        raise AlgebraMismatch("summands live over different algebras")
    dims = {v: sum(rep.dims[v] for rep in reps) for v in algebra.quiver.vertices}
    mats = {}
    for a in algebra.quiver.arrows:
        mats[a.name] = mat = np.zeros((dims[a.source], dims[a.target]), dtype=np.int64)
        i = j = 0
        for rep in reps:
            rows, cols = rep.mats[a.name].shape
            mat[i: i + rows, j: j + cols] = rep.mats[a.name]
            i, j = i + rows, j + cols
    return Representation(algebra, dims, mats, check=False)


class ModuleMap:
    """An intertwiner between two representations, stored vertexwise.

    When every block has at most one nonzero entry per row, as for
    canonical maps between string modules and their composites, the
    blocks are read once as index maps (``_row_maps``), and composition,
    powers, the intertwining check, rank, kernel and image read those
    maps with no dense product or elimination.  A map with a row of two
    entries, such as a ``hom_basis`` map, takes the dense route.
    """

    def __init__(self, source: Representation, target: Representation,
                 blocks: dict[int, np.ndarray], check: bool = True):
        if source.algebra is not target.algebra:
            raise AlgebraMismatch("source and target live over different algebras")
        self.source = source
        self.target = target
        self.blocks = {v: _field_block(blocks.get(v), (source.dims[v], target.dims[v]),
                                       source.algebra.p, "block at vertex", v)
                       for v in source.algebra.quiver.vertices}
        if check:
            self.check_intertwining()

    @classmethod
    def _of_index_maps(cls, source: Representation, target: Representation,
                       maps: dict) -> "ModuleMap":
        """The map whose block at each vertex v is the index map
        ``maps[v]``, unchecked.  It keeps the maps as its ``_row_maps`` and
        writes its dense blocks only when they are read."""
        f = cls.__new__(cls)
        f.source, f.target, f._maps = source, target, maps
        return f

    @functools.cached_property
    def blocks(self) -> dict[int, np.ndarray]:
        # only a map from ``_of_index_maps`` gets here; __init__ sets blocks
        return {v: indexmaps.dense(imap, self.target.dims[v]) for v, imap in self._maps.items()}

    def _row_maps(self) -> dict | None:
        """Each block as an index map, by vertex, or None
        (``_index_maps``); read once per map, or given by
        ``_of_index_maps``."""
        if "_maps" not in vars(self):
            self._maps = _index_maps(self.blocks)
        return self._maps

    def _index_route(self, *others) -> dict | None:
        """This map's index maps when it and every map or module in
        ``others`` has them, else None."""
        maps = self._row_maps()
        if maps is None or any(x._row_maps() is None for x in others):
            return None
        return maps

    def check_intertwining(self):
        """Each arrow must commute with the map; on index maps, both ways
        round the square are composed as maps."""
        M, N, p = self.source, self.target, self.source.algebra.p
        maps = self._index_route(M, N)
        if maps is not None:
            arrows_m, arrows_n = M._row_maps(), N._row_maps()
        for a in M.algebra.quiver.arrows:
            if maps is None:
                ok = np.array_equal(linalg.mat_mul(self.blocks[a.source], N.mats[a.name], p),
                                    linalg.mat_mul(M.mats[a.name], self.blocks[a.target], p))
            else:
                ok = indexmaps.agree(indexmaps.compose(maps[a.source], arrows_n[a.name], p),
                                     indexmaps.compose(arrows_m[a.name], maps[a.target], p), 1, p)
            if not ok:
                raise StrcatError(f"map is not a module map at arrow {a.name}")

    def then(self, other: "ModuleMap") -> "ModuleMap":
        """Composite: apply self first, then ``other``, which must start at
        this map's target: the same module, or one with equal matrices."""
        mid, tgt = other.source, self.target
        if mid is not tgt and not (
                mid.algebra is tgt.algebra and mid.dims == tgt.dims
                and all(np.array_equal(mid.mats[a], tgt.mats[a]) for a in tgt.mats)):
            raise StrcatError("maps do not compose")
        p = self.source.algebra.p
        maps = self._index_route(other)
        if maps is not None:
            return ModuleMap._of_index_maps(self.source, other.target, {
                v: indexmaps.compose(maps[v], other._row_maps()[v], p) for v in maps})
        blocks = {v: linalg.mat_mul(self.blocks[v], other.blocks[v], p) for v in self.blocks}
        return ModuleMap(self.source, other.target, blocks, check=False)

    def power(self, n: int) -> "ModuleMap":
        """The n-th power of an endomorphism, the identity for n = 0, by
        binary exponentiation: floor(log2 n) squarings and popcount(n) - 1
        products of the squares.  Powers of one map commute, so the order
        of the products does not change the exact result."""
        if self.source.dim_vector() != self.target.dim_vector():
            raise StrcatError("powers need an endomorphism")
        out, square = None, self
        while n:
            if n & 1:
                out = square if out is None else out.then(square)
            n >>= 1
            if n:
                square = square.then(square)
        return identity_map(self.source) if out is None else out

    def rank(self) -> int:
        """The sum of the block ranks; for index maps, the number of
        distinct columns that rows hit with a nonzero value."""
        maps = self._row_maps()
        if maps is not None:
            return sum(len(indexmaps.hit(imap)) for imap in maps.values())
        p = self.source.algebra.p
        return sum(linalg.rank(blk, p) for blk in self.blocks.values())

    def is_injective(self) -> bool:
        return self.rank() == self.source.total_dim

    def is_surjective(self) -> bool:
        return self.rank() == self.target.total_dim

    def __repr__(self) -> str:
        return (f"ModuleMap({self.source.dim_vector()} -> "
                f"{self.target.dim_vector()}, rank={self.rank()})")


def identity_map(rep: Representation) -> ModuleMap:
    return ModuleMap._of_index_maps(rep, rep, {v: indexmaps.identity(n)
                                               for v, n in rep.dims.items()})


# -- Hom spaces ----------------------------------------------------------------


def path_action(N: Representation, v: int) -> dict[int, np.ndarray]:
    """N(q) for every basis path q out of v, stacked per end vertex w in the
    order of ``projective_paths(algebra, v)[w]``: an array of shape
    (paths, dims[v], dims[w]).

    The basis lists every prefix of a path before the path, so each path
    costs one product past its prefix.  Nothing here is memoized: kept per
    module, these matrices would outweigh every answer read from them.
    """
    alg = N.algebra
    acts = {}
    for q in alg.basis_paths_from(v):
        if q.arrows:
            acts[q.arrows] = linalg.mat_mul(acts[q.arrows[:-1]], N.mats[q.arrows[-1]], alg.p)
        else:
            acts[()] = np.eye(N.dims[v], dtype=np.int64)
    return {w: np.array([acts[q.arrows] for q in paths], dtype=np.int64
                        ).reshape(len(paths), N.dims[v], N.dims[w])
            for w, paths in projective_paths(alg, v).items()}


def _through_generators(rows: np.ndarray, gens, w: int, p: int) -> np.ndarray:
    """``rows @ F_w`` as a linear function of the generator images.

    F_w is the matrix at w of the map P0 -> N that sends each cover
    generator g to its image n_g, so row (g, q) of F_w is n_g N(q).
    ``gens`` holds (count, path action of N) per generator vertex, in the
    cover's order; the result has shape (len(rows), dim N_w, unknowns).
    """
    parts, start = [], 0
    for count, act in gens:
        A = act[w]
        block = rows[:, start: start + count * len(A)].reshape(len(rows), count, len(A))
        start += count * len(A)
        parts.append(np.einsum("igq,qlj->ijgl", block, A).reshape(
            len(rows), A.shape[2], count * A.shape[1]))
    return np.concatenate(parts, axis=2) % p


def _hom_system(M: Representation, N: Representation):
    """The linear system of Hom(M, N) and its read-back, or None when it
    has no unknowns.

    A map M -> N is a map from M's projective cover P0 that vanishes on
    the kernel Omega(M).  Since Hom(P_v, N) = N e_v, a map P0 -> N is the
    image in N of each cover generator: those are the unknowns.  The
    equations are K_w F_w = 0 at each vertex w, with K_w the rows of
    Omega(M).  ``read(sols, w)`` turns solutions, one per row, into their
    blocks at w through the cover's section: shape (len(sols), dim M_w,
    dim N_w).
    """
    if M.algebra is not N.algebra:
        raise AlgebraMismatch("modules live over different algebras")
    if M.is_zero() or N.is_zero():
        return None
    p = M.algebra.p
    pres = presentation(M)
    counts = Counter(v for v, _ in pres.generators)
    gens = [(count, path_action(N, v)) for v, count in counts.items()]
    unknowns = sum(count * N.dims[v] for v, count in counts.items())
    if unknowns == 0:
        return None
    system = np.vstack([_through_generators(pres.kernel[w], gens, w, p).reshape(-1, unknowns)
                        for w in M.algebra.quiver.vertices])

    def read(sols: np.ndarray, w: int) -> np.ndarray:
        back = _through_generators(pres.section[w], gens, w, p).reshape(-1, unknowns)
        return linalg.mat_mul(sols, back.T, p).reshape(len(sols), M.dims[w], N.dims[w])

    return system, read


def hom_basis(M: Representation, N: Representation) -> list[ModuleMap]:
    """A basis of Hom(M, N): the null space of ``_hom_system``, read back
    as module maps."""
    hom = _hom_system(M, N)
    if hom is None:
        return []
    system, read = hom
    sols = linalg.nullspace(system, M.algebra.p)
    blocks = {w: read(sols, w) for w in M.algebra.quiver.vertices}
    return [ModuleMap(M, N, {w: b[k] for w, b in blocks.items()}, check=False)
            for k in range(len(sols))]


def hom_dim(M: Representation, N: Representation) -> int:
    """dim Hom(M, N): the unknowns of ``_hom_system`` less its rank."""
    hom = _hom_system(M, N)
    if hom is None:
        return 0
    system, _ = hom
    return system.shape[1] - linalg.rank(system, M.algebra.p)


# -- substructures --------------------------------------------------------------


def _induced_subrep(parent: Representation, rows: dict[int, np.ndarray],
                    units: dict[int, np.ndarray]) -> Representation:
    """Representation on a per-vertex row subspace closed under the arrows.

    ``rows[v]`` is a basis that is the identity on the columns
    ``units[v]``, as a null-space basis is on its free columns and an RREF
    on its pivots.  A vector x of the span is then ``x[:, units[v]] @
    rows[v]``, so each arrow's coefficients are read off its moved rows
    and closure is one product.
    """
    alg = parent.algebra
    p = alg.p
    dims = {v: rows[v].shape[0] for v in rows}
    mats = {}
    for a in alg.quiver.arrows:
        moved = linalg.mat_mul(rows[a.source], parent.mats[a.name], p)
        coeffs = moved[:, units[a.target]]
        if not np.array_equal(linalg.mat_mul(coeffs, rows[a.target], p), moved):
            raise StrcatError("subspace is not closed under the arrow action")
        mats[a.name] = coeffs
    return Representation(alg, dims, mats, check=False)


def _spanned(parent: Representation, units: dict[int, np.ndarray]) -> Representation:
    """The sub-representation spanned by the basis vectors ``units[v]``
    (in increasing order) at each vertex v.

    With index maps for the parent's arrows, each arrow's matrix is the
    parent's map on those vectors, its columns renumbered among them, and
    the span is closed exactly when no live row leaves them: no product
    is formed.  Any other parent goes through ``_induced_subrep``."""
    maps = parent._row_maps()
    if maps is None:
        return _induced_subrep(parent, {v: np.eye(parent.dims[v], dtype=np.int64)[units[v]]
                                        for v in units}, units)
    # the parent's rows at the unit vectors and its sentinel row, and the
    # position of each parent column among the unit vectors
    picked, position = {}, {}
    for v, n in parent.dims.items():
        picked[v] = np.append(units[v], n).astype(np.int64)
        position[v] = np.full(n + 1, -1, dtype=np.int64)
        position[v][picked[v]] = np.arange(len(picked[v]))
    sub = {}
    for a in parent.algebra.quiver.arrows:
        cols, vals = maps[a.name]
        sub[a.name] = position[a.target][cols[picked[a.source]]], vals[picked[a.source]]
        if (sub[a.name][0] < 0).any():
            raise StrcatError("subspace is not closed under the arrow action")
    return Representation._of_index_maps(parent.algebra, {v: len(u) for v, u in units.items()},
                                         sub)


def kernel_of(f: ModuleMap) -> Representation:
    """The kernel sub-representation of a module map.  An index-map
    block's kernel is read off its fibres (``_fibres``), and is spanned by
    the rows the map kills unless two live rows share a column; any other
    block is eliminated."""
    p = f.source.algebra.p
    maps = f._row_maps()
    rows, units = {}, {}
    for v, dim in f.target.dims.items():
        if maps is None:
            rows[v], units[v] = linalg.kernel_rows(*linalg.rref(f.blocks[v].T, p), p)
        else:
            cols, vals = maps[v]
            rows[v], units[v], _ = _fibres(cols[:-1], vals[:-1], dim, p)
    if maps is not None and all(np.count_nonzero(r) == len(r) for r in rows.values()):
        return _spanned(f.source, units)
    return _induced_subrep(f.source, rows, units)


def image_of(f: ModuleMap) -> Representation:
    """The image sub-representation inside the target.  An index-map
    block's image is spanned by the basis vectors it hits, the unit rows
    of its RREF; any other block is eliminated."""
    maps = f._row_maps()
    if maps is not None:
        return _spanned(f.target, {v: indexmaps.hit(imap) for v, imap in maps.items()})
    p = f.source.algebra.p
    rows, units = {}, {}
    for v, block in f.blocks.items():
        reduced, units[v] = linalg.rref(block, p)
        rows[v] = reduced[: len(units[v])]
    return _induced_subrep(f.target, rows, units)


# -- covers and syzygies ---------------------------------------------------------


def radical_rows(M: Representation) -> dict[int, tuple[np.ndarray, list[int]]]:
    """The radical of M, vertex by vertex.

    The radical at v is spanned by the images of M under the arrows into v.
    Each vertex gets a basis of that span in reduced row echelon form
    together with its pivot columns.

    When every arrow matrix of M has at most one nonzero entry per row (see
    ``Representation._row_maps``), as for string modules, projectives and
    the covers built from them, each image row is a multiple of a unit
    vector.  The radical of M at v is then the span of the unit vectors on
    the columns those rows hit, and its RREF is those unit rows in column
    order, with no elimination.  Any other module is reduced by ``rref``.
    """
    alg = M.algebra
    p = alg.p
    maps = M._row_maps()
    out = {}
    for v in alg.quiver.vertices:
        into = alg.quiver.arrows_into(v)
        if maps is not None:
            hit = np.zeros(M.dims[v], dtype=bool)
            for a in into:
                cols, vals = maps[a.name]
                hit[cols[vals != 0]] = True
            pivots = hit.nonzero()[0]
            out[v] = (np.eye(M.dims[v], dtype=np.int64)[pivots], pivots.tolist())
            continue
        moved = [M.mats[a.name] for a in into]
        stacked = np.vstack(moved) if moved else np.zeros((0, M.dims[v]), dtype=np.int64)
        if stacked.size:
            reduced, pivots = linalg.rref(stacked, p)
            out[v] = (reduced[: len(pivots)], pivots)
        else:
            out[v] = (np.zeros((0, M.dims[v]), dtype=np.int64), [])
    return out


def radical_series(M: Representation) -> list[dict[int, int]]:
    """The multiplicity of each simple in each radical layer of M, top
    first, for a module whose arrow matrices have at most one nonzero entry
    per row (see ``Representation._row_maps``).

    Each radical power rad^i M is then spanned by basis vectors: rad^0 M by
    all of them, and rad^(i+1) M by those that the arrow maps send the
    vectors of rad^i M to with a nonzero value, since the images of a
    submodule under the arrows span its radical.  So every layer is a
    count of live basis vectors, with no elimination.
    """
    maps = M._row_maps()
    if maps is None:
        raise StrcatError("the radical series needs arrow matrices with at most "
                          "one nonzero entry per row")
    quiver = M.algebra.quiver
    live = {v: np.ones(M.dims[v], dtype=bool) for v in quiver.vertices}
    layers = []
    while any(mask.any() for mask in live.values()):
        rad = {v: np.zeros(M.dims[v], dtype=bool) for v in quiver.vertices}
        for a in quiver.arrows:
            cols, vals = maps[a.name]
            rad[a.target][cols[:-1][live[a.source] & (vals[:-1] != 0)]] = True
        layers.append({v: int(live[v].sum() - rad[v].sum()) for v in quiver.vertices})
        if not any(layers[-1].values()):
            raise StrcatError("the arrows do not act nilpotently on this module")
        live = rad
    return layers


@dataclass(frozen=True)
class Presentation:
    """The projective cover ``epi: cover -> M`` and what Hom reads off it.

    ``generators`` lists the (vertex v, basis index c) of M that the cover's
    summands P(v) map onto, in vertex order.  At each vertex w,
    ``kernel[w]`` holds the rows of Omega(M) = ker epi in the cover's
    coordinates, which are the identity on the columns ``free[w]``, and
    ``section[w]`` is a matrix S with S @ epi_w = I: the arrays that the
    RREF of [epi_w^T | I] gives; see ``presentation``.  The arrays are
    read-only, because the memo hands them to every caller.
    """

    cover: Representation
    epi: ModuleMap
    generators: tuple[tuple[int, int], ...]
    kernel: dict[int, np.ndarray]
    free: dict[int, np.ndarray]
    section: dict[int, np.ndarray]


def _cover_rows(M: Representation, maps: dict, generators) -> dict:
    """Each row (g, q) of the cover at each vertex w, in the cover's order,
    as an index map onto M_w: the column that path q sends generator g to,
    and the value there.

    The basis lists every prefix of a path before the path, so the map of
    each basis path q out of v, on all of M_v at once, is the map of its
    prefix composed with its last arrow's: no dense product."""
    alg = M.algebra
    cs: dict[int, list[int]] = {}
    for v, c in generators:  # generators are in vertex order
        cs.setdefault(v, []).append(c)
    parts: dict[int, list] = {w: [] for w in alg.quiver.vertices}
    for v, gens in cs.items():
        acts = {}
        for q in alg.basis_paths_from(v):
            acts[q.arrows] = (indexmaps.compose(acts[q.arrows[:-1]], maps[q.arrows[-1]], alg.p)
                              if q.arrows else indexmaps.identity(M.dims[v]))
        for w, paths in projective_paths(alg, v).items():
            if paths:
                stacked = np.array([acts[q.arrows] for q in paths])  # (paths, 2, dim M_v + 1)
                parts[w].append(stacked[:, :, gens].transpose(1, 2, 0).reshape(2, -1))
    return {w: tuple(np.concatenate(rows, axis=1)) if rows else
            (np.zeros(0, dtype=np.int64),) * 2 for w, rows in parts.items()}


def _fibres(cols: np.ndarray, vals: np.ndarray, m: int, p: int):
    """Kernel rows, free columns and section of a block whose row r is
    ``vals[r]`` times unit vector ``cols[r]`` of a space of dimension m,
    such as a cover block onto M_w or an index-map block of a module map.

    The rows sent to column j with a nonzero value form its fibre, whose
    first row r0 is a pivot of the RREF of [block^T | I]: that row of the
    RREF is the fibre's values over val_r0, beside e_j / val_r0.  So every
    other row f of the fibre is free with kernel row e_f - (val_f /
    val_r0) e_r0, a killed row is free with a unit kernel row, and the
    section holds 1 / val_r0 at (j, r0): the arrays that elimination gives,
    since an RREF is unique.  A column with an empty fibre, which no row
    hits, has a zero row in the section."""
    n = len(cols)
    live = vals != 0
    first = np.full(m, n)
    np.minimum.at(first, cols[live], np.arange(n)[live])
    hit = first < n
    pivots = first[hit]
    inverse = np.zeros(m, dtype=np.int64)
    inverse[hit] = [pow(int(x), -1, p) for x in vals[pivots]]
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    kernel = np.zeros((len(free), n), dtype=np.int64)
    kernel[np.arange(len(free)), free] = 1
    dup = live[free].nonzero()[0]
    j = cols[free[dup]]
    kernel[dup, first[j]] = -vals[free[dup]] * inverse[j] % p
    section = np.zeros((m, n), dtype=np.int64)
    section[hit, pivots] = inverse[hit]
    return kernel, free, section


def _eliminated(epi_block: np.ndarray, p: int):
    """Kernel rows, free columns and section of any cover block, from one
    elimination of [epi_w^T | I].  The identity block makes every row a
    pivot row, and epi_w is onto exactly when every pivot lies in the left
    block, which is then rref(epi_w^T): the kernel rows are read off it,
    and the right block holds the section."""
    n, m = epi_block.shape
    reduced, pivots = linalg.rref(np.hstack([epi_block.T, np.eye(m, dtype=np.int64)]), p)
    if pivots and pivots[-1] >= n:
        raise StrcatError("projective cover map failed to be surjective")
    kernel, free = linalg.kernel_rows(reduced[:, :n], pivots, p)
    right_inverse = np.zeros((n, m), dtype=np.int64)
    right_inverse[pivots] = reduced[:, n:]
    return kernel, free, right_inverse.T


@memoized
def presentation(M: Representation) -> Presentation:
    """M's projective cover, its kernel rows and a section (all verified).

    When M's arrow matrices are index maps (see ``Representation._row_maps``),
    as for string modules, projectives and their syzygies, the cover map is
    composed as index maps along the basis paths and its kernel rows and
    section are read off its fibres (``_fibres``), with no elimination.
    Any other module stacks its path actions into the cover map and
    eliminates once per vertex (``_eliminated``).  The cover is minimal
    when the kernel lies in rad P, whose RREF R with pivots piv (from
    ``radical_rows``) contains a row set K exactly when K == K[:, piv] @
    R: one product.
    """
    if M.is_zero():
        raise ZeroModule("the zero module has no projective cover")
    alg = M.algebra
    p = alg.p
    # the basis vectors of M off the radical's pivots span a complement of
    # rad M, so they are a minimal generating set
    rad = radical_rows(M)
    generators = tuple((v, c) for v in alg.quiver.vertices
                       for c in range(M.dims[v]) if c not in rad[v][1])
    P = direct_sum([indecomposable_projective(alg, v) for v, _ in generators])
    maps = M._row_maps()
    if maps is None:
        acts = {v: path_action(M, v) for v in {v for v, _ in generators}}
        # row (g, q) of the cover goes to M(q) applied to generator g
        blocks = {w: np.concatenate([acts[v][w][:, c] for v, c in generators])
                  for w in alg.quiver.vertices}
        parts = {w: _eliminated(blocks[w], p) for w in alg.quiver.vertices}
        epi = ModuleMap(P, M, blocks)
    else:
        epi_maps, parts = {}, {}
        for w, (cols, vals) in _cover_rows(M, maps, generators).items():
            parts[w] = _fibres(cols, vals, M.dims[w], p)
            if np.count_nonzero(parts[w][2]) < M.dims[w]:  # a column no cover row hits
                raise StrcatError("projective cover map failed to be surjective")
            epi_maps[w] = np.append(cols, M.dims[w]), np.append(vals, 0)  # the sentinel row
        epi = ModuleMap._of_index_maps(P, M, epi_maps)
        epi.check_intertwining()
    rad_P = radical_rows(P)
    kernel, free, section = {}, {}, {}
    for w, (ker_rows, ker_free, sec) in parts.items():
        rad_rows, rad_pivots = rad_P[w]
        if not np.array_equal(linalg.mat_mul(ker_rows[:, rad_pivots], rad_rows, p), ker_rows):
            raise StrcatError("cover kernel escapes the radical")
        kernel[w], free[w], section[w] = map(_read_only, (ker_rows, ker_free, sec))
    return Presentation(P, epi, generators, kernel, free, section)


def projective_cover(M: Representation) -> tuple[Representation, ModuleMap]:
    """The projective cover P -> M, with kernel inside rad P (verified)."""
    pres = presentation(M)
    return pres.cover, pres.epi


@memoized
def syzygy(M: Representation) -> Representation:
    """Kernel of the projective cover; zero for projective (or zero) input."""
    if M.is_zero():
        return Representation.zero(M.algebra)
    pres = presentation(M)
    return _induced_subrep(pres.cover, pres.kernel, pres.free)


# -- stable Hom and Ext ------------------------------------------------------------


def stable_hom_dim(M: Representation, N: Representation) -> int:
    """dim Hom(M, N) minus the maps factoring through a projective.

    A map through any projective lifts through the projective cover P_N,
    so the factoring maps are the image of Hom(M, P_N), whose kernel is
    Hom(M, Omega N) by the exact sequence 0 -> Hom(M, Omega N) ->
    Hom(M, P_N) -> Hom(M, N).  Three Hom ranks give the answer.
    """
    dim = hom_dim(M, N)
    if not dim:
        return 0
    P, _ = projective_cover(N)
    return dim - hom_dim(M, P) + hom_dim(M, syzygy(N))


def ext1_dim(M: Representation, N: Representation) -> int:
    """dim Ext^1(M, N) over any algebra, from the exact sequence 0 ->
    Hom(M, N) -> Hom(P_M, N) -> Hom(Omega M, N) -> Ext^1(M, N) -> 0 (as
    Ext^1(P_M, N) = 0), with Hom(P(v), N) = N e_v for each summand of P_M.
    """
    dim = hom_dim(M, N)
    if M.is_zero():
        return 0
    covered = sum(N.dims[v] for v, _ in presentation(M).generators)
    return hom_dim(syzygy(M), N) - covered + dim


# -- isomorphism testing -------------------------------------------------------------


def is_isomorphic(M: Representation, N: Representation) -> bool:
    """Whether M and N are isomorphic; exact at every prime.

    When the basis graphs of both spell strings C and D
    (``strings.module_word``), M and N are the string modules M(C) and
    M(D).  By Butler and Ringel (Comm. Algebra 15, 1987) M(C) is
    isomorphic to M(D) exactly when D is C or its inverse, that is when
    the two words have one canonical form; no Hom is solved.

    Otherwise a basis of Hom(M, N) decides, and ``N`` must have a local
    endomorphism ring with End(N)/rad = k, as every string module and
    indecomposable projective has.  Then the maps M -> N that are not
    isomorphisms form a hyperplane of Hom(M, N) when M is isomorphic to
    N, a basis cannot lie inside it, and so M is isomorphic to N exactly
    when the dimension vectors agree and some basis map is injective.
    """
    from .strings import canonical, module_word

    if M.algebra is not N.algebra:
        raise AlgebraMismatch("modules live over different algebras")
    if M.dim_vector() != N.dim_vector():
        return False
    v, w = module_word(M), module_word(N)
    if v is not None and w is not None:
        quiver = M.algebra.quiver
        return canonical(v, quiver) == canonical(w, quiver)
    return any(f.is_injective() for f in hom_basis(M, N))


# -- canonical homomorphisms between string modules -----------------------------------


class CanonicalHom(NamedTuple):
    """A substring cut realizing a projection-then-inclusion map.

    The common substring sits at ``source_pos`` in the source word and at
    ``target_pos`` in the target word, read backwards when ``target_flip``.
    A cut of length L sends L + 1 basis vectors to distinct basis vectors,
    so its map has rank L + 1.  A plain tuple, since most are only counted.
    """

    algebra: object
    source: object
    target: object
    target_flip: bool
    source_pos: int
    target_pos: int
    length: int


class _WordCuts(NamedTuple):
    """What ``canonical_homs`` reads of one word (``_word_cuts``): its
    quotient windows as given, and its submodule windows as given and
    read backwards.  A quotient window starts at 0 or after an inverse
    letter and ends at the end or before a direct one; a submodule window
    starts at 0 or after a direct letter and ends at the end or before an
    inverse one.  Each reading is ``_windows``' tuple."""

    quotient: tuple
    submodule: tuple[tuple, tuple]


def _windows(letters: str, verts: list[int], opens: list[bool], closes: list[bool]) -> tuple:
    """The windows that start at 0 or after a letter with ``opens`` and end
    at the end or before a letter with ``closes``, as ``(letters, starts,
    empty, ends)``: the letters, one character each; the starts of
    nonempty windows by first letter; the empty windows by vertex; and,
    per position, whether a window may end there."""
    n = len(letters)
    ends = closes + [True]
    starts: dict[str, list[int]] = {}
    empty: dict[int, list[int]] = {}
    for t in range(n + 1):
        if t == 0 or opens[t - 1]:
            if t < n:
                starts.setdefault(letters[t], []).append(t)
            if ends[t]:
                empty.setdefault(verts[t], []).append(t)
    return letters, starts, empty, ends


@memoized
def _word_cuts(algebra, word) -> _WordCuts:
    """The cut table of a word, built once per algebra after the word is
    checked to be a string whose module satisfies the rules
    (``strings.check_string_module``).  A letter's character is
    ``chr(2 * arrow index + inverse)``."""
    from .strings import check_string_module, word_vertices

    check_string_module(algebra, word)
    quiver = algebra.quiver
    verts = word_vertices(quiver, word)
    code = {l: chr(2 * quiver.arrow_index(l.arrow) + l.inverse) for l in set(word.letters)}
    text = "".join([code[l] for l in word.letters])
    # the inverse word reverses the letters and flips each one's last bit
    back = text[::-1].translate({k: k ^ 1 for k in range(2 * len(quiver.arrows))})
    inverse = [l.inverse for l in word.letters]
    direct = [not i for i in inverse]
    return _WordCuts(_windows(text, verts, inverse, direct),
                     (_windows(text, verts, direct, inverse),
                      _windows(back, verts[::-1], inverse[::-1], direct[::-1])))


def _common_extension(a: str, i: int, b: str, j: int) -> int:
    """The length of the longest common prefix of a[i:] and b[j:]: one
    whole-slice comparison, then a binary search on slices."""
    n = min(len(a) - i, len(b) - j)
    if b.startswith(a[i: i + n], j):
        return n
    lo, hi = 0, n - 1  # a[i: i + lo] matches; a[i: i + hi + 1] is the most that may
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if b.startswith(a[i: i + mid], j):
            lo = mid
        else:
            hi = mid - 1
    return lo


def canonical_homs(algebra, S, T) -> list[CanonicalHom]:
    """All canonical homomorphisms M[S] -> M[T], one per distinct map.

    Reversing both words reverses a cut and keeps its matrix, so S is read
    as given and T both ways.  Distinct cuts give distinct matrices, except
    that an empty cut is found in both readings, so T read backwards adds
    only cuts of positive length.  The count equals dim Hom(M[S], M[T]).

    A cut is a quotient window of S equal to a submodule window of T.  A
    quotient start s of S and a submodule start t of T carry at most one
    cut, of length L, the longest common extension of S[s:] and T[t:]:
    for a shorter L the next letter S[s+L] = T[t+L] would have to be
    direct, to end the quotient window, and inverse, to end the submodule
    window.  So the cuts are the start pairs whose common extension ends
    validly in both words, plus the empty cuts at one vertex, and each
    pair of starts with equal first letters costs one extension.  Each
    word is first checked to be a string whose module satisfies the rules,
    with no module built, and read into its cut table (``_word_cuts``),
    once per algebra.  The records come in order of target_flip,
    source_pos, length and target_pos.
    """
    a, q_starts, q_empty, q_ends = _word_cuts(algebra, S).quotient
    out: list[CanonicalHom] = []
    for t_flip, (b, t_starts, t_empty, t_ends) in zip((False, True),
                                                     _word_cuts(algebra, T).submodule):
        # an empty cut matches on its vertex alone
        found = [] if t_flip else [(spos, 0, tpos) for v, at in q_empty.items()
                                   for spos in at for tpos in t_empty.get(v, ())]
        for letter, at in q_starts.items():
            for tpos in t_starts.get(letter, ()):
                for spos in at:
                    length = _common_extension(a, spos, b, tpos)
                    if q_ends[spos + length] and t_ends[tpos + length]:
                        found.append((spos, length, tpos))
        out += [CanonicalHom(algebra, S, T, t_flip, spos, tpos, length)
                for spos, length, tpos in sorted(found)]
    return out


def full_cut(algebra, S, T, injective: bool) -> CanonicalHom:
    """The one canonical homomorphism M[S] -> M[T] that is injective (an
    inclusion) or, with ``injective`` false, surjective (a projection).

    A cut of length L has rank L + 1, and a word of length L has a module
    of dimension L + 1, so a cut is injective (or surjective) exactly when
    it is the whole of S (or of T).  A whole word is a quotient and a
    submodule window of itself, read either way, so only the windows of
    the other word that spell it are looked up, in the cut tables that
    ``canonical_homs`` reads: submodule windows of T, read either way, for
    an inclusion, and quotient windows of S for a projection.  An empty
    word matches the empty windows at its vertex, in the forward reading
    only, as in ``canonical_homs``.  There must be exactly one such cut.
    """
    quotient_s = _word_cuts(algebra, S).quotient
    found = []
    for flip, submodule_t in zip((False, True), _word_cuts(algebra, T).submodule):
        # the whole word, its vertex when it is empty, and the windows to search
        whole, vertex, (letters, starts, empty, ends) = (
            (quotient_s[0], S.vertex, submodule_t) if injective
            else (submodule_t[0], T.vertex, quotient_s))
        if flip and not whole:
            break
        for pos in starts.get(whole[0], ()) if whole else empty.get(vertex, ()):
            if letters.startswith(whole, pos) and ends[pos + len(whole)]:
                spos, tpos = (0, pos) if injective else (pos, 0)
                found.append(CanonicalHom(algebra, S, T, flip, spos, tpos, len(whole)))
    if len(found) != 1:
        kind = "inclusion" if injective else "projection"
        raise StrcatError(f"expected one canonical {kind} {S} -> {T}, found {len(found)}")
    return found[0]


def realize_canonical(ch: CanonicalHom) -> ModuleMap:
    """The explicit matrix of a canonical homomorphism: a 1 from each
    position of the cut in the source to its position in the target,
    written per vertex as an index map."""
    from .strings import string_module, word_layout

    algebra = ch.algebra
    M = string_module(algebra, ch.source)
    N = string_module(algebra, ch.target)
    verts_s, local_s = map(np.asarray, word_layout(algebra.quiver, ch.source))
    verts_t, local_t = map(np.asarray, word_layout(algebra.quiver, ch.target))
    k = np.arange(ch.length + 1)
    j_s, j_t = ch.source_pos + k, ch.target_pos + k
    if ch.target_flip:
        j_t = len(verts_t) - 1 - j_t
    if (verts_t[j_t] != verts_s[j_s]).any():
        raise StrcatError("cut does not align vertexwise")
    maps = {}
    for v in algebra.quiver.vertices:
        at = verts_s[j_s] == v
        rows = local_s[j_s[at]]
        cols = np.full(M.dims[v] + 1, N.dims[v], dtype=np.int64)
        vals = np.zeros(M.dims[v] + 1, dtype=np.int64)
        cols[rows], vals[rows] = local_t[j_t[at]], 1
        maps[v] = cols, vals
    f = ModuleMap._of_index_maps(M, N, maps)
    f.check_intertwining()
    return f
