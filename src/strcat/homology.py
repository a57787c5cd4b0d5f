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
elimination.  Dimensions come from ranks: ``hom_dim`` is the system's
unknowns less its rank.  Hom(M, -) of 0 -> Omega N -> P_N -> N -> 0 and
Hom(-, N) of 0 -> Omega M -> P_M -> M -> 0 make ``stable_hom_dim`` and
``ext1_dim`` alternating sums of such dimensions; they stay linear, the
oracle for the counts that ``strcat.deformation`` takes from canonical
homomorphisms.  Maps are realised as ``ModuleMap``s only on request, by
``hom_basis``.

Canonical homomorphisms between string modules live here as well: they
are the combinatorial oracle for Hom dimensions, counted from substring
cuts and realized as explicit projection-then-inclusion matrices.  A cut
pairs a quotient window of the source word, read as given, with an equal
submodule window of the target word read either way; reversing both
words would only reverse the cut and keep its matrix.  Its 1s are placed
by ``strings.word_layout``, the numbering ``string_module`` builds on.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

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
        """Each arrow's matrix as an index map ``(cols, vals)`` (see
        ``strcat.indexmaps``); None when some matrix has two nonzero
        entries in a row.  Computed once per module; the arrays are
        read-only, because the memo hands them to every caller."""
        maps = {}
        for name, mat in self.mats.items():
            rows, cols = np.nonzero(mat)
            n, width = mat.shape
            map_cols = np.full(n + 1, width, dtype=np.int64)
            map_vals = np.zeros(n + 1, dtype=np.int64)
            map_cols[rows] = cols
            map_vals[rows] = mat[rows, cols]
            if np.count_nonzero(map_vals) < len(rows):  # a row held two entries
                return None
            maps[name] = _read_only(map_cols), _read_only(map_vals)
        return maps

    def __repr__(self) -> str:
        return f"Representation(dim_vector={self.dim_vector()})"

    # -- constructors ---------------------------------------------------------

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
    """An intertwiner between two representations, stored vertexwise."""

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

    def check_intertwining(self):
        p = self.source.algebra.p
        for a in self.source.algebra.quiver.arrows:
            lhs = linalg.mat_mul(self.blocks[a.source], self.target.mats[a.name], p)
            rhs = linalg.mat_mul(self.source.mats[a.name], self.blocks[a.target], p)
            if not np.array_equal(lhs, rhs):
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
        blocks = {v: linalg.mat_mul(self.blocks[v], other.blocks[v], p)
                  for v in self.blocks}
        return ModuleMap(self.source, other.target, blocks, check=False)

    def power(self, n: int) -> "ModuleMap":
        if self.source.dim_vector() != self.target.dim_vector():
            raise StrcatError("powers need an endomorphism")
        out = identity_map(self.source)
        for _ in range(n):
            out = out.then(self)
        return out

    def rank(self) -> int:
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
    blocks = {v: np.eye(rep.dims[v], dtype=np.int64) for v in rep.dims}
    return ModuleMap(rep, rep, blocks, check=False)


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


def kernel_of(f: ModuleMap) -> Representation:
    """The kernel sub-representation of a module map."""
    p = f.source.algebra.p
    rows, units = {}, {}
    for v, block in f.blocks.items():
        rows[v], units[v] = linalg.kernel_rows(*linalg.rref(block.T, p), p)
    return _induced_subrep(f.source, rows, units)


def image_of(f: ModuleMap) -> Representation:
    """The image sub-representation inside the target."""
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


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


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
    """Kernel rows, free columns and section of a cover block whose row r
    is ``vals[r]`` times unit vector ``cols[r]`` of M_w (dimension m).

    The rows sent to column j with a nonzero value form its fibre, whose
    first row r0 is a pivot of the RREF of [epi_w^T | I]: that row of the
    RREF is the fibre's values over val_r0, beside e_j / val_r0.  So every
    other row f of the fibre is free with kernel row e_f - (val_f /
    val_r0) e_r0, a killed row is free with a unit kernel row, and the
    section holds 1 / val_r0 at (j, r0): the arrays that elimination gives,
    since an RREF is unique.  An empty fibre means epi_w is not onto."""
    n = len(cols)
    live = vals != 0
    first = np.full(m, n)
    np.minimum.at(first, cols[live], np.arange(n)[live])
    if (first == n).any():
        raise StrcatError("projective cover map failed to be surjective")
    inverse = np.array([pow(int(x), -1, p) for x in vals[first]], dtype=np.int64)
    is_free = np.ones(n, dtype=bool)
    is_free[first] = False
    free = is_free.nonzero()[0]
    kernel = np.zeros((len(free), n), dtype=np.int64)
    kernel[np.arange(len(free)), free] = 1
    dup = live[free].nonzero()[0]
    j = cols[free[dup]]
    kernel[dup, first[j]] = -vals[free[dup]] * inverse[j] % p
    section = np.zeros((m, n), dtype=np.int64)
    section[np.arange(m), first] = inverse
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
    else:
        blocks, parts = {}, {}
        for w, (cols, vals) in _cover_rows(M, maps, generators).items():
            block = np.zeros((len(cols), M.dims[w] + 1), dtype=np.int64)
            block[np.arange(len(cols)), cols] = vals  # a killed row hits the extra column
            blocks[w] = block[:, :-1]
            parts[w] = _fibres(cols, vals, M.dims[w], p)
    epi = ModuleMap(P, M, blocks)
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


@dataclass(frozen=True)
class CanonicalHom:
    """A substring cut realizing a projection-then-inclusion map.

    The common substring sits at ``source_pos`` in the source word and at
    ``target_pos`` in the target word, read backwards when ``target_flip``.
    """

    algebra: object
    source: object
    target: object
    target_flip: bool
    source_pos: int
    target_pos: int
    length: int


def _cuts(letters, quotient: bool) -> list[tuple[int, int]]:
    """Windows (pos, length) of the word with these letters that are a
    quotient of its module (inverse letter before, direct letter after) or,
    with ``quotient`` false, a submodule (direct before, inverse after)."""
    n = len(letters)
    return [(pos, length) for pos in range(n + 1)
            if pos == 0 or letters[pos - 1].inverse == quotient
            for length in range(n + 1 - pos)
            if pos + length == n or letters[pos + length].inverse != quotient]


def canonical_homs(algebra, S, T) -> list[CanonicalHom]:
    """All canonical homomorphisms M[S] -> M[T], one per distinct map.

    Reversing both words reverses a cut and keeps its matrix, so S is read
    as given and T both ways.  Distinct cuts give distinct matrices, except
    that an empty cut is found in both readings, so T read backwards adds
    only cuts of positive length.  The count equals dim Hom(M[S], M[T]).
    """
    from .strings import string_module, word_vertices

    for w in (S, T):  # NotAString unless w is a string; checked once per word
        string_module(algebra, w)
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


def realize_canonical(ch: CanonicalHom) -> ModuleMap:
    """The explicit matrix of a canonical homomorphism: a 1 from each
    position of the cut in the source to its position in the target."""
    from .strings import string_module, word_layout

    algebra = ch.algebra
    M = string_module(algebra, ch.source)
    N = string_module(algebra, ch.target)
    blocks = {v: np.zeros((M.dims[v], N.dims[v]), dtype=np.int64)
              for v in algebra.quiver.vertices}
    verts_s, local_s = word_layout(algebra.quiver, ch.source)
    verts_t, local_t = word_layout(algebra.quiver, ch.target)
    nt = len(verts_t) - 1
    for k in range(ch.length + 1):
        j_s = ch.source_pos + k
        j_t = (nt - (ch.target_pos + k)) if ch.target_flip else ch.target_pos + k
        if verts_t[j_t] != verts_s[j_s]:
            raise StrcatError("cut does not align vertexwise")
        blocks[verts_s[j_s]][local_s[j_s], local_t[j_t]] = 1
    return ModuleMap(M, N, blocks)
