"""Representations, Hom spaces, covers, syzygies, and stable Hom.

A representation assigns to each vertex a free F_p module of row vectors
and to each arrow ``a: i -> j`` a matrix of shape (dim_i, dim_j) acting
on the right.  Everything downstream is exact dense linear algebra.

Canonical homomorphisms between string modules live here as well: they
are the combinatorial oracle for Hom dimensions, counted from substring
cuts and realized as explicit projection-then-inclusion matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import AlgebraMismatch, StrcatError, ZeroModule
from .quiver_core import indecomposable_projective, memoized, projective_paths


def _field_block(mat, shape: tuple[int, int], p: int, what: str, key) -> np.ndarray:
    """``mat`` reduced mod p, zeros when it is None; it must have ``shape``."""
    mat = linalg.as_field(np.zeros(shape, dtype=np.int64) if mat is None else mat, p)
    if mat.shape != shape:
        raise StrcatError(f"{what} {key} has shape {mat.shape}, wanted {shape}")
    return mat


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
        names = list(getattr(arrows, "arrows", arrows))
        if not names:
            if source is None:
                source = getattr(arrows, "source")
            return np.eye(self.dims[source], dtype=np.int64)
        mat = self.mats[names[0]]
        for name in names[1:]:
            mat = linalg.mat_mul(mat, self.mats[name], self.algebra.p)
        return mat

    def check_relations(self):
        """Every completed rule must hold as a matrix identity."""
        p = self.algebra.p
        for rule in self.algebra.rules:
            left = self.path_matrix(rule.lhs)
            if rule.rhs is None:
                if left.any():
                    raise StrcatError(f"rule {rule} fails on this representation")
            else:
                right = (rule.coeff * self.path_matrix(rule.rhs)) % p
                if not np.array_equal(left, right):
                    raise StrcatError(f"rule {rule} fails on this representation")

    def __repr__(self) -> str:
        return f"Representation(dim_vector={self.dim_vector()})"

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, algebra) -> "Representation":
        return cls(algebra, {}, {}, check=False)


def direct_sum(reps: list[Representation]) -> tuple[Representation, list[dict[int, int]]]:
    """Block sum; also returns each summand's per-vertex row offset."""
    if not reps:
        raise StrcatError("direct_sum needs at least one summand")
    algebra = reps[0].algebra
    offsets: list[dict[int, int]] = []
    dims = {v: 0 for v in algebra.quiver.vertices}
    for rep in reps:
        if rep.algebra is not algebra:
            raise AlgebraMismatch("summands live over different algebras")
        offsets.append(dict(dims))
        for v in algebra.quiver.vertices:
            dims[v] += rep.dims[v]
    mats = {}
    for a in algebra.quiver.arrows:
        mat = np.zeros((dims[a.source], dims[a.target]), dtype=np.int64)
        for rep, off in zip(reps, offsets):
            rs, rt = rep.dims[a.source], rep.dims[a.target]
            mat[off[a.source]: off[a.source] + rs,
                off[a.target]: off[a.target] + rt] = rep.mats[a.name]
        mats[a.name] = mat
    return Representation(algebra, dims, mats, check=False), offsets


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

    def is_zero(self) -> bool:
        return all(not blk.any() for blk in self.blocks.values())

    def flatten(self) -> np.ndarray:
        parts = [self.blocks[v].ravel()
                 for v in self.source.algebra.quiver.vertices]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    def __repr__(self) -> str:
        return (f"ModuleMap({self.source.dim_vector()} -> "
                f"{self.target.dim_vector()}, rank={self.rank()})")


def identity_map(rep: Representation) -> ModuleMap:
    blocks = {v: np.eye(rep.dims[v], dtype=np.int64) for v in rep.dims}
    return ModuleMap(rep, rep, blocks, check=False)


def map_from_flat(M: Representation, N: Representation, vec: np.ndarray) -> ModuleMap:
    blocks = {}
    pos = 0
    for v in M.algebra.quiver.vertices:
        size = M.dims[v] * N.dims[v]
        blocks[v] = vec[pos: pos + size].reshape(M.dims[v], N.dims[v])
        pos += size
    return ModuleMap(M, N, blocks, check=False)


# -- Hom spaces ----------------------------------------------------------------


def hom_basis(M: Representation, N: Representation) -> list[ModuleMap]:
    """A basis of Hom(M, N), from the intertwining linear system."""
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


def hom_dim(M: Representation, N: Representation) -> int:
    return len(hom_basis(M, N))


# -- substructures --------------------------------------------------------------


def _induced_subrep(parent: Representation, rows: dict[int, np.ndarray]) -> Representation:
    """Representation on a per-vertex row subspace closed under the arrows."""
    alg = parent.algebra
    p = alg.p
    dims = {v: rows[v].shape[0] for v in rows}
    mats = {}
    for a in alg.quiver.arrows:
        moved = linalg.mat_mul(rows[a.source], parent.mats[a.name], p)
        coeffs = linalg.solve_in_rowspace(rows[a.target], moved, p)
        if coeffs is None:
            raise StrcatError("subspace is not closed under the arrow action")
        mats[a.name] = coeffs
    return Representation(alg, dims, mats, check=False)


def kernel_of(f: ModuleMap) -> Representation:
    """The kernel sub-representation of a module map."""
    p = f.source.algebra.p
    rows = {v: linalg.left_nullspace(f.blocks[v], p) for v in f.blocks}
    return _induced_subrep(f.source, rows)


def image_of(f: ModuleMap) -> Representation:
    """The image sub-representation inside the target."""
    p = f.source.algebra.p
    rows = {v: linalg.row_space(f.blocks[v], p) for v in f.blocks}
    return _induced_subrep(f.target, rows)


# -- covers and syzygies ---------------------------------------------------------


def radical_rows(M: Representation, rows: dict[int, np.ndarray] | None = None
                 ) -> dict[int, tuple[np.ndarray, list[int]]]:
    """The radical of a submodule of M, vertex by vertex.

    The submodule is spanned by ``rows`` (all of M when omitted); its
    radical at v is spanned by the images of its vectors under the arrows
    into v.  Each vertex gets a basis of that span in reduced row echelon
    form together with its pivot columns.
    """
    alg = M.algebra
    p = alg.p
    out = {}
    for v in alg.quiver.vertices:
        moved = [M.mats[a.name] if rows is None
                 else linalg.mat_mul(rows[a.source], M.mats[a.name], p)
                 for a in alg.quiver.arrows_into(v)]
        stacked = np.vstack(moved) if moved else np.zeros((0, M.dims[v]), dtype=np.int64)
        if stacked.size:
            reduced, pivots = linalg.rref(stacked, p)
            out[v] = (reduced[: len(pivots)], pivots)
        else:
            out[v] = (np.zeros((0, M.dims[v]), dtype=np.int64), [])
    return out


@memoized
def projective_cover(M: Representation) -> tuple[Representation, ModuleMap]:
    """The projective cover P -> M, with kernel inside rad P (verified)."""
    if M.is_zero():
        raise ZeroModule("the zero module has no projective cover")
    alg = M.algebra
    p = alg.p
    # the basis vectors of M off the radical's pivots span a complement of
    # rad M, so they are a minimal generating set
    rad = radical_rows(M)
    generators = [(v, c) for v in alg.quiver.vertices
                  for c in range(M.dims[v]) if c not in rad[v][1]]
    summands = [indecomposable_projective(alg, v) for v, _ in generators]
    P, offsets = direct_sum(summands)
    blocks = {v: np.zeros((P.dims[v], M.dims[v]), dtype=np.int64)
              for v in alg.quiver.vertices}
    for (gen_vertex, c), off in zip(generators, offsets):
        for v, paths in projective_paths(alg, gen_vertex).items():
            for i, q in enumerate(paths):
                blocks[v][off[v] + i] = M.path_matrix(q)[c]
    epi = ModuleMap(P, M, blocks)
    if not epi.is_surjective():
        raise StrcatError("projective cover map failed to be surjective")
    # minimality: the kernel must sit inside rad P
    rad_P = radical_rows(P)
    for v in alg.quiver.vertices:
        ker_rows = linalg.left_nullspace(epi.blocks[v], p)
        if ker_rows.shape[0] == 0:
            continue
        if linalg.solve_in_rowspace(rad_P[v][0], ker_rows, p) is None:
            raise StrcatError("cover kernel escapes the radical")
    return P, epi


@memoized
def syzygy(M: Representation) -> Representation:
    """Kernel of the projective cover; zero for projective (or zero) input."""
    if M.is_zero():
        return Representation.zero(M.algebra)
    _, epi = projective_cover(M)
    return kernel_of(epi)


def omega_power(M: Representation, n: int) -> Representation:
    if n < 1:
        raise StrcatError("omega_power needs n >= 1")
    out = M
    for _ in range(n):
        out = syzygy(out)
    return out


# -- stable Hom and Ext ------------------------------------------------------------


def stable_hom_dim(M: Representation, N: Representation) -> int:
    """dim Hom(M, N) minus the maps factoring through a projective.

    A map through any projective lifts through the projective cover of N,
    so the factoring subspace is the image of Hom(M, P_N) composed with
    the cover map.
    """
    if M.algebra is not N.algebra:
        raise AlgebraMismatch("modules live over different algebras")
    basis = hom_basis(M, N)
    if not basis:
        return 0
    P, epi = projective_cover(N)
    lifted = hom_basis(M, P)
    if not lifted:
        return len(basis)
    p = M.algebra.p
    composed = np.vstack([g.then(epi).flatten() for g in lifted])
    return len(basis) - linalg.rank(composed, p)


def ext1_dim(M: Representation, N: Representation) -> int:
    """dim Ext^1(M, N), computed as stable Hom out of the syzygy of M."""
    return stable_hom_dim(syzygy(M), N)


# -- isomorphism testing -------------------------------------------------------------


def is_isomorphic(M: Representation, N: Representation) -> bool:
    """Whether M and N are isomorphic; exact at every prime.

    ``N`` must have a local endomorphism ring with End(N)/rad = k, as every
    string module and indecomposable projective has.  Then the maps M -> N
    that are not isomorphisms form a hyperplane of Hom(M, N) when M is
    isomorphic to N, a basis cannot lie inside it, and so M is isomorphic
    to N exactly when the dimension vectors agree and some basis map is
    injective.
    """
    if M.algebra is not N.algebra:
        raise AlgebraMismatch("modules live over different algebras")
    if M.dim_vector() != N.dim_vector():
        return False
    return any(f.is_injective() for f in hom_basis(M, N))


# -- canonical homomorphisms between string modules -----------------------------------


@dataclass(frozen=True)
class CanonicalHom:
    """A substring cut realizing a projection-then-inclusion map.

    The common substring sits at ``source_pos`` in the chosen orientation
    of the source word and at ``target_pos`` in the chosen orientation of
    the target word; flips record which orientations were used.
    """

    algebra: object
    source: object
    target: object
    source_flip: bool
    target_flip: bool
    source_pos: int
    target_pos: int
    length: int


def _cuts(word, quotient: bool) -> list[tuple[int, int]]:
    """Windows (pos, length) of ``word`` that are a quotient of its module
    (inverse letter before the window, direct letter after) or, with
    ``quotient`` false, a submodule (direct letter before, inverse after)."""
    n = word.length
    return [(pos, length) for pos in range(n + 1)
            if pos == 0 or word.letters[pos - 1].inverse == quotient
            for length in range(n + 1 - pos)
            if pos + length == n or word.letters[pos + length].inverse != quotient]


def canonical_homs(algebra, S, T) -> list[CanonicalHom]:
    """All canonical homomorphisms M[S] -> M[T], one per distinct map.

    Cuts agreeing only up to orientation flips realize the same matrix and
    are reported once.  The count equals dim Hom(M[S], M[T]).
    """
    from .strings import is_string, subword, word_vertices

    for w in (S, T):
        if not is_string(w, algebra):
            raise StrcatError(f"{w} is not a string over this algebra")
    out: list[CanonicalHom] = []
    seen: set[bytes] = set()
    for s_flip, t_flip in itertools.product((False, True), repeat=2):
        ws = S.inverse() if s_flip else S
        wt = T.inverse() if t_flip else T
        vs = word_vertices(algebra.quiver, ws)
        vt = word_vertices(algebra.quiver, wt)
        s_cuts = _cuts(ws, quotient=True)
        t_cuts = _cuts(wt, quotient=False)
        by_len: dict[int, list[tuple[int, int]]] = {}
        for cut in t_cuts:
            by_len.setdefault(cut[1], []).append(cut)
        for spos, length in s_cuts:
            piece = subword(ws, spos, length) if length else None
            for tpos, _ in by_len.get(length, []):
                if length == 0:
                    if vs[spos] != vt[tpos]:
                        continue
                elif subword(wt, tpos, length) != piece:
                    continue
                ch = CanonicalHom(algebra, S, T, s_flip, t_flip, spos, tpos, length)
                key = realize_canonical(ch).flatten().tobytes()
                if key not in seen:
                    seen.add(key)
                    out.append(ch)
    return out


def realize_canonical(ch: CanonicalHom) -> ModuleMap:
    """The explicit matrix of a canonical homomorphism."""
    from .strings import string_module, word_vertices

    algebra = ch.algebra
    M = string_module(algebra, ch.source)
    N = string_module(algebra, ch.target)
    ns, nt = ch.source.length, ch.target.length
    verts_s = word_vertices(algebra.quiver, ch.source)
    verts_t = word_vertices(algebra.quiver, ch.target)

    def local_index(verts, j):
        return sum(1 for k in range(j) if verts[k] == verts[j])

    blocks = {v: np.zeros((M.dims[v], N.dims[v]), dtype=np.int64)
              for v in algebra.quiver.vertices}
    for k in range(ch.length + 1):
        j_s = (ns - (ch.source_pos + k)) if ch.source_flip else ch.source_pos + k
        j_t = (nt - (ch.target_pos + k)) if ch.target_flip else ch.target_pos + k
        v = verts_s[j_s]
        if verts_t[j_t] != v:
            raise StrcatError("cut does not align vertexwise")
        blocks[v][local_index(verts_s, j_s), local_index(verts_t, j_t)] = 1
    return ModuleMap(M, N, blocks)
