"""Module invariants and a plain linear-algebra oracle that only the tests
read."""

import numpy as np

from strcat import linalg
from strcat.homology import radical_rows


def top_dims(M):
    """Multiplicity of each simple in M / rad M."""
    return {v: M.dims[v] - rows.shape[0] for v, (rows, _) in radical_rows(M).items()}


def socle_dims(M):
    """Per-vertex dimension of the subspace killed by every arrow."""
    alg = M.algebra
    p = alg.p
    out = {}
    for v in alg.quiver.vertices:
        mats = [M.mats[a.name] for a in alg.quiver.arrows_from(v)]
        if not mats or M.dims[v] == 0:
            out[v] = M.dims[v]
            continue
        stacked = np.hstack(mats)
        out[v] = linalg.left_nullspace(stacked, p).shape[0]
    return out


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
