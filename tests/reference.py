"""Module invariants that only the tests read."""

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
