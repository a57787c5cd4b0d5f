"""Exact linear algebra over a prime field.

Matrices are int64 numpy arrays holding residues in [0, p).  Module
elements are row vectors and act on the left, so a map with matrix A
sends x to x @ A.  All routines are deterministic; there are no
tolerances because the arithmetic is exact.
"""

from __future__ import annotations

import numpy as np


def as_field(mat, p: int) -> np.ndarray:
    return np.asarray(mat, dtype=np.int64) % p


def mat_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # entries < p <= quiver_core.MAX_PRIME, whose bound keeps the int64
    # accumulator from overflowing
    return (a @ b) % p


def rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and the pivot columns of ``mat`` mod p."""
    m = as_field(mat, p).copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = m[r:, c].nonzero()[0]
        if hits.size == 0:
            continue
        piv = hits[0] + r
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        # one update clears column c in every other row; the pivot row is
        # zero left of c, so only the columns from c on change
        col = m[:, c].copy()
        col[r] = 0
        hit = col.nonzero()[0]
        if hit.size:
            m[hit, c:] = (m[hit, c:] - np.outer(col[hit], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(mat, p: int) -> int:
    m = np.asarray(mat)
    if m.size == 0:
        return 0
    return len(rref(m, p)[1])


def nullspace(mat, p: int) -> np.ndarray:
    """Rows spanning {v : mat @ v == 0} over F_p."""
    return kernel_rows(*rref(mat, p), p)[0]


def kernel_rows(reduced: np.ndarray, pivots: list[int], p: int) -> tuple[np.ndarray, np.ndarray]:
    """The null-space basis read off a reduced row echelon form and its
    pivots, with the free columns: per free column f, in increasing order,
    the row with 1 at f and minus the reduced form's column f at the
    pivots.  The rows are the identity on the free columns."""
    cols = reduced.shape[1]
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[:, pivots] = -reduced[: len(pivots), free].T % p
    basis[np.arange(free.size), free] = 1
    return basis, free
