"""Matrices with at most one nonzero entry per row, as index maps.

A map ``(cols, vals)`` on n rows holds n + 1 entries: row i goes to
column ``cols[i]`` scaled by ``vals[i]``.  A killed row, and the extra
sentinel row n at the end, go to the column past the last one with value
0, so a killed vector stays killed under composition.  String modules
and projectives have such arrow matrices, and so does an algebra's
right action of an arrow on its basis, the column past the last being
the algebra's zero index ``dim``.  ``read`` finds such a map in a dense
matrix and ``dense`` writes one back.
"""

import numpy as np


def halved(word: tuple[str, ...], leaf, product, products: dict):
    """The value of a nonempty word as (first half) * (second half).

    ``leaf`` gives the value of one arrow, ``product`` multiplies two
    values (dense matrices or maps), and ``products`` holds the products
    already formed, by word.  A module-level function rather than a
    recursive closure, which would be a reference cycle holding the
    products until the cyclic collector ran.
    """
    if len(word) == 1:
        return leaf(word[0])
    if word not in products:
        half = len(word) // 2
        products[word] = product(halved(word[:half], leaf, product, products),
                                 halved(word[half:], leaf, product, products))
    return products[word]


def read(mat: np.ndarray):
    """The index map of a matrix, or None when some row of it holds two
    nonzero entries."""
    rows, cols = np.nonzero(mat)
    n, width = mat.shape
    map_cols = np.full(n + 1, width, dtype=np.int64)
    map_vals = np.zeros(n + 1, dtype=np.int64)
    map_cols[rows] = cols
    map_vals[rows] = mat[rows, cols]
    if np.count_nonzero(map_vals) < len(rows):  # a row held two entries
        return None
    return map_cols, map_vals


def dense(imap, width: int) -> np.ndarray:
    """The matrix of an index map into ``width`` columns."""
    cols, vals = imap
    out = np.zeros((len(cols) - 1, width + 1), dtype=np.int64)
    out[np.arange(len(cols) - 1), cols[:-1]] = vals[:-1]  # a killed row hits the extra column
    return out[:, :width]


def hit(imap) -> np.ndarray:
    """The columns that some row goes to with a nonzero value, in
    increasing order: the pivots of the map's RREF."""
    cols, vals = imap
    return np.flatnonzero(np.bincount(cols[vals != 0]))


def compose(first, then, p: int):
    """The map ``first`` followed by ``then``."""
    cols, vals = first
    return then[0][cols], vals * then[1][cols] % p


def identity(n: int, rows=slice(None)):
    """The identity on ``rows`` (all n by default), killing the rest."""
    vals = np.zeros(n + 1, dtype=np.int64)
    vals[:n][rows] = 1
    return np.arange(n + 1, dtype=np.int64), vals


def agree(left, right, coeff, p: int) -> bool:
    """left == coeff * right, where a missing right side is zero: the
    values agree, and so do the columns wherever the value is nonzero."""
    if right is None:
        return not np.count_nonzero(left[1])
    vals = right[1] if coeff == 1 else coeff * right[1] % p
    return bool(((left[1] == vals) & ((left[0] == right[0]) | (vals == 0))).all())
