"""Matrices with at most one nonzero entry per row, as index maps.

A map ``(cols, vals)`` on n rows holds n + 1 entries: row i goes to
column ``cols[i]`` scaled by ``vals[i]``.  A killed row, and the extra
sentinel row n at the end, go to the column past the last one with value
0, so a killed vector stays killed under composition.  String modules
and projectives have such arrow matrices, and so does an algebra's
right action of an arrow on its basis, the column past the last being
the algebra's zero index ``dim``.
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
    live = left[1] != 0
    return (np.array_equal(left[1], coeff * right[1] % p)
            and np.array_equal(left[0][live], right[0][live]))
