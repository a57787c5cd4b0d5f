"""The built-in families, one ``Family`` record each.

Everything the package knows about a built-in family by its name lives in
its record: its presentation as a spec (the quiver and rules of the
``--family file`` JSON format, which ``quiver_core.build_family`` builds
as it builds any spec), for which ``m`` and at what dimension, the named
series of its strings, the size of its stable AR component and the shape
of its translate, the tower that certifies its deformation rings, and the
paper's closed-form classification table.  The table is data, never
derived from a computation: it is the oracle that ``--verify`` and the
tests check the computed classification against.

The three presentations are symmetric algebras of finite representation
type whose non-projective indecomposables are string modules.

Series names map to words as letters, ``(arrow, inverse)`` pairs, and a
trivial word to its vertex; ``strcat.strings`` builds the ``StringWord``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadParameter, StrcatError
from .homology import ModuleMap, Representation
from .quiver_core import MAX_DIM, Algebra, indecomposable_projective


@dataclass(frozen=True)
class Family:
    name: str
    # m -> {"vertices", "arrows", "rules"} in the --family file JSON format
    spec: Callable[[int], dict]
    m_min: int
    dim: Callable[[int], int]                       # m -> dimension, affine in m
    series: Callable[[int], dict[str, range]]       # m -> index range per series
    # (series, index, m) -> ((arrow, inverse) letters, the vertex if none else None)
    word: Callable[[str, int, int], tuple[tuple[tuple[str, bool], ...], int | None]]
    node_count: Callable[[int], int]                # strings = AR component nodes
    tau_is_identity: bool                           # else a fixed-point-free involution
    # names of the tower's string steps; its base is the tangent-one module
    # the tower certifies
    tower: Callable[[int], list[str]]
    # (table: {name: (ext1_dim, exponent)}, exponent 1 meaning the ring k)
    expected: Callable[[int], dict[str, tuple[int, int]]]
    # (algebra, top tower module) -> (label, inclusion, projection) of a last
    # step onto a projective, for a tower that closes with one
    projective_cap: Callable | None = None
    notes: Callable[[int, str], list[str]] = lambda m, name: []  # extra trail lines

    @property
    def m_max(self) -> int:
        """The largest m whose algebra has dimension at most MAX_DIM."""
        step = self.dim(self.m_min + 1) - self.dim(self.m_min)
        return self.m_min + (MAX_DIM - self.dim(self.m_min)) // step

    def check_m(self, m: int) -> int:
        """``m`` if the family is defined there and within MAX_DIM, else
        BadParameter; nothing is built."""
        if not self.m_min <= m <= self.m_max:
            raise BadParameter(f"{self.name} needs {self.m_min} <= m <= {self.m_max} "
                               f"(algebra dimension <= {MAX_DIM}), got {m}")
        return m


def _ae1_projective_cap(algebra: Algebra, top: Representation):
    """V(m-1) is the radical of P(0), and P(0) maps onto it."""
    P = indecomposable_projective(algebra, 0)
    m = top.total_dim
    inc = np.eye(m, m + 1, k=1, dtype=np.int64)  # the walk basis embeds as the radical
    sur = np.eye(m + 1, m, dtype=np.int64)       # kill the socle path
    return "P(0)", ModuleMap(top, P, {0: inc}), ModuleMap(P, top, {0: sur})


def _ae2_spec(m: int) -> dict:
    return {"vertices": [0, 1],
            "arrows": [{"name": "a", "from": 0, "to": 1}, {"name": "b", "from": 1, "to": 0}],
            "rules": [{"lhs": ["a", "b"] * m + ["a"], "rhs": None},
                      {"lhs": ["b", "a"] * m + ["b"], "rhs": None}]}


def _ae3_spec(m: int) -> dict:
    # oriented ab -> r^m so that the loop powers are the normal forms;
    # completion derives r^(m+1) -> 0
    return {"vertices": [0, 1],
            "arrows": [{"name": "r", "from": 0, "to": 0}, {"name": "a", "from": 0, "to": 1},
                       {"name": "b", "from": 1, "to": 0}],
            "rules": [{"lhs": ["r", "a"], "rhs": None}, {"lhs": ["b", "r"], "rhs": None},
                      {"lhs": ["a", "b"], "rhs": {"coeff": 1, "path": ["r"] * m}}]}


def _ae2_word(series: str, index: int, m: int):
    pair = (("a", False), ("b", False)) if series == "M" else (("b", False), ("a", False))
    letters = pair * (index // 2) + pair[:index % 2]
    return letters, None if letters else (0 if series == "M" else 1)


def _ae2_expected(m: int) -> dict[str, tuple[int, int]]:
    if m == 1:
        return {n: (0, 1) for n in ("M0", "M1", "N0", "N1")}
    out = {}
    for j in (0, 2 * m - 1):
        out[f"M{j}"] = out[f"N{j}"] = (0, 1)
    for j in (1, 2 * m - 2):
        out[f"M{j}"] = out[f"N{j}"] = (1, m)
    return out


def _ae2_notes(m: int, name: str) -> list[str]:
    notes = []
    if name.startswith("N"):
        notes.append("series M and N are treated symmetrically; "
                     "they share syzygy orbits")
    if m == 1:
        notes.append("overlap: the index classes {0, 2m-1} and {1, 2m-2} "
                     "coincide at m=1; computed values reported")
    return notes


def _ae3_word(series: str, index: int, m: int):
    if series == "U" and index == 0:
        return (), 1
    # m - index inverse letters of r, after b in Y and U, before a in X and U
    letters = ((("b", False),) * (series in "YU") + (("r", True),) * (m - index)
               + (("a", False),) * (series in "XU"))
    return letters, None if letters else 0


def _ae3_expected(m: int) -> dict[str, tuple[int, int]]:
    out = {n: (0, 1) for n in ("U0", "V1", f"X{m}", f"Y{m}")}
    out.update({n: (1, m) for n in (f"U{m - 1}", f"V{m}", "X1", "Y1")})
    return out


AE1 = Family(
    name="ae1", m_min=1, dim=lambda m: m + 1,
    spec=lambda m: {"vertices": [0], "arrows": [{"name": "a", "from": 0, "to": 0}],
                    "rules": [{"lhs": ["a"] * (m + 1), "rhs": None}]},
    series=lambda m: {"V": range(0, m)},
    word=lambda series, index, m: ((("a", False),) * index, None if index else 0),
    node_count=lambda m: m,
    tau_is_identity=True,
    tower=lambda m: [f"V{j}" for j in range(m)],
    expected=lambda m: {n: (1, m + 1) for n in ("V0", f"V{m - 1}")},
    projective_cap=_ae1_projective_cap,
)

AE2 = Family(
    name="ae2", m_min=1, dim=lambda m: 4 * m + 2, spec=_ae2_spec,
    series=lambda m: {"M": range(0, 2 * m), "N": range(0, 2 * m)},
    word=_ae2_word,
    node_count=lambda m: 4 * m,
    tau_is_identity=False,
    tower=lambda m: [f"M{2 * l + 1}" for l in range(m)],
    expected=_ae2_expected,
    notes=_ae2_notes,
)

AE3 = Family(
    name="ae3", m_min=2, dim=lambda m: m + 5, spec=_ae3_spec,
    series=lambda m: {"V": range(1, m + 1), "X": range(1, m + 1),
                      "Y": range(1, m + 1), "U": range(0, m)},
    word=_ae3_word,
    node_count=lambda m: 4 * m,
    tau_is_identity=False,
    tower=lambda m: [f"V{m - l}" for l in range(m)],
    expected=_ae3_expected,
)

FAMILIES = {f.name: f for f in (AE1, AE2, AE3)}


def get(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise StrcatError(f"unknown family {name!r}") from None
