"""The built-in families as one-argument builders, ``ae1(m, p=...)``, and
algebra specs outside them."""

import functools

from strcat import build_family

ae1, ae2, ae3 = (functools.partial(build_family, name) for name in ("ae1", "ae2", "ae3"))


def brauer_line_spec(e):
    """The Brauer tree algebra of a line with three edges and an exceptional
    end vertex of multiplicity ``e``: loop c at edge 0, a0/b0 between edges
    0 and 1 and a1/b1 between edges 1 and 2.  It is representation-finite
    with 9e non-projective indecomposables, all of them string modules,
    and its strings grow longer than its longest basis path plus two."""
    return {"vertices": [0, 1, 2],
            "arrows": [{"name": "c", "from": 0, "to": 0},
                       {"name": "a0", "from": 0, "to": 1}, {"name": "b0", "from": 1, "to": 0},
                       {"name": "a1", "from": 1, "to": 2}, {"name": "b1", "from": 2, "to": 1}],
            "rules": [{"lhs": ["c", "a0"], "rhs": None}, {"lhs": ["b0", "c"], "rhs": None},
                      {"lhs": ["a0", "a1"], "rhs": None}, {"lhs": ["b1", "b0"], "rhs": None},
                      {"lhs": ["c"] * e, "rhs": {"coeff": 1, "path": ["a0", "b0"]}},
                      {"lhs": ["b0", "a0"], "rhs": {"coeff": 1, "path": ["a1", "b1"]}}],
            "dim_bound": 4 * e + 12}


def brauer_star_spec(n, e):
    """The Brauer tree algebra of a star with n edges around an exceptional
    vertex of multiplicity e: arrows x0..x(n-1) around a cycle, every path
    of length ne + 1 zero.  It is a symmetric Nakayama algebra with n^2 e
    non-projective indecomposables, all of them string modules."""
    return {"vertices": list(range(n)),
            "arrows": [{"name": f"x{i}", "from": i, "to": (i + 1) % n} for i in range(n)],
            "rules": [{"lhs": [f"x{(i + k) % n}" for k in range(n * e + 1)], "rhs": None}
                      for i in range(n)],
            "dim_bound": n * (n * e + 1)}


# x2 is a string of the socle quotient, but M(x2) fails the rule x1 -> x2,
# so string_module refuses it
NON_MODULE_STRING_SPEC = {
    "vertices": [0, 1],
    "arrows": [{"name": "x0", "from": 0, "to": 0}, {"name": "x1", "from": 1, "to": 0},
               {"name": "x2", "from": 1, "to": 0}],
    "rules": [{"lhs": ["x0", "x0"], "rhs": None},
              {"lhs": ["x1"], "rhs": {"coeff": 1, "path": ["x2"]}}],
    "dim_bound": 8,
}


# k<x, y> / (x^2, y^2, yx - xy): a band x y~ x y~ ... gives infinitely many strings
INFINITE_SPEC = {
    "vertices": [0],
    "arrows": [{"name": "x", "from": 0, "to": 0}, {"name": "y", "from": 0, "to": 0}],
    "rules": [{"lhs": ["x", "x"], "rhs": None}, {"lhs": ["y", "y"], "rhs": None},
              {"lhs": ["y", "x"], "rhs": {"coeff": 1, "path": ["x", "y"]}}],
    "dim_bound": 4,
}
