"""The built-in families as one-argument builders, ``ae1(m, p=...)``, and
algebra specs outside them, among them random Brauer trees."""

import functools

from hypothesis import strategies as st

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


def brauer_tree_spec(parents, orders, exceptional=None, mu=1, flips=()):
    """The Brauer tree algebra of the tree whose vertex t >= 1 hangs from
    ``parents[t - 1]`` by edge t - 1 (a vertex of the quiver), with the
    edges at each vertex u in the cyclic order ``orders[u]`` and the vertex
    ``exceptional`` of multiplicity ``mu``.  Around each vertex of valency
    k >= 2, or the exceptional one, the arrows go round its edges in that
    order; its cycle C_u(e) from edge e, taken mu_u times, equals the one
    around e's other end (``flips`` names the edges whose rule points the
    other way), or, where that end has no cycle, is zero once followed by
    its first arrow; and two arrows of different cycles compose to zero.
    One edge and no exceptional vertex give k[x]/(x^2), as the exceptional
    end with mu = 1 does.  It is symmetric special biserial of finite type,
    with n^2 mu strings for n edges (Gabriel and Riedtmann, Comment. Math.
    Helv. 54, 1979)."""
    n = len(parents)
    if n == 1 and exceptional is None:
        exceptional = 0
    ends = [(t + 1, parent) for t, parent in enumerate(parents)]  # edge -> its two vertices
    mult = [mu if u == exceptional else 1 for u in range(n + 1)]
    arrows, owner, cycle = [], {}, {}  # cycle: (vertex u, edge e) -> the arrows of C_u(e)
    for u, order in enumerate(orders):
        if len(order) < 2 and u != exceptional:
            continue
        names = [f"x{len(arrows) + i}" for i in range(len(order))]
        for i, e in enumerate(order):
            arrows.append({"name": names[i], "from": e, "to": order[(i + 1) % len(order)]})
            owner[names[i]] = u
            cycle[u, e] = names[i:] + names[:i]
    rules = []
    for e, pair in enumerate(ends):
        sides = [cycle[x, e] * mult[x] for x in pair if (x, e) in cycle]
        rules += [{"lhs": side + side[:1], "rhs": None} for side in sides]
        if len(sides) == 2:
            lhs, rhs = sides[::-1] if e in flips else sides
            rules.append({"lhs": lhs, "rhs": {"coeff": 1, "path": rhs}})
    rules += [{"lhs": [a["name"], b["name"]], "rhs": None} for a in arrows for b in arrows
              if a["to"] == b["from"] and owner[a["name"]] != owner[b["name"]]]
    dim = sum(len(orders[x]) * mult[x] if (x, e) in cycle else 1
              for e, pair in enumerate(ends) for x in pair)
    return {"vertices": list(range(n)), "arrows": arrows, "rules": rules, "dim_bound": dim}


@st.composite
def brauer_tree_specs(draw, max_edges=4):
    """(spec, edges, mu) of a random Brauer tree with at most ``max_edges``
    edges: a tree, a cyclic order of the edges at each vertex, at most one
    exceptional vertex with mu <= 3, and the orientation of each rule
    between two cycles."""
    n = draw(st.integers(1, max_edges))
    parents = [draw(st.integers(0, t - 1)) for t in range(1, n + 1)]
    incident = [[t - 1 for t in range(1, n + 1) if t == u or parents[t - 1] == u]
                for u in range(n + 1)]
    orders = [draw(st.permutations(edges)) for edges in incident]
    exceptional = draw(st.none() | st.integers(0, n))
    mu = 1 if exceptional is None else draw(st.integers(2, 3))
    flips = draw(st.sets(st.integers(0, n - 1)))
    return brauer_tree_spec(parents, orders, exceptional, mu, flips), n, mu


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


# {x0: 0 -> 0, x1: 1 -> 0, x0*x0 = 0} is not self-injective: P(1) = e1, x1,
# x1*x0 and P(0) = e0, x0 have their socles at 0 both, and dim P(1) = 3 while
# one basis path ends at 1
NOT_SELF_INJECTIVE_SPEC = {
    "vertices": [0, 1],
    "arrows": [{"name": "x0", "from": 0, "to": 0}, {"name": "x1", "from": 1, "to": 0}],
    "rules": [{"lhs": ["x0", "x0"], "rhs": None}],
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
