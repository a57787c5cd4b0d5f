"""Independent brute-force oracles, written without touching the package.

For the monomial presentations the basis is exactly the paths avoiding
every relation word, so the oracle enumerates raw paths and filters by a
full subword scan.  For the binomial family it spans the paths that avoid
the two monomial relations, imposes every shift of the binomial relation
as a row (terms that hit a monomial junction vanish), and counts the
quotient of the short-path span by rank arithmetic done here, modulo a
different prime than the package default.
"""

import numpy as np

ORACLE_PRIME = 2147483647  # 2^31 - 1

# (family, m) of the algebras on which the tests compare each computation
# with its oracle
ORACLE_CASES = [("ae1", 3), ("ae1", 6), ("ae2", 2), ("ae2", 3), ("ae3", 3), ("ae3", 5)]


def all_paths(vertices, arrows, max_len):
    """Composable arrow-name sequences up to max_len, with endpoints."""
    by_source = {}
    for name, s, t in arrows:
        by_source.setdefault(s, []).append((name, t))
    out = [((), v, v) for v in vertices]
    frontier = list(out)
    for _ in range(max_len):
        nxt = []
        for names, s, t in frontier:
            for name, t2 in by_source.get(t, []):
                nxt.append((names + (name,), s, t2))
        out.extend(nxt)
        frontier = nxt
    return out


def contains_word(names, word):
    k = len(word)
    return any(names[i: i + k] == word for i in range(len(names) - k + 1))


def monomial_dimension(vertices, arrows, monomials, max_len):
    """Paths avoiding every monomial; checks none survive at the cap."""
    survivors = [p for p in all_paths(vertices, arrows, max_len)
                 if not any(contains_word(p[0], w) for w in monomials)]
    longest = max(len(p[0]) for p in survivors)
    assert longest < max_len, "oracle cap too small to certify completeness"
    return len(survivors)


def _rank_rows(rows, width):
    """Row count after elimination mod ORACLE_PRIME, plain and local."""
    q = ORACLE_PRIME
    mat = [np.asarray(r, dtype=np.int64) % q for r in rows if any(r)]
    pivots = {}
    rank = 0
    for row in mat:
        row = row.copy()
        while True:
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                break
            lead = int(nz[0])
            if lead not in pivots:
                row = (row * pow(int(row[lead]), -1, q)) % q
                pivots[lead] = row
                rank += 1
                break
            row = (row - row[lead] * pivots[lead]) % q
    return rank


def ae3_dimension(m, span_len=None, shift_len=None):
    """Dimension of the loop-plus-cycle family by span intersection.

    Ambient: paths over {r: 0->0, a: 0->1, b: 1->0} avoiding the words
    ra and br, up to shift_len.  Rows: every shift u * (ab - r^m) * v
    whose surviving terms fit; a term containing ra or br is zero in the
    ambient and drops out.  The answer is the short-path count minus the
    dimension of the row space met with the short-path span.
    """
    span_len = span_len or max(m, 2)
    shift_len = shift_len or (2 * m + 4)
    vertices = [0, 1]
    arrows = [("r", 0, 0), ("a", 0, 1), ("b", 1, 0)]
    monomials = [("r", "a"), ("b", "r")]

    ambient = [p for p in all_paths(vertices, arrows, shift_len)
               if not any(contains_word(p[0], w) for w in monomials)]
    index = {(names, s): i for i, (names, s, t) in enumerate(ambient)}
    width = len(ambient)

    def term_entry(unames, mid, vnames, src):
        full = unames + mid + vnames
        if any(contains_word(full, w) for w in monomials):
            return "zero"
        if len(full) > shift_len:
            return None
        return index[(full, src)]

    rows = []
    rm = ("r",) * m
    for unames, us, ut in ambient:
        if ut != 0:
            continue
        for vnames, vs, vt in ambient:
            if vs != 0:
                continue
            row = np.zeros(width, dtype=np.int64)
            ok = True
            for coeff, mid in ((1, ("a", "b")), (-1, rm)):
                got = term_entry(unames, mid, vnames, us)
                if got is None:
                    ok = False
                    break
                if got != "zero":
                    row[got] += coeff
            if ok and row.any():
                rows.append(row)

    short_units = []
    for names, s, t in ambient:
        if len(names) <= span_len:
            unit = np.zeros(width, dtype=np.int64)
            unit[index[(names, s)]] = 1
            short_units.append(unit)
    r_rel = _rank_rows(rows, width)
    r_all = _rank_rows(rows + short_units, width)
    return r_all - r_rel


def family_dimension(family, m):
    if family == "ae1":
        return monomial_dimension([0], [("a", 0, 0)],
                                  [("a",) * (m + 1)], m + 2)
    if family == "ae2":
        arrows = [("a", 0, 1), ("b", 1, 0)]
        monomials = [("a", "b") * m + ("a",), ("b", "a") * m + ("b",)]
        return monomial_dimension([0, 1], arrows, monomials, 2 * m + 2)
    if family == "ae3":
        d1 = ae3_dimension(m)
        d2 = ae3_dimension(m, shift_len=2 * m + 5)
        assert d1 == d2, f"ae3 oracle unstable at m={m}: {d1} vs {d2}"
        return d1
    raise ValueError(family)
