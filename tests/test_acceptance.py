"""Acceptance suite: one test per criterion, each printing a verdict line.

Every check is exact; the only tolerances are the stated wall-clock
budgets, asserted per criterion.
"""

import time

import numpy as np

from strcat import (
    build_ar_quiver,
    build_family,
    canonical_homs,
    classify,
    enumerate_strings,
    hom_dim,
    indecomposable_projective,
    is_isomorphic,
    realize_canonical,
    stable_hom_dim,
    string_module,
    syzygy,
)
from strcat.deformation import power_series_quotient, trivial_ring
from strcat.linalg import rank
from strcat.strings import family_node_names

from .builders import ae3
from .oracles import family_dimension
from .reference import flat_map, omega_power
from .test_arquiver import expected_edges, expected_tau


def report(criterion, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def timed(budget, started, criterion):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, \
        f"criterion {criterion} took {elapsed:.1f}s, budget {budget}s"
    return elapsed


def classification_table(family, m):
    reports = classify(build_family(family, m), family, m)
    return {r.module: (r.ext1_dim, r.udr) for r in reports}, reports


def test_criterion_1_loop_family_classification(capsys):
    import json

    from strcat import cli

    t0 = time.perf_counter()
    for m in range(1, 9):
        code = cli.main(["classify", "--family", "ae1", "--m", str(m),
                         "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        got = {r["module"]: r for r in rows}
        want_names = {"V0", f"V{m - 1}"}
        assert set(got) == want_names, (m, sorted(got))
        for name in want_names:
            assert got[name]["ext1_dim"] == 1
            assert got[name]["udr"] == {"kind": "power_series_quotient",
                                        "exponent": m + 1}
    dt = timed(5, t0, 1)
    with capsys.disabled():
        report(1, True, f"loop family tables exact for m=1..8 ({dt:.1f}s < 5s)")


def test_criterion_2_alternating_family_classification():
    t0 = time.perf_counter()
    for m in range(2, 7):
        got, _ = classification_table("ae2", m)
        want = {}
        for j in (0, 2 * m - 1):
            want[f"M{j}"] = want[f"N{j}"] = (0, trivial_ring())
        for j in (1, 2 * m - 2):
            want[f"M{j}"] = want[f"N{j}"] = (1, power_series_quotient(m))
        assert got == want, (m, got)
    got, reports = classification_table("ae2", 1)
    assert got == {n: (0, trivial_ring()) for n in ("M0", "M1", "N0", "N1")}
    assert all(any("overlap" in line for line in r.trail) for r in reports)
    dt = timed(30, t0, 2)
    report(2, True, f"two-vertex family tables exact for m=1..6 ({dt:.1f}s < 30s)")


def test_criterion_3_loop_cycle_family_classification():
    t0 = time.perf_counter()
    for m in range(2, 7):
        got, _ = classification_table("ae3", m)
        want = {n: (0, trivial_ring())
                for n in ("U0", "V1", f"X{m}", f"Y{m}")}
        want.update({n: (1, power_series_quotient(m))
                     for n in (f"U{m - 1}", f"V{m}", "X1", "Y1")})
        assert got == want, (m, got)
    dt = timed(30, t0, 3)
    report(3, True, f"loop-cycle family tables exact for m=2..6 ({dt:.1f}s < 30s)")


def test_criterion_4_dual_oracle_hom_equivalence():
    t0 = time.perf_counter()
    pairs = 0
    for family, ms in (("ae1", range(1, 5)), ("ae2", range(1, 5)),
                       ("ae3", range(2, 5))):
        for m in ms:
            A = build_family(family, m)
            words = enumerate_strings(A)
            for S in words:
                for T in words:
                    chs = canonical_homs(A, S, T)
                    dim = hom_dim(string_module(A, S), string_module(A, T))
                    assert len(chs) == dim, (family, m, str(S), str(T))
                    if chs:
                        flat = np.vstack([flat_map(realize_canonical(ch))
                                          for ch in chs])
                        assert rank(flat, A.p) == dim, (family, m, str(S), str(T))
                    pairs += 1
    dt = timed(60, t0, 4)
    report(4, True, f"{pairs} ordered string pairs, zero mismatches "
                    f"({dt:.1f}s < 60s)")


def test_criterion_5_syzygy_period_divides_four():
    t0 = time.perf_counter()
    checked = 0
    for family, ms in (("ae1", range(1, 6)), ("ae2", range(1, 6)),
                       ("ae3", range(2, 6))):
        for m in ms:
            A = build_family(family, m)
            for w in enumerate_strings(A):
                M = string_module(A, w)
                assert is_isomorphic(omega_power(M, 4), M), (family, m, str(w))
                checked += 1
    dt = timed(120, t0, 5)
    report(5, True, f"fourth syzygy fixed all {checked} modules ({dt:.1f}s)")


def test_criterion_6_loop_cycle_syzygy_table():
    t0 = time.perf_counter()
    for m in range(2, 7):
        A = ae3(m)
        mods = {n: string_module(A, w)
                for n, w in family_node_names("ae3", m, A.quiver)}

        def omega_is(src, tgt, power=1):
            assert is_isomorphic(omega_power(mods[src], power), mods[tgt]), \
                (m, src, tgt, power)

        for i in range(1, m + 1):
            omega_is(f"V{i}", f"Y{m - i + 1}")
            omega_is(f"Y{i}", f"U{m - i}")
            omega_is(f"X{i}", f"V{m - i + 1}")
            omega_is(f"V{i}", f"U{i - 1}", power=2)
            omega_is(f"Y{i}", f"X{i}", power=2)
            omega_is(f"X{i}", f"Y{i}", power=2)
        for i in range(0, m):
            omega_is(f"U{i}", f"X{m - i}")
            # composing the single-step table forces the second syzygy of
            # the U series one step up the V series
            omega_is(f"U{i}", f"V{i + 1}", power=2)
    dt = timed(60, t0, 6)
    report(6, True, f"all eight syzygy identities hold for m=2..6 ({dt:.1f}s)")


def test_criterion_7_component_shapes():
    t0 = time.perf_counter()
    for family, ms in (("ae1", range(1, 6)), ("ae2", range(1, 5)),
                       ("ae3", range(2, 5))):
        for m in ms:
            A = build_family(family, m)
            q = build_ar_quiver(A)
            names = {w: n for n, w in family_node_names(family, m, A.quiver)}
            want_nodes = m if family == "ae1" else 4 * m
            assert q.node_count == want_nodes, (family, m)
            edges = {(names[q.nodes[s]], names[q.nodes[t]], kind)
                     for s, t, kind in q.arrows}
            assert edges == expected_edges(family, m), (family, m)
            tau = {names[q.nodes[i]]: names[q.nodes[q.tau[i]]]
                   for i in range(q.node_count)}
            assert tau == expected_tau(family, m), (family, m)
    dt = timed(60, t0, 7)
    report(7, True, f"component graphs and translates match ({dt:.1f}s)")


def test_criterion_8_dimensions_and_associativity():
    t0 = time.perf_counter()
    for m in range(1, 9):
        A = build_family("ae1", m)
        assert A.dim == family_dimension("ae1", m) == m + 1
        assert A.verify_associativity()
    for m in range(1, 9):
        A = build_family("ae2", m)
        assert A.dim == family_dimension("ae2", m) == 4 * m + 2
        assert A.verify_associativity()
    for m in range(2, 9):
        A = build_family("ae3", m)
        assert A.dim == family_dimension("ae3", m) == m + 5
        assert A.verify_associativity()
    dt = timed(120, t0, 8)
    report(8, True, f"dimensions match the path oracle, associativity "
                    f"exhaustive, m<=8 ({dt:.1f}s)")


def test_criterion_9_stable_category_sanity():
    t0 = time.perf_counter()
    for family, ms in (("ae1", range(1, 5)), ("ae2", range(1, 5)),
                       ("ae3", range(2, 5))):
        for m in ms:
            A = build_family(family, m)
            words = enumerate_strings(A)
            mods = [string_module(A, w) for w in words]
            projs = [indecomposable_projective(A, v)
                     for v in A.quiver.vertices]
            for P in projs:
                for M in mods:
                    assert stable_hom_dim(P, M) == 0
                    assert stable_hom_dim(M, P) == 0
                assert stable_hom_dim(P, P) == 0
            shifted = [syzygy(M) for M in mods]
            for i, M in enumerate(mods):
                for j, N in enumerate(mods):
                    assert stable_hom_dim(M, N) == \
                        stable_hom_dim(shifted[i], shifted[j]), \
                        (family, m, str(words[i]), str(words[j]))
    dt = timed(120, t0, 9)
    report(9, True, f"stable Hom vanishes on projectives and is "
                    f"syzygy-invariant ({dt:.1f}s)")
