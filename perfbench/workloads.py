"""The benchmark's workloads: fixed CLI job lists and a seeded query session.

All three are single-process closed loops: one client, and each job starts
when the previous one ends.

* ``cli-grid`` -- the commands a user runs, where elimination dominates:
  ``linalg.rref`` is fed by large ``hom_basis`` systems (up to 576 unknowns)
  and algebra set-up is under 5% of the time.
* ``large-algebra`` -- set-up dominates: completion, the multiplication
  table and the associativity check of algebras of dimension ~100-130, then
  string enumeration.  ``linalg`` does almost nothing here, so a change to
  elimination should read "no change" on this workload.
* ``query-session`` -- a library session of thousands of tiny Hom/Ext
  systems (at most ~64 unknowns) plus syzygy orbits, where per-call
  overhead and repeated work dominate.  A change that helps big systems but
  costs small ones shows here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CLI_GRID = (
    "classify --family ae1 --m 24",
    "classify --family ae2 --m 12 --format json",
    "classify --family ae3 --m 16",
    "arquiver --family ae3 --m 16 --format dot",
    "arquiver --family ae2 --m 12 --format json",
    "classify --family ae3 --m 12 --verify",
    "syzygy --family ae2 --m 12 M3 --n 4",
    "syzygy --family ae1 --m 24 V7 --n 2",
)

LARGE_ALGEBRA = (
    "strings --family ae2 --m 32",
    "strings --family ae1 --m 96",
    "algebra info --family ae3 --m 96",
)

# (family, m) of each session of the query workload, built once per pass
SESSION_ALGEBRAS = (("ae3", 8), ("ae2", 4))

CLI_WORKLOADS = {"cli-grid": CLI_GRID, "large-algebra": LARGE_ALGEBRA}
WORKLOADS = ("cli-grid", "large-algebra", "query-session")

# closed-form algebra dimension and AR-component node count per family
EXPECTED_DIM = {"ae1": lambda m: m + 1, "ae2": lambda m: 4 * m + 2,
                "ae3": lambda m: m + 5}
EXPECTED_NODES = {"ae1": lambda m: m, "ae2": lambda m: 4 * m,
                  "ae3": lambda m: 4 * m}


@dataclass(frozen=True)
class CliJob:
    """One CLI command; ``label`` is its seed-free command line."""

    label: str
    argv: tuple[str, ...]
    family: str
    m: int


def flag_value(argv, flag: str) -> str | None:
    for i, tok in enumerate(argv[:-1]):
        if tok == flag:
            return argv[i + 1]
    return None


def cli_jobs(workload: str, seed: int) -> list[CliJob]:
    """The workload's commands; the workload seed becomes ``--seed``."""
    jobs = []
    for line in CLI_WORKLOADS[workload]:
        argv = tuple(line.split())
        jobs.append(CliJob(line, argv + ("--seed", str(seed)),
                           flag_value(argv, "--family"),
                           int(flag_value(argv, "--m"))))
    return jobs


def algebras_used(workload: str) -> list[tuple[str, int]]:
    """Every distinct (family, m) the workload builds, in first-use order."""
    if workload == "query-session":
        return list(SESSION_ALGEBRAS)
    out = []
    for job in cli_jobs(workload, 0):
        if (job.family, job.m) not in out:
            out.append((job.family, job.m))
    return out


@dataclass(frozen=True)
class Query:
    kind: str      # "hom" | "ext" | "orbit"
    source: str    # module name
    target: str    # module name; "" for orbits

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.source}:{self.target}"


def session_queries(names: list[str]) -> list[Query]:
    """Hom and Ext^1 on every ordered pair, and one orbit per module."""
    queries = [Query(kind, s, t) for s in names for t in names
               for kind in ("hom", "ext")]
    return queries + [Query("orbit", s, "") for s in names]


def session_orders(n: int, seed: int):
    """Per-pass query orders, shuffled by the workload seed.  Each pass gets
    a new order, so which query first meets a module (and pays for its
    string module, cover and syzygy) varies between passes rather than
    being fixed by the seed."""
    rng = random.Random(seed)
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield order
