"""Outside-in tracing of strcat's layers.

The tracer wraps public functions of each package module from outside the
program, records one span per call (name, start, end, parent span, job id)
in flat in-memory arrays, and keeps work counters computed only from call
arguments and results -- never from the program's private caches, so a
rewrite of those caches cannot change what is counted.  Spans are written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from array import array
from collections import defaultdict

import numpy as np

# module -> public functions wrapped in it ("Class.method" for methods)
TRACED = {
    "quiver_core": ("build_family", "complete_rewriting",
                    "Algebra.verify_associativity", "indecomposable_projective"),
    "strings": ("is_string", "enumerate_strings", "string_module", "class_moves"),
    "linalg": ("rref", "nullspace", "rank", "mat_mul"),
    "homology": ("hom_basis", "projective_cover", "syzygy", "stable_hom_dim",
                 "ext1_dim", "is_isomorphic", "canonical_homs",
                 "realize_canonical"),
    "arquiver": ("build_ar_quiver", "match_node", "omega_orbit"),
    "deformation": ("classify", "build_tower", "check_tower"),
    "cli": ("main", "run_verification"),
}

JOB = "bench.job"  # harness span around one job or query; not a layer

# The per-layer metrics, in report order: (name, unit, better).
PER_LAYER = [
    ("quiver_core.complete_rewriting.busy_s", "s", "lower"),
    ("quiver_core.verify_associativity.self_s", "s", "lower"),
    ("quiver_core.verify_associativity.triples", "count", "lower"),
    ("quiver_core.indecomposable_projective.calls", "count", "lower"),
    ("strings.is_string.calls", "count", "lower"),
    ("strings.is_string.self_s", "s", "lower"),
    ("strings.enumerate_strings.calls", "count", "lower"),
    ("strings.enumerate_strings.busy_s", "s", "lower"),
    ("strings.enumerate_strings.repeat_frac", "ratio", "lower"),
    ("strings.string_module.calls", "count", "lower"),
    ("strings.string_module.self_s", "s", "lower"),
    ("strings.string_module.repeat_frac", "ratio", "lower"),
    ("strings.class_moves.busy_s", "s", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.rref.cells", "count", "lower"),
    ("linalg.rref.cell_updates", "count", "lower"),
    ("linalg.rref.max_cells", "count", "lower"),
    ("linalg.nullspace.self_s", "s", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("linalg.mat_mul.calls", "count", "lower"),
    ("linalg.mat_mul.self_s", "s", "lower"),
    ("homology.hom_basis.calls", "count", "lower"),
    ("homology.hom_basis.self_s", "s", "lower"),
    ("homology.hom_basis.busy_s", "s", "lower"),
    ("homology.hom_basis.unknowns", "count", "lower"),
    ("homology.hom_basis.equations", "count", "lower"),
    ("homology.hom_basis.max_unknowns", "count", "lower"),
    ("homology.projective_cover.calls", "count", "lower"),
    ("homology.projective_cover.busy_s", "s", "lower"),
    ("homology.projective_cover.repeat_frac", "ratio", "lower"),
    ("homology.syzygy.busy_s", "s", "lower"),
    ("homology.stable_hom_dim.busy_s", "s", "lower"),
    ("homology.ext1_dim.busy_s", "s", "lower"),
    ("homology.is_isomorphic.calls", "count", "lower"),
    ("homology.is_isomorphic.busy_s", "s", "lower"),
    ("homology.is_isomorphic.true_frac", "ratio", "higher"),
    ("homology.canonical_homs.busy_s", "s", "lower"),
    ("homology.realize_canonical.busy_s", "s", "lower"),
    ("arquiver.build_ar_quiver.busy_s", "s", "lower"),
    ("arquiver.match_node.calls", "count", "lower"),
    ("arquiver.match_node.busy_s", "s", "lower"),
    ("arquiver.match_node.candidates_per_call", "count/call", "lower"),
    ("arquiver.omega_orbit.busy_s", "s", "lower"),
    ("deformation.classify.busy_s", "s", "lower"),
    ("deformation.classify.self_s", "s", "lower"),
    ("deformation.build_tower.busy_s", "s", "lower"),
    ("deformation.check_tower.busy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.run_verification.busy_s", "s", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# Counters that must repeat exactly across runs with the same seed.
EXACT_COUNTS = [name for name, unit, _ in PER_LAYER
                if name.endswith(".calls")] + [
    "linalg.rref.cells", "linalg.rref.cell_updates",
    "homology.hom_basis.unknowns", "quiver_core.verify_associativity.triples"]


# -- counters: each reads only the call's arguments and result ---------------


def _count_rref(tr, args, kwargs, result):
    rows, cols = np.shape(args[0] if args else kwargs["mat"])
    cells = rows * cols
    c = tr.counts
    c["linalg.rref.cells"] += cells
    c["linalg.rref.cell_updates"] += len(result[1]) * cells
    c["linalg.rref.max_cells"] = max(c["linalg.rref.max_cells"], cells)


def _count_hom_basis(tr, args, kwargs, result):
    M, N = tr.bound("homology.hom_basis", args, kwargs, "M", "N")
    unknowns = sum(M.dims[v] * N.dims[v] for v in M.dims)
    equations = sum(M.dims[a.source] * N.dims[a.target]
                    for a in M.algebra.quiver.arrows)
    c = tr.counts
    c["homology.hom_basis.unknowns"] += unknowns
    c["homology.hom_basis.equations"] += equations
    c["homology.hom_basis.max_unknowns"] = max(
        c["homology.hom_basis.max_unknowns"], unknowns)


def _count_triples(tr, args, kwargs, result):
    tr.counts["quiver_core.verify_associativity.triples"] += args[0].dim ** 3


def _count_enumerate(tr, args, kwargs, result):
    algebra, cap = tr.bound("strings.enumerate_strings", args, kwargs,
                            "algebra", "length_cap")
    tr.repeat("strings.enumerate_strings", algebra, cap)


def _count_string_module(tr, args, kwargs, result):
    algebra, word = tr.bound("strings.string_module", args, kwargs,
                             "algebra", "word")
    tr.repeat("strings.string_module", algebra, word)


def _count_cover(tr, args, kwargs, result):
    (M,) = tr.bound("homology.projective_cover", args, kwargs, "M")
    seen = tr.seen.setdefault("homology.projective_cover", weakref.WeakSet())
    if M in seen:
        tr.counts["homology.projective_cover.repeats"] += 1
    seen.add(M)


def _count_isomorphic(tr, args, kwargs, result):
    if result:
        tr.counts["homology.is_isomorphic.true"] += 1


def _record_algebra(tr, args, kwargs, result):
    family, m = tr.bound("quiver_core.build_family", args, kwargs, "family", "m")
    tr.algebras.append((family, m, result.dim))


COUNTERS = {
    "linalg.rref": _count_rref,
    "homology.hom_basis": _count_hom_basis,
    "quiver_core.verify_associativity": _count_triples,
    "strings.enumerate_strings": _count_enumerate,
    "strings.string_module": _count_string_module,
    "homology.projective_cover": _count_cover,
    "homology.is_isomorphic": _count_isomorphic,
    "quiver_core.build_family": _record_algebra,
}


class Tracer:
    """Span recorder plus per-pass work counters.

    Wrappers stay installed for the life of the process; ``on`` switches
    recording, so correctness checks made outside the timed region leave
    no spans and no counts.
    """

    def __init__(self):
        self.names = [JOB]
        self.name_id = {JOB: 0}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job_of = array("q")
        self.nested = array("b")
        self._stack = [-1]
        self._depth = [0]
        self.job = -1
        self.on = False
        self.signatures: dict[str, inspect.Signature] = {}
        self.bindings: list[tuple[object, str, object, object]] = []
        self.new_pass()

    def new_pass(self):
        self.counts = defaultdict(int)
        self.seen: dict[str, object] = {}
        self.algebras: list[tuple[str, int, int]] = []

    # -- argument helpers used by the counters -------------------------------

    def bound(self, name, args, kwargs, *params):
        """The named leading parameters of a call, defaults applied."""
        if not kwargs and len(args) >= len(params):
            return args[:len(params)]
        got = self.signatures[name].bind(*args, **kwargs)
        got.apply_defaults()
        return tuple(got.arguments[p] for p in params)

    def repeat(self, name, algebra, key):
        seen = self.seen.setdefault(name, weakref.WeakKeyDictionary())
        keys = seen.setdefault(algebra, set())
        if key in keys:
            self.counts[f"{name}.repeats"] += 1
        keys.add(key)

    # -- spans ------------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1])
        self.job_of.append(self.job)
        self.nested.append(self._depth[name_id] > 0)
        self._depth[name_id] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, name_id: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[name_id] -= 1

    def run_job(self, job_id: int, fn, *args):
        """Call ``fn`` as one job under a harness span."""
        if not self.on:
            return fn(*args)
        self.job = job_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx, 0)
            self.job = -1

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self.name_id[name] = name_id
        self._depth.append(0)
        self.signatures[name] = inspect.signature(fn)
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counter(tracer, args, kwargs, result)
            finally:
                tracer._close(idx, name_id)
            return result

        return wrapper

    def install(self):
        """Wrap every function in TRACED and rebind each alias of it: the
        ``from``-imports in other modules and the package re-exports."""
        if not self.bindings:
            import strcat.cli  # noqa: F401  (the package imports the rest)

            modules = [m for n, m in sys.modules.items()
                       if n == "strcat" or n.startswith("strcat.")]
            for mod_name, funcs in TRACED.items():
                mod = sys.modules[f"strcat.{mod_name}"]
                for func in funcs:
                    cls_name, _, attr = func.rpartition(".")
                    owner = getattr(mod, cls_name) if cls_name else mod
                    original = getattr(owner, attr)
                    wrapped = self._wrap(f"{mod_name}.{attr}", original)
                    self.bindings.append((owner, attr, original, wrapped))
                    self.bindings += [(other, alias, original, wrapped)
                                      for other in modules
                                      for alias, value in vars(other).items()
                                      if value is original and other is not owner]
        for owner, attr, _, wrapped in self.bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self.bindings:
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------------

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        hi = len(self.start) if hi is None else hi
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16)[lo:hi].copy(),
            "start": np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64)[lo:hi].copy(),
            "job": np.frombuffer(self.job_of, dtype=np.int64)[lo:hi].copy(),
            "nested": np.frombuffer(self.nested, dtype=np.int8)[lo:hi].astype(bool),
        }

    def summarize(self, lo: int, hi: int, wall: float) -> dict:
        """Per-function calls, busy and self time, and trace health over the
        spans [lo, hi) of one pass that took ``wall`` seconds."""
        s = self.arrays(lo, hi)
        n = hi - lo
        k = len(self.names)
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= lo
        local_parent = s["parent"][has_parent] - lo
        child = np.bincount(local_parent, weights=dur[has_parent], minlength=n)
        self_t = dur - child
        names = s["name"].astype(np.int64)
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names[~s["nested"]], weights=dur[~s["nested"]],
                           minlength=k)
        self_sum = np.bincount(names, weights=self_t, minlength=k)

        parent_name = np.full(n, -1)
        parent_name[has_parent] = names[local_parent]
        # A job's root is its harness span plus the program entry it calls
        # (cli.main for CLI jobs); root self time is the unattributed time.
        roots = [0, self.name_id.get("cli.main", 0)]
        top = ~np.isin(names, roots) & np.isin(parent_name, roots + [-1])
        attributed = float(dur[top].sum())

        jobs = s["job"]
        in_job = jobs >= 0
        covered = np.bincount(jobs[top & in_job], weights=dur[top & in_job],
                              minlength=jobs.max() + 1)
        per_job = {int(jobs[j]): {
            "wall_s": float(dur[j]),
            "unattributed_frac": 1.0 - float(covered[jobs[j]] / dur[j]),
        } for j in np.nonzero(names == 0)[0]}

        iso = self.name_id.get("homology.is_isomorphic", -2)
        match = self.name_id.get("arquiver.match_node", -2)
        candidates = int(((names == iso) & (parent_name == match)).sum())
        return {
            "calls": {self.names[i]: int(calls[i]) for i in range(1, k)},
            "busy_s": {self.names[i]: float(busy[i]) for i in range(1, k)},
            "self_s": {self.names[i]: float(self_sum[i]) for i in range(1, k)},
            "counts": dict(self.counts),
            "match_candidates": candidates,
            "unattributed_frac": 1.0 - attributed / wall,
            "per_job": per_job,
            "algebras": list(self.algebras),
        }


def layer_metrics(summary: dict) -> dict[str, float]:
    """The PER_LAYER values (except trace.overhead_frac) from one pass."""
    calls, counts = summary["calls"], summary["counts"]

    def frac(num, den):
        return num / den if den else 0.0

    out = {}
    for name, _, _ in PER_LAYER:
        func, _, stat = name.rpartition(".")
        if stat in ("calls", "busy_s", "self_s") and func in calls:
            out[name] = summary[stat][func]
        elif stat == "repeat_frac":
            out[name] = frac(counts.get(f"{func}.repeats", 0), calls[func])
        elif stat == "true_frac":
            out[name] = frac(counts.get(f"{func}.true", 0), calls[func])
        elif stat == "candidates_per_call":
            out[name] = frac(summary["match_candidates"], calls[func])
        elif name == "trace.unattributed_frac":
            out[name] = summary["unattributed_frac"]
        elif name != "trace.overhead_frac":
            out[name] = counts.get(name, 0)
    return out
