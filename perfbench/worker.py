"""One run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --setup --workload NAME
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--spans PATH]

``--setup`` times one cold set-up (``import strcat`` plus building every
algebra the workload uses) and prints it as JSON.

Otherwise the worker runs whole passes over the workload's job list until
the passes have taken ``--seconds`` (at least one pass), gates every answer
outside the timed region, and prints its measurements as one JSON line.
Untraced passes and set-ups run with the speed probe of ``speed.py``, and
their times are reported at its reference speed as well as raw.
With ``--trace 1`` it runs one untraced pass first, then installs the
tracer and runs traced passes; the ratio of the two is the tracing
overhead.  ``run.py`` starts this script with the environment pinned (BLAS
threads, hash seed).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import gate  # noqa: E402
import workloads as wl  # noqa: E402
from spans import EXACT_COUNTS, Tracer, layer_metrics  # noqa: E402
from speed import Speedometer  # noqa: E402

clock = time.perf_counter


def import_strcat():
    import strcat
    import strcat.cli  # noqa: F401

    if Path(strcat.__file__).resolve().parent != (SRC / "strcat").resolve():
        raise SystemExit(f"strcat was imported from {strcat.__file__}, "
                         f"not from {SRC}")
    return strcat


def setup(workload: str) -> dict:
    """One cold set-up, timed with the speed probe running."""
    speed = Speedometer()
    speed.start()
    try:
        t0 = clock()
        strcat = import_strcat()
        built = [(family, m, strcat.build_family(family, m).dim)
                 for family, m in wl.algebras_used(workload)]
        t1 = clock()
    finally:
        speed.stop()
    return {"setup_s": speed.seconds(t0, t1),
            "raw_setup_s": t1 - t0 - speed.probing(t0, t1), "algebras": built}


# -- the workloads' passes ----------------------------------------------------------
#
# run_pass(tracer) returns {"jobs": {label: (t0, t1)}, "latencies": [(t0, t1)],
# "answers": {key: answer}, ...}, plus "job_ids" ({trace job id: label}) for
# CLI jobs and "algebras" ([(family, m, dim)]) for sessions; each (t0, t1) is
# the clock readings around one job or query.
# check(result) returns the failed units as (unit, problem) pairs.


class CliWorkload:
    """The cli-grid and large-algebra job lists, run through ``cli.main``."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.jobs = wl.cli_jobs(name, seed)
        self.golden = {job.label: gate.read_golden(name, job) for job in self.jobs}
        self.next_job = 0

    def run_pass(self, tracer: Tracer) -> dict:
        from strcat import cli

        out = {"jobs": {}, "latencies": [], "answers": {}, "job_ids": {},
               "outcomes": {}}
        for job in self.jobs:
            gc.collect()
            stdout, stderr = io.StringIO(), io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    rc = tracer.run_job(self.next_job, cli.main, list(job.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crashed job is a counted failure
                rc = "exception: " + traceback.format_exc(limit=3)
            span = (t0, clock())
            out["jobs"][job.label] = span
            out["latencies"].append(span)
            out["answers"][job.label] = stdout.getvalue()
            out["outcomes"][job.label] = (rc, stderr.getvalue())
            out["job_ids"][self.next_job] = job.label
            self.next_job += 1
        return out

    def check(self, result: dict) -> list[tuple[str, str]]:
        failed = []
        for job in self.jobs:
            rc, stderr = result["outcomes"][job.label]
            for problem in gate.check_cli(job, rc, result["answers"][job.label],
                                          self.golden[job.label]):
                failed.append((job.label, f"{problem} {stderr.strip()[:200]}".strip()))
        return failed


class QuerySession:
    """Hom, Ext^1 and syzygy-orbit queries through the library API; each pass
    is a fresh session that builds its algebras once."""

    def __init__(self, seed: int):
        import strcat

        self.seed = seed
        self.queries = {}
        for family, m in wl.SESSION_ALGEBRAS:
            quiver = strcat.build_family(family, m).quiver
            names = [n for n, _ in
                     strcat.strings.family_node_names(family, m, quiver)]
            self.queries[(family, m)] = wl.session_queries(names)
        self.orders = wl.session_orders(sum(map(len, self.queries.values())), seed)
        path = gate.QUERY_GOLDEN
        self.golden = json.loads(path.read_text()) if path.is_file() else {}
        self.canonical: dict[str, int] = {}
        self.next_job = 0

    def run_pass(self, tracer: Tracer) -> dict:
        import strcat

        order = next(self.orders)
        out = {"jobs": {}, "latencies": [None] * len(order), "answers": {},
               "algebras": []}
        first = 0
        for family, m in wl.SESSION_ALGEBRAS:
            queries = self.queries[(family, m)]
            gc.collect()
            t0 = clock()
            algebra = tracer.run_job(self.next_job, strcat.build_family, family, m)
            self.next_job += 1
            words = dict(strcat.strings.family_node_names(family, m,
                                                          algebra.quiver))
            # latencies are stored in query-list order, whatever the run order
            for i in (i for i in order if first <= i < first + len(queries)):
                q = queries[i - first]
                tq = clock()
                try:
                    answer = tracer.run_job(self.next_job, self._answer, q,
                                            algebra, words)
                except Exception:  # a crashed query is a counted failure
                    answer = "exception: " + traceback.format_exc(limit=3)
                out["latencies"][i] = (tq, clock())
                out["answers"][f"{family}/{m}/{q.key}"] = answer
                self.next_job += 1
            out["jobs"][f"session {family} m={m}"] = (t0, clock())
            out["algebras"].append((family, m, algebra.dim))
            first += len(queries)
        return out

    def _answer(self, q: wl.Query, algebra, words):
        from strcat import arquiver, homology, strings

        if q.kind == "orbit":
            name_of = {w: n for n, w in words.items()}
            orbit = arquiver.omega_orbit(algebra, words[q.source], seed=self.seed)
            return [name_of[w] for w in orbit]
        M = strings.string_module(algebra, words[q.source])
        N = strings.string_module(algebra, words[q.target])
        if q.kind == "hom":
            return homology.hom_dim(M, N)
        return homology.ext1_dim(M, N)

    def _canonical_counts(self, family: str, m: int) -> dict[str, int]:
        """Canonical homomorphisms M[S] -> M[T] for every pair: the
        combinatorial Hom oracle, computed once per run."""
        import strcat

        key = f"{family}/{m}"
        if key not in self.canonical:
            algebra = strcat.build_family(family, m)
            words = dict(strcat.strings.family_node_names(family, m,
                                                          algebra.quiver))
            self.canonical[key] = {
                f"{s}:{t}": len(strcat.homology.canonical_homs(algebra, ws, wt))
                for s, ws in words.items() for t, wt in words.items()}
        return self.canonical[key]

    def check(self, result: dict) -> list[tuple[str, str]]:
        failed = []
        for family, m in wl.SESSION_ALGEBRAS:
            recorded = self.golden.get(f"{family}/{m}", {})
            counts = self._canonical_counts(family, m)
            for q in self.queries[(family, m)]:
                unit = f"{family}/{m}/{q.key}"
                for problem in gate.check_query(
                        q, result["answers"][unit], recorded.get(q.key),
                        counts.get(f"{q.source}:{q.target}")):
                    failed.append((unit, problem))
        return failed


def make_workload(name: str, seed: int):
    return QuerySession(seed) if name == "query-session" else CliWorkload(name, seed)


def digest(answers: dict) -> str:
    text = json.dumps(sorted(answers.items()), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# -- a run --------------------------------------------------------------------------


def end_to_end(passes: list[dict], raw: bool = False) -> dict:
    """End-to-end metrics (all but setup_s) of the passes' times at the
    reference speed (see ``speed.py``), or of their raw times.

    Each job (a CLI command or a query session) and each query is timed
    once per pass.  A job's time is its median over the passes.  The
    latency percentiles are taken over each pass's queries, then averaged
    over the passes.  Each pass has the same expensive first queries on
    each module, but which queries pay for them follows the pass's order,
    so a pass's 99th percentile still moves by several per cent from pass
    to pass, and the mean of a run's passes is steadier than their median.
    """
    import numpy as np

    times = "raw" if raw else "norm"
    labels = list(passes[0][times]["jobs"])
    jobs = np.median([[p[times]["jobs"][k] for k in labels] for p in passes],
                     axis=0)
    latencies = [p[times]["latencies"] for p in passes]
    p50, p99 = np.mean(np.percentile(latencies, [50, 99], axis=1), axis=1)
    walls = [p[times]["wall_s"] for p in passes]
    return {
        "wall_s": float(jobs.sum()),
        "slowest_job_s": float(jobs.max()),
        "queries_per_s": len(latencies[0]) * len(passes) / sum(walls),
        "query_p50_ms": 1000 * float(p50),
        "query_p99_ms": 1000 * float(p99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def samples_of(passes: list[dict], speed: Speedometer) -> dict:
    probes = speed.probe_times()
    labels = list(passes[0]["norm"]["jobs"])
    return {"passes": len(passes), "queries": len(passes[0]["norm"]["latencies"]),
            "pass_wall_s": [p["norm"]["wall_s"] for p in passes],
            "raw_pass_wall_s": [p["raw"]["wall_s"] for p in passes],
            "job_s": {k: [p["norm"]["jobs"][k] for p in passes] for k in labels},
            "raw_job_s": {k: [p["raw"]["jobs"][k] for p in passes]
                          for k in labels},
            "probe_s": {"n": len(probes), "mean": statistics.fmean(probes),
                        "median": statistics.median(probes),
                        "min": min(probes), "max": max(probes)},
            "raw_metrics": end_to_end(passes, raw=True)}


def run(workload: str, seed: int, seconds: float, trace: bool,
        spans_path: str | None) -> dict:
    import_strcat()
    import numpy as np

    work = make_workload(workload, seed)
    tracer = Tracer()
    speed = Speedometer()
    failures: list[tuple[str, str]] = []
    digests = set()
    attempted = passes = 0

    def one_pass(traced: bool) -> dict:
        nonlocal attempted, passes
        passes += 1
        tracer.new_pass()
        lo = len(tracer.start)
        # untraced passes run with the speed probe (which would otherwise
        # show in the spans), so their times can be normalised
        if not traced:
            speed.start()
        tracer.on = traced
        try:
            t0 = clock()
            result = work.run_pass(tracer)
            t1 = clock()
        finally:
            tracer.on = False
            if not traced:
                speed.stop()
        result["pass_s"] = t1 - t0  # probing included
        # each span's raw seconds and its seconds at the reference speed,
        # both without the probing; a pass's wall is the sum of its jobs
        spans = {"jobs": result.pop("jobs"), "latencies": result.pop("latencies")}
        conversions = [("raw", lambda ab: ab[1] - ab[0] - speed.probing(*ab))]
        if not traced:
            conversions.append(("norm", lambda ab: speed.seconds(*ab)))
        for key, convert in conversions:
            result[key] = {"jobs": {k: convert(ab) for k, ab in spans["jobs"].items()},
                           "latencies": [convert(ab) for ab in spans["latencies"]]}
            result[key]["wall_s"] = sum(result[key]["jobs"].values())
        found = work.check(result)
        # algebra dims: the session reports its own builds; in a traced run
        # the tracer sees every build, the CLI's too (else run.py's set-ups
        # check them)
        built = result.get("algebras", [])
        if traced:
            result["summary"] = tracer.summarize(
                lo, len(tracer.start), t1 - t0 - speed.probing(t0, t1))
            built = result["summary"]["algebras"]
        found += [(f"build {p}", p) for p in gate.check_algebras(built)]
        attempted += len(spans["latencies"]) + len(built)
        failures.extend((f"pass {passes}: {unit}", problem) for unit, problem in found)
        digests.add(digest(result["answers"]))
        return result

    untraced = [one_pass(False)]
    while not trace and sum(p["pass_s"] for p in untraced) < seconds:
        untraced.append(one_pass(False))
    metrics = end_to_end(untraced)
    out = {"numpy": np.__version__}

    if trace:
        # traced passes alternate with untraced ones, so each traced pass
        # has an untraced neighbour to measure the tracing overhead against
        traced = []
        while True:
            tracer.install()
            traced.append(one_pass(True))
            tracer.uninstall()
            if sum(p["pass_s"] for p in traced) >= seconds:
                break
            untraced.append(one_pass(False))
        per_pass = [layer_metrics(p["summary"]) for p in traced]
        layer = {name: statistics.median(pp[name] for pp in per_pass)
                 if name.endswith("_s") or name == "trace.unattributed_frac"
                 else value for name, value in per_pass[0].items()}
        layer["trace.overhead_frac"] = statistics.median(
            t["raw"]["wall_s"] / u["raw"]["wall_s"]
            for u, t in zip(untraced, traced)) - 1
        counts = [{k: pp[k] for k in EXACT_COUNTS} for pp in per_pass]
        if any(c != counts[0] for c in counts):
            failures.append(("trace", "work counts differ between traced passes"))
        first = traced[0]
        out["per_job"] = {label: first["summary"]["per_job"][jid]
                          for jid, label in first.get("job_ids", {}).items()}
        out["counts"] = counts[0]
        out["samples"] = samples_of(untraced, speed)
        out["samples"].update(traced_passes=len(traced), spans=len(tracer.start))
        metrics = layer
        if spans_path:
            np.savez_compressed(spans_path, names=np.array(tracer.names),
                                **tracer.arrays())
    else:
        out["samples"] = samples_of(untraced, speed)

    if len(digests) != 1:
        failures.append(("passes", "answers differ between passes"))
    out.update(metrics=metrics, attempted=attempted,
               failed=len({unit for unit, _ in failures}),
               problems=[f"{u}: {p}" for u, p in failures[:50]],
               digest=min(digests))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    if args.setup:
        result = setup(args.workload)
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
