"""The strcat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``cli-grid``, ``large-algebra`` and
``query-session``.  Each is a single-process closed loop run by
``worker.py`` in a fresh interpreter with BLAS threads pinned to 1 and the
hash seed fixed.  The seed sets the CLI's ``--seed`` and the order of the
session's queries; the program sees only those inputs.  Every answer passes
the correctness gate (``gate.py``).

With ``--trace 0`` the run reports the end-to-end metrics; ``setup_s`` is
the median of several cold set-ups, each in its own interpreter.  Every
end-to-end time is given at a fixed reference speed of the host: a small
reference kernel is timed every 25 ms while the jobs run, and each job's
time, less that probing, is scaled by how much slower or faster the
kernel ran during it (``speed.py``), so that the host's drifting speed
does not read as a change of strcat.  The raw times are printed too and
kept in the run record.  With
``--trace 1`` it reports the per-layer metrics of ``spans.py`` from a
traced run and writes the spans to ``perfbench/out``.  The output is one
line per metric, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  A record of the run
(environment, sample counts, problems) goes to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# cold set-ups per run: at least MIN, and more while they total under a
# second, since a short set-up (mostly import time) is noisy
SETUP_MIN, SETUP_MAX, SETUP_TOTAL_S = 3, 9, 1.0
DEADLINE_S = 170  # a run must end within 180 s

# name, unit, what the value is; every time is at the reference speed
END_TO_END = [
    ("setup_s", "s", "import strcat plus building every algebra, cold; "
                     "median of the set-ups"),
    ("wall_s", "s", "the job list once: sum of the jobs' median times"),
    ("slowest_job_s", "s", "the slowest job's median time"),
    ("queries_per_s", "1/s", "jobs or queries completed per second"),
    ("query_p50_ms", "ms", "median latency of a pass's jobs or queries; "
                           "mean over the passes"),
    ("query_p99_ms", "ms", "99th percentile of the same"),
    ("peak_rss_mb", "MB", "peak resident memory of the workload process"),
]
BLAS_THREADS = "1"


def bench_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("STRCAT_SEED", None)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, numpy_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "seed": seed,
        "blas_threads": BLAS_THREADS,
        "pythonhashseed": "0",
    }


def call_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("out of time before starting the worker")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=bench_env(), capture_output=True,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="strcat benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "strcat" / "__init__.py").is_file():
        print(f"error: no strcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        while not args.trace and len(setups) < SETUP_MAX and (
                len(setups) < SETUP_MIN
                or sum(s["setup_s"] for s in setups) < SETUP_TOTAL_S):
            setups.append(call_worker(["--setup", "--workload", args.workload],
                                      deadline))
        if args.trace:
            run_args += ["--spans", str(OUT / f"{stem}-spans.npz")]
        result = call_worker(run_args, deadline)
    except (subprocess.TimeoutExpired, TimeoutError, RuntimeError,
            ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    import gate
    from speed import REFERENCE_S

    attempted, failed = result["attempted"], result["failed"]
    problems = list(result["problems"])
    for s in setups:
        wrong = gate.check_algebras(s["algebras"])
        attempted += len(s["algebras"])
        failed += len(wrong)
        problems += [f"set-up: {p}" for p in wrong]

    samples = result["samples"]
    if args.trace:
        from spans import PER_LAYER

        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups),
                  **result["metrics"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}

    raw = {"setup_s": statistics.median(s["raw_setup_s"] for s in setups)
           if setups else None, **samples["raw_metrics"]}
    env = environment(args.seed, result["numpy"])
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {samples['passes']} untraced pass(es), "
          f"{samples['queries']} jobs or queries per pass"
          + (f", {samples['traced_passes']} traced pass(es), "
             f"{samples['spans']} spans" if args.trace else ""))
    notes = {name: note for name, _, note in END_TO_END}
    for name, m in metrics.items():
        note = notes.get(name, "")
        if name.startswith("query_p"):
            note += (f" (n={samples['queries']} per pass, "
                     f"{samples['passes']} passes)")
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']:10s} {note}".rstrip())
    if not args.trace:
        probe = samples["probe_s"]
        print("  raw times: " + ", ".join(
            f"{name} {raw[name]:.6g}" for name, unit, _ in END_TO_END
            if unit != "MB") + f"; probe mean {1000 * probe['mean']:.4g} ms "
            f"(n={probe['n']}, reference {1000 * REFERENCE_S:g} ms)")
    print(f"  {'failed_frac':48s} {failed / attempted:14.6g} {'ratio':10s} "
          f"({failed} of {attempted} jobs, queries and builds)")
    for p in problems[:20]:
        print(f"  FAILED {p}")

    record = {"env": env, "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "raw_metrics": raw,
              "samples": samples,
              "attempted": attempted, "failed": failed, "problems": problems,
              "answers_digest": result["digest"],
              "setup_runs": setups,
              "counts": result.get("counts"), "per_job": result.get("per_job")}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
