"""Self-tests of the benchmark.  The workload tests run every workload a few
times, so the whole file takes a few minutes:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from spans import EXACT_COUNTS, PER_LAYER, Tracer  # noqa: E402
from speed import REFERENCE_S, WINDOW_S, Speedometer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def worker(workload: str, seed: int, trace: int) -> dict:
    """One pass untraced, plus one traced pass with ``trace``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        env=bench.bench_env(), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_answers_and_work_counts_repeat(workload):
    traced = [worker(workload, 11, 1) for _ in range(2)]
    other_seed = worker(workload, 12, 0)
    for r in traced + [other_seed]:
        assert r["failed"] == 0, r["problems"]
    # the exact work counts repeat across traced runs with the same seed
    assert set(traced[0]["counts"]) == set(EXACT_COUNTS)
    assert traced[0]["counts"] == traced[1]["counts"]
    # each traced run checks its traced answers equal its untraced ones;
    # the answers are also the same under another seed
    assert traced[0]["digest"] == traced[1]["digest"] == other_seed["digest"]


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, unit, _ in bench.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        PER_LAYER


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cli-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_install_rebinds_every_alias():
    sys.path.insert(0, str(HERE.parent / "src"))
    import strcat
    from strcat import cli, deformation, quiver_core

    Tracer().install()
    for name in ("build_family", "indecomposable_projective"):
        wrapped = getattr(quiver_core, name)
        assert hasattr(wrapped, "__wrapped__")
        for alias in (cli, deformation, strcat):
            assert getattr(alias, name) is wrapped
    assert hasattr(quiver_core.Algebra.verify_associativity, "__wrapped__")
    assert strcat.hom_basis is strcat.homology.hom_basis
    assert hasattr(strcat.hom_basis, "__wrapped__")


def test_self_time_excludes_child_spans():
    tracer = Tracer()

    def inner():
        time.sleep(0.01)

    def outer():
        inner()
        inner()
        time.sleep(0.01)

    inner = tracer._wrap("toy.inner", inner)
    outer = tracer._wrap("toy.outer", outer)
    tracer.on = True
    t0 = time.perf_counter()
    tracer.run_job(0, outer)
    wall = time.perf_counter() - t0
    s = tracer.summarize(0, len(tracer.start), wall)
    assert s["calls"] == {"toy.inner": 2, "toy.outer": 1}
    assert s["self_s"]["toy.outer"] == pytest.approx(
        s["busy_s"]["toy.outer"] - s["busy_s"]["toy.inner"])
    assert 0.0095 < s["self_s"]["toy.outer"] < s["busy_s"]["toy.inner"]
    assert 0 <= s["unattributed_frac"] < 0.5


def test_normalised_time_drops_probing_and_scales_by_probe_speed():
    speed = Speedometer()
    # probes at 0.0, 1.0 and 2.0 s, running at half the reference speed
    speed.began = [0.0, 1.0, 2.0]
    speed.ended = [b + 2 * REFERENCE_S for b in speed.began]
    assert speed.probing(0.5, 2.5) == pytest.approx(4 * REFERENCE_S)
    assert speed.seconds(0.5, 2.5) == pytest.approx((2.0 - 4 * REFERENCE_S) / 2)
    # a span with no probe within WINDOW_S takes the nearest one's speed
    speed.ended[2] = 2.0 + 4 * REFERENCE_S
    t = 1.0 + 2 * WINDOW_S
    assert speed.factor(t, t + 0.01) == pytest.approx(0.5)
    assert speed.factor(2.5, 2.6) == pytest.approx(0.25)


def test_speedometer_timer_probes_and_stops():
    speed = Speedometer()
    speed.start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        pass
    speed.stop()
    n = len(speed.began)
    assert n >= 5
    time.sleep(0.1)
    assert len(speed.began) == n
