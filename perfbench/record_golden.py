"""Record the outputs the correctness gate compares against.

    python3 perfbench/record_golden.py

Runs every cli-grid and large-algebra job and one query session once,
untraced, and writes their answers under ``perfbench/golden``.  The
recording is the reference for every later run, so make it only at a
commit whose outputs are known to be right.
"""

from __future__ import annotations

import json

import gate
import workloads as wl
from spans import Tracer
from worker import CliWorkload, QuerySession, import_strcat


def main():
    import_strcat()
    tracer = Tracer()
    for name in wl.CLI_WORKLOADS:
        work = CliWorkload(name, seed=0)
        result = work.run_pass(tracer)
        for job in work.jobs:
            rc, stderr = result["outcomes"][job.label]
            if rc != 0:
                raise SystemExit(f"{job.label}: exit code {rc}\n{stderr}")
            path = gate.golden_path(name, job)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(result["answers"][job.label].encode("utf-8"))
    result = QuerySession(seed=0).run_pass(tracer)
    recorded: dict[str, dict] = {}
    for key, answer in result["answers"].items():
        family, m, query = key.split("/", 2)
        recorded.setdefault(f"{family}/{m}", {})[query] = answer
    gate.QUERY_GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
