"""Summarize run records into medians, quartiles and spreads.

    python3 perfbench/summarize.py perfbench/out/*-trace0.json [--trace RECORDS...]

Groups the untraced records by workload and prints, for each end-to-end
metric, the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (interquartile range over median) next to the metric's bound from
``BENCHMARK.json``, and the median and spread of the raw (not normalised)
times.  With ``--json`` it prints the same as one JSON object,
adding the per-layer metrics and per-job trace health of the traced
records given after ``--trace``; that object is the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    by_workload = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text())
        by_workload[record["workload"]].append(record)
    return by_workload


def spread_table(records, bounds) -> dict:
    out = {}
    for name in records[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in records]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "bound": bounds[name],
                     "unit": records[0]["metrics"][name]["unit"],
                     "runs": len(values)}
        raw = [r["raw_metrics"][name] for r in records]
        if name != "peak_rss_mb":  # not a time, so not normalised
            q1, _, q3 = statistics.quantiles(raw, n=4)
            median = statistics.median(raw)
            out[name].update(raw_median=median, raw_spread=(q3 - q1) / median)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="+")
    parser.add_argument("--trace", nargs="*", default=[])
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload, records in sorted(load(args.records).items()):
        table = spread_table(records, bounds)
        summary[workload] = {
            "end_to_end": table,
            "seconds": records[0]["seconds"],
            "seeds": sorted(r["env"]["seed"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
        }
        if not args.json:
            print(f"{workload} ({len(records)} runs)")
            for name, row in table.items():
                flag = "" if row["spread"] < row["bound"] / 3 else "  <-- over bound/3"
                raw = (f"  (raw: median {row['raw_median']:.6g} spread "
                       f"{row['raw_spread']:.4f})" if "raw_median" in row else "")
                print(f"  {name:16s} median {row['median']:12.6g} {row['unit']:4s} "
                      f"spread {row['spread']:.4f} bound {row['bound']}{flag}{raw}")
    for workload, records in load(args.trace).items():
        r = records[0]
        summary.setdefault(workload, {})["per_layer"] = {
            name: m["value"] for name, m in r["metrics"].items()}
        summary[workload]["per_job"] = r["per_job"]
        summary[workload]["env"] = r["env"]
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
