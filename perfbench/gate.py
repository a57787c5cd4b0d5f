"""The correctness gate.

Every answer is compared byte for byte with the output recorded at a
reference commit (``golden/``, see ``record_golden.py``), and also checked
against facts that do not depend on that recording: the closed-form
classification table, AR node counts of m or 4m, algebra dimensions of
m+1, 4m+2 or m+5, syzygy periods dividing four, and each Hom dimension
against the count of canonical homomorphisms.  Each function returns a list of problems; empty means pass.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from workloads import EXPECTED_DIM, EXPECTED_NODES, CliJob, Query, flag_value

GOLDEN = Path(__file__).resolve().parent / "golden"
QUERY_GOLDEN = GOLDEN / "query-session.json"


def slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", label).strip("_")


def golden_path(workload: str, job: CliJob) -> Path:
    return GOLDEN / workload / f"{slug(job.label)}.txt"


def read_golden(workload: str, job: CliJob) -> str | None:
    path = golden_path(workload, job)
    return path.read_bytes().decode("utf-8") if path.is_file() else None


def check_algebras(built) -> list[str]:
    """``built`` holds (family, m, dim) of each algebra a run constructed."""
    return [f"{family} m={m}: dim {dim} != {EXPECTED_DIM[family](m)}"
            for family, m, dim in built if dim != EXPECTED_DIM[family](m)]


def check_cli(job: CliJob, rc, stdout: str, golden: str | None) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    if golden is None:
        problems.append("no recorded output")
    elif stdout != golden:
        problems.append("stdout differs from the recorded output")
    try:
        problems += _independent(job, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unparseable output: {exc!r}")
    return problems


def _independent(job: CliJob, text: str) -> list[str]:
    command = job.argv[0]
    fmt = flag_value(job.argv, "--format") or "table"
    nodes = EXPECTED_NODES[job.family](job.m)
    if command == "classify":
        return _classification(job, text, fmt)
    if command == "arquiver":
        if fmt == "json":
            got = len(json.loads(text)["nodes"])
        else:
            got = len(re.findall(r'^  "[^"]*";$', text, flags=re.M))
        return [] if got == nodes else [f"AR quiver has {got} nodes, want {nodes}"]
    if command == "strings":
        got = len(text.splitlines()) - 1
        return [] if got == nodes else [f"{got} strings, want {nodes}"]
    if command == "algebra":
        got = int(re.match(r"dim: (\d+)\n", text).group(1))
        want = EXPECTED_DIM[job.family](job.m)
        return [] if got == want else [f"algebra dim {got}, want {want}"]
    if command == "syzygy":
        return _syzygy_period(job, text)
    return []


def _classification(job: CliJob, text: str, fmt: str) -> list[str]:
    from strcat import deformation as d

    def udr_from_text(s: str):
        if s == "k":
            return d.trivial_ring()
        power = re.fullmatch(r"k\[\[x\]\]/\(x\^(\d+)\)", s)
        return d.power_series_quotient(int(power.group(1))) if power \
            else d.unresolved(s)

    def udr_from_json(u: dict):
        if u["kind"] == "k":
            return d.trivial_ring()
        if u["kind"] == "power_series_quotient":
            return d.power_series_quotient(u["exponent"])
        return d.unresolved(u.get("reason"))

    if fmt == "json":
        rows = [(r["module"], r["string"], r["stable_endo_dim"], r["ext1_dim"],
                 udr_from_json(r["udr"])) for r in json.loads(text)]
    else:
        rows = []
        for line in text.splitlines()[1:]:
            module, string, sed, ext, udr = line.split(None, 4)
            rows.append((module, string, int(sed), int(ext), udr_from_text(udr)))
    reports = [d.UdrReport(*row, trail=[]) for row in rows]
    problems = d.verify_classification(reports, job.family, job.m)
    problems += [f"{r.module}: stable endomorphism dim {r.stable_endo_dim} != 1"
                 for r in reports if r.stable_endo_dim != 1]
    return problems


def _syzygy_period(job: CliJob, text: str) -> list[str]:
    """Omega^4 is the identity on these families, and Omega^2 is on ae1,
    whose AR translate is the identity."""
    got = re.fullmatch(r"Omega\^(\d+)\((\S+)\) has dimension vector \(.*\)"
                       r"(?:, isomorphic to (\S+))?\n", text)
    n, module, iso = int(got.group(1)), got.group(2), got.group(3)
    period = 2 if job.family == "ae1" else 4
    if n % period == 0 and iso != module:
        return [f"Omega^{n}({module}) is {iso}, want {module}"]
    return []


def check_query(q: Query, answer, golden, canonical_count: int | None) -> list[str]:
    problems = []
    if answer != golden:
        problems.append(f"{q.key}: {answer!r} differs from the recorded {golden!r}")
    if q.kind == "hom" and answer != canonical_count:
        problems.append(f"{q.key}: dim Hom {answer!r} != {canonical_count} "
                        "canonical homomorphisms")
    if q.kind == "orbit" and (not answer or 4 % len(answer) or answer[0] != q.source):
        problems.append(f"{q.key}: orbit {answer!r} does not start at "
                        f"{q.source} with length dividing four")
    return problems
