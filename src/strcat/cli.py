"""Command-line front door.

Subcommands: ``algebra info``, ``strings``, ``hom``, ``ext``, ``syzygy``,
``arquiver``, ``classify``.  Output is a plain table by default and
machine-readable with ``--format json|csv|dot``.  Identical flags and seed
produce byte-identical output.

Exit codes: 0 success, 2 bad flags or input (an unreadable ``--spec``, an
unwritable ``--out``, a non-integer ``STRCAT_SEED``), 3 computation error,
4 verification failure under ``--verify``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import arquiver, deformation, families, homology, strings
from .errors import StrcatError
from .quiver_core import (
    DEFAULT_PRIME,
    Algebra,
    build_family,
    indecomposable_projective,
    load_algebra_spec,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3
EXIT_VERIFY = 4


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--family", choices=[*families.FAMILIES, "file"],
                        required=True)
    bounds = ", ".join(f"{f.name}: m >= {f.m_min}" for f in families.FAMILIES.values())
    parser.add_argument("--m", type=int, default=None,
                        help=f"family parameter ({bounds})")
    parser.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    parser.add_argument("--seed", type=int, default=None,
                        help="randomization seed; STRCAT_SEED is the fallback")
    parser.add_argument("--format", choices=["table", "json", "csv", "dot"],
                        default="table")
    parser.add_argument("--spec", default=None,
                        help="algebra spec JSON (with --family file)")
    parser.add_argument("--length-cap", type=int, default=None)
    parser.add_argument("--out", default=None, help="output path; default stdout")
    parser.add_argument("--verify", action="store_true",
                        help="re-check the classification table and AR shape; "
                             "exit 4 on disagreement")
    parser.add_argument("--string", action="store_true",
                        help="treat module arguments as raw string literals")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strcat",
        description="Exact computations in stable module categories of the "
                    "built-in symmetric string algebra families.")
    sub = parser.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("algebra", help="algebra-level reports")
    alg_sub = alg.add_subparsers(dest="subcommand", required=True)
    info = alg_sub.add_parser("info", help="dimension, basis, radical series")
    _add_common(info)

    s = sub.add_parser("strings", help="list the strings (one per class)")
    _add_common(s)

    h = sub.add_parser("hom", help="dim Hom between two modules")
    _add_common(h)
    h.add_argument("source")
    h.add_argument("target")

    e = sub.add_parser("ext", help="dim Ext^1 between two modules")
    _add_common(e)
    e.add_argument("source")
    e.add_argument("target")

    sy = sub.add_parser("syzygy", help="iterated syzygy of a module")
    _add_common(sy)
    sy.add_argument("module")
    sy.add_argument("--n", type=int, default=1)

    aq = sub.add_parser("arquiver", help="stable Auslander-Reiten quiver")
    _add_common(aq)

    cl = sub.add_parser("classify", help="deformation ring classification")
    _add_common(cl)
    return parser


def _build_algebra(args, parser) -> Algebra:
    if args.family == "file":
        if not args.spec:
            parser.error("--family file needs --spec")
        try:
            return load_algebra_spec(args.spec)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            parser.exit(EXIT_USAGE, f"error: cannot read --spec {args.spec}: {exc!r}\n")
    if args.m is None:
        parser.error(f"--family {args.family} needs --m")
    low = families.get(args.family).m_min
    if args.m < low:
        parser.error(f"--family {args.family} needs --m >= {low}")
    return build_family(args.family, args.m, args.prime)


def _names(args, algebra) -> dict:
    if args.family == "file":
        return {}
    pairs = strings.family_node_names(args.family, args.m, algebra.quiver)
    return {w: n for n, w in pairs}


def _resolve_module(args, algebra, text: str):
    if args.string or args.family == "file":
        word = strings.parse_string_literal(text, algebra.quiver)
    else:
        word = strings.named_string(args.family, args.m, text)
    return strings.canonical(word, algebra.quiver)


def _table(rows: list[list], header: list[str]) -> str:
    cells = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in cells]
    return "\n".join(lines) + "\n"


@dataclass
class Result:
    """A command's answer in each output format it has."""

    payload: object              # --format json
    header: list[str]            # --format csv
    rows: list[list]
    table: str                   # --format table
    dot: str | None = None       # --format dot
    reports: list | None = None  # classify's reports, which --verify reuses


def _radical_series(rep: homology.Representation) -> list[dict[int, int]]:
    """Composition multiplicities of each radical layer, top first."""
    vertices = rep.algebra.quiver.vertices
    layers = []
    rows = {v: np.eye(rep.dims[v], dtype=np.int64) for v in vertices}
    while any(r.shape[0] for r in rows.values()):
        rad = {v: r for v, (r, _) in homology.radical_rows(rep, rows).items()}
        layers.append({v: rows[v].shape[0] - rad[v].shape[0] for v in vertices})
        rows = rad
    return layers


def cmd_algebra_info(args, algebra: Algebra) -> Result:
    projectives = {}
    for v in algebra.quiver.vertices:
        P = indecomposable_projective(algebra, v)
        series = _radical_series(P)
        projectives[str(v)] = {
            "dim": P.total_dim,
            "dim_vector": list(P.dim_vector()),
            "radical_series": [
                sorted(f"S{v2}" for v2, c in layer.items() for _ in range(c))
                for layer in series],
        }
    payload = {
        "family": args.family,
        "m": args.m,
        "prime": algebra.p,
        "dim": algebra.dim,
        "vertices": list(algebra.quiver.vertices),
        "arrows": [[a.name, a.source, a.target] for a in algebra.quiver.arrows],
        "basis": [str(b) for b in algebra.basis],
        "projectives": projectives,
    }
    layers = {v: " | ".join(",".join(layer) for layer in info["radical_series"])
              for v, info in projectives.items()}
    lines = [f"dim: {algebra.dim}",
             f"basis: {', '.join(str(b) for b in algebra.basis)}"]
    lines += [f"P({v}): dim {info['dim']}, radical series {layers[v]}"
              for v, info in projectives.items()]
    return Result(payload, ["vertex", "proj_dim", "radical_series"],
                  [[v, info["dim"], layers[v]] for v, info in projectives.items()],
                  "\n".join(lines) + "\n")


def cmd_strings(args, algebra: Algebra) -> Result:
    words = strings.enumerate_strings(algebra, args.length_cap)
    names = _names(args, algebra)
    rows = []
    for w in words:
        rep = strings.string_module(algebra, w)
        rows.append([names.get(w, ""), w.literal(), w.length,
                     "(" + ",".join(map(str, rep.dim_vector())) + ")"])
    header = ["name", "string", "length", "dim_vector"]
    payload = [{"name": r[0] or None, "string": r[1], "length": r[2],
                "dim_vector": r[3]} for r in rows]
    return Result(payload, header, rows, _table(rows, header))


def _pair_command(args, algebra: Algebra, compute, label: str) -> Result:
    ws = _resolve_module(args, algebra, args.source)
    wt = _resolve_module(args, algebra, args.target)
    M = strings.string_module(algebra, ws)
    N = strings.string_module(algebra, wt)
    dim = compute(M, N)
    return Result({"source": args.source, "target": args.target, "dim": dim},
                  ["source", "target", "dim"], [[args.source, args.target, dim]],
                  f"dim {label}({args.source}, {args.target}) = {dim}\n")


def cmd_syzygy(args, algebra: Algebra) -> Result:
    w = _resolve_module(args, algebra, args.module)
    rep = homology.omega_power(strings.string_module(algebra, w), args.n)
    iso_name = None
    if not rep.is_zero():
        nodes = strings.enumerate_strings(algebra, args.length_cap)
        reps = arquiver.node_modules(algebra, nodes)
        idx = arquiver.match_node(algebra, rep, nodes, reps, seed=args.seed)
        names = _names(args, algebra)
        iso_name = names.get(nodes[idx], nodes[idx].literal())
    dims = rep.dim_vector()
    return Result({"module": args.module, "n": args.n, "dim_vector": list(dims),
                   "isomorphic_to": iso_name},
                  ["module", "n", "dim_vector", "isomorphic_to"],
                  [[args.module, args.n, "(" + ",".join(map(str, dims)) + ")",
                    iso_name or ""]],
                  f"Omega^{args.n}({args.module}) has dimension vector {dims}"
                  + (f", isomorphic to {iso_name}\n" if iso_name else "\n"))


def cmd_arquiver(args, algebra: Algebra) -> Result:
    q = arquiver.build_ar_quiver(algebra, args.length_cap, seed=args.seed)
    names = _names(args, algebra)

    def label(i):
        return names.get(q.nodes[i], q.nodes[i].literal())

    header = ["source", "target", "kind"]
    rows = sorted([label(s), label(t), kind] for s, t, kind in q.arrows)
    tau_rows = sorted([label(i), label(q.tau[i])] for i in range(q.node_count))
    payload = {"nodes": sorted(label(i) for i in range(q.node_count)),
               "arrows": rows,
               "tau": tau_rows}
    table = (_table(rows, header)
             + "tau: " + ", ".join(f"{a}->{b}" for a, b in tau_rows) + "\n")
    return Result(payload, header, rows, table, dot=arquiver.to_dot(q, names))


def cmd_classify(args, algebra: Algebra) -> Result:
    reports = deformation.classify(algebra, args.family, args.m, seed=args.seed)
    rows = [[r.module, r.string, r.stable_endo_dim, r.ext1_dim, str(r.udr)]
            for r in reports]
    return Result(deformation.reports_to_json(reports), deformation.CSV_COLUMNS,
                  [deformation.report_csv_row(r) for r in reports],
                  _table(rows, ["module", "string", "stable_endo", "ext1", "udr"]),
                  reports=reports)


# command -> (its name in messages, computes its Result, has dot output)
COMMANDS = {
    "algebra": ("algebra info", cmd_algebra_info, False),
    "strings": ("strings", cmd_strings, False),
    "hom": ("Hom", lambda a, alg: _pair_command(a, alg, homology.hom_dim, "Hom"),
            False),
    "ext": ("Ext1", lambda a, alg: _pair_command(a, alg, homology.ext1_dim, "Ext1"),
            False),
    "syzygy": ("syzygy", cmd_syzygy, False),
    "arquiver": ("arquiver", cmd_arquiver, True),
    "classify": ("classify", cmd_classify, False),
}


def run_command(args, parser) -> tuple[Algebra, Result]:
    """Run the command and write its result in the --format asked for, to
    --out or stdout.  A format the command lacks exits 2 before any work."""
    label, compute, has_dot = COMMANDS[args.command]
    if args.format == "dot" and not has_dot:
        parser.error(f"{label} has no dot output")
    algebra = _build_algebra(args, parser)
    result = compute(args, algebra)
    if args.format == "json":
        text = json.dumps(result.payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([result.header, *result.rows])
        text = buf.getvalue()
    else:
        text = result.dot if args.format == "dot" else result.table
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            parser.exit(EXIT_USAGE, f"error: cannot write --out {args.out}: {exc!r}\n")
    else:
        sys.stdout.write(text)
    return algebra, result


def run_verification(args, algebra: Algebra, reports) -> list[str]:
    """Agreement checks behind --verify: string counts, the classification
    table, and the component shape.  Returns the list of problems.

    ``reports`` are the command's classification when it computed one
    (else None, and the algebra is classified here).
    """
    fam = families.get(args.family)
    problems: list[str] = []
    nodes = fam.node_count(args.m)
    words = strings.enumerate_strings(algebra, args.length_cap)
    if len(words) != nodes:
        problems.append(f"string count {len(words)} != {nodes}")
    if reports is None:
        reports = deformation.classify(algebra, args.family, args.m, seed=args.seed)
    problems += deformation.verify_classification(reports, args.family, args.m)
    q = arquiver.build_ar_quiver(algebra, args.length_cap, seed=args.seed)
    if q.node_count != nodes:
        problems.append(f"component node count {q.node_count} != {nodes}")
    if fam.tau_is_identity:
        if any(q.tau[i] != i for i in range(q.node_count)):
            problems.append("translate is not the identity")
    else:
        for i in range(q.node_count):
            if q.tau[i] == i:
                problems.append(f"translate fixes {q.nodes[i]}")
            if q.tau[q.tau[i]] != i:
                problems.append("translate is not an involution")
    return problems


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        env = os.environ.get("STRCAT_SEED") or "0"
        try:
            args.seed = int(env)
        except ValueError:
            parser.exit(EXIT_USAGE, f"error: STRCAT_SEED={env!r} is not an integer\n")
    if args.family == "file" and args.command == "classify":
        parser.error("classify needs a built-in family")
    if args.family == "file" and args.verify:
        parser.error("--verify needs a built-in family")
    try:
        algebra, result = run_command(args, parser)
        problems = run_verification(args, algebra, result.reports) if args.verify else []
    except StrcatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_COMPUTE
    if problems:
        sys.stderr.write("\n".join(problems) + "\n")
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
