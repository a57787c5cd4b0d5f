"""Command-line front door.

Subcommands: ``algebra info``, ``strings``, ``hom``, ``ext``, ``syzygy``,
``arquiver``, ``classify``.  Output is a plain table by default and
machine-readable with ``--format json|csv|dot``.  Identical flags produce
byte-identical output; ``--seed`` is accepted but no answer depends on it.
A flag the algebra would ignore (``--m`` or ``--prime`` with ``--family
file``, ``--spec`` with a built-in family) is refused.
This is the one module that turns results into text: the others return
data, and each command here renders it in every format it has.

Exit codes: 0 success, 2 bad flags or input, refused before any
completion (the README's *Command line* section lists every case), 3
computation error, infinitely many strings among them, 4 verification
failure under ``--verify``.

``syzygy --n`` renders ``arquiver.syzygy_power``, which takes at most as
many syzygies as the algebra has strings, whatever n: a zero syzygy ends
the walk, and so does the first power isomorphic to the module, after
which n is taken mod that period.  ``strings`` checks the rules on every
string it lists (``strings.check_rules``), so it exits 3 when one of
them spells no module.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import asdict, dataclass

from . import arquiver, deformation, families, homology, strings
from .errors import BadParameter, StrcatError
from .quiver_core import (
    DEFAULT_PRIME,
    Algebra,
    build_family,
    indecomposable_projective,
    load_algebra_spec,
    require_prime,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3
EXIT_VERIFY = 4


def _prime(text: str) -> int:
    try:
        return require_prime(int(text))
    except ValueError as exc:  # not an integer, or BadPrime
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_least(low: int):
    """An argparse type: a decimal integer >= ``low``."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
        return int(text)
    return parse


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--family", choices=[*families.FAMILIES, "file"],
                        required=True)
    bounds = ", ".join(f"{f.name}: {f.m_min} <= m <= {f.m_max}"
                       for f in families.FAMILIES.values())
    parser.add_argument("--m", type=int, default=None,
                        help=f"family parameter ({bounds}; algebra dimension "
                             f"<= {families.MAX_DIM})")
    parser.add_argument("--prime", type=_prime, default=None,
                        help=f"a built-in family's prime (default {DEFAULT_PRIME})")
    parser.add_argument("--seed", type=_at_least(0), default=None,
                        help="an integer >= 0, accepted for compatibility; no "
                             "answer depends on it")
    parser.add_argument("--format", choices=["table", "json", "csv", "dot"],
                        default="table")
    parser.add_argument("--spec", default=None,
                        help="algebra spec JSON (with --family file)")
    parser.add_argument("--out", default=None, help="output path; default stdout")
    parser.add_argument("--verify", action="store_true",
                        help="re-check the classification table and AR shape; "
                             "exit 4 on disagreement")
    parser.add_argument("--string", action="store_true",
                        help="treat module arguments as raw string literals")


@functools.cache  # built on first use, not at import; main reuses it
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
    sy.add_argument("--n", type=_at_least(1), default=1)

    aq = sub.add_parser("arquiver", help="stable Auslander-Reiten quiver")
    _add_common(aq)

    cl = sub.add_parser("classify", help="deformation ring classification")
    _add_common(cl)
    return parser


def _build_algebra(args, parser) -> Algebra:
    if args.family == "file":
        if not args.spec:
            parser.error("--family file needs --spec")
        for flag, value in (("--m", args.m), ("--prime", args.prime)):
            if value is not None:
                parser.error(f"{flag} does not apply to --family file: the spec "
                             "fixes the algebra and its prime")
        try:
            return load_algebra_spec(args.spec)
        except (OSError, ValueError) as exc:  # BadParameter is a ValueError
            parser.exit(EXIT_USAGE, f"error: cannot read --spec {args.spec}: {exc!r}\n")
    if args.spec is not None:
        parser.error(f"--spec needs --family file, not --family {args.family}")
    if args.m is None:
        parser.error(f"--family {args.family} needs --m")
    try:
        return build_family(args.family, args.m,
                            DEFAULT_PRIME if args.prime is None else args.prime)
    except BadParameter as exc:  # raised before anything is built
        parser.error(f"--m: {exc}")


def _labeller(args, algebra):
    """A node's label: its family name, else (on a spec file) its literal."""
    names = {} if args.family == "file" else {
        w: n for n, w in strings.family_node_names(args.family, args.m, algebra.quiver)}
    return lambda w: names.get(w) or w.literal()


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


def cmd_algebra_info(args, algebra: Algebra) -> Result:
    projectives = {}
    for v in algebra.quiver.vertices:
        P = indecomposable_projective(algebra, v)
        series = homology.radical_series(P)
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
    words = strings.enumerate_strings(algebra)
    for w in words:
        strings.check_rules(algebra, w)
    label = _labeller(args, algebra)
    # every string of a built-in family is named, and none of a spec file
    rows = [["" if args.family == "file" else label(w), w.literal(), w.length,
             "(" + ",".join(map(str, strings.word_dim_vector(algebra.quiver, w))) + ")"]
            for w in words]
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
    """Omega^n of the module, named by its word (``arquiver.syzygy_power``),
    with the dimension vector read off that word."""
    w = _resolve_module(args, algebra, args.module)
    word = arquiver.syzygy_power(algebra, w, args.n)
    if word is None:
        dims, iso_name = (0,) * len(algebra.quiver.vertices), None
    else:
        dims = strings.word_dim_vector(algebra.quiver, word)
        iso_name = _labeller(args, algebra)(word)
    return Result({"module": args.module, "n": args.n, "dim_vector": list(dims),
                   "isomorphic_to": iso_name},
                  ["module", "n", "dim_vector", "isomorphic_to"],
                  [[args.module, args.n, "(" + ",".join(map(str, dims)) + ")",
                    iso_name or ""]],
                  f"Omega^{args.n}({args.module}) has dimension vector {dims}"
                  + (f", isomorphic to {iso_name}\n" if iso_name else "\n"))


def _dot_id(text: str) -> str:
    """A quoted DOT ID, with backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def cmd_arquiver(args, algebra: Algebra) -> Result:
    q = arquiver.build_ar_quiver(algebra)
    label = _labeller(args, algebra)
    labels = [label(w) for w in q.nodes]
    header = ["source", "target", "kind"]
    rows = sorted([labels[s], labels[t], kind] for s, t, kind in q.arrows)
    tau_rows = sorted([labels[i], labels[j]] for i, j in enumerate(q.tau))
    payload = {"nodes": sorted(labels), "arrows": rows, "tau": tau_rows}
    table = (_table(rows, header)
             + "tau: " + ", ".join(f"{a}->{b}" for a, b in tau_rows) + "\n")
    # nodes in node order; solid h/c arrows, dashed tau where it moves a node
    dot = ["digraph ar_quiver {", "  rankdir=BT;"]
    dot += [f"  {_dot_id(n)};" for n in labels]
    dot += [f'  {_dot_id(s)} -> {_dot_id(t)} [label="{kind[0]}"];'
            for s, t, kind in rows]
    dot += [f'  {_dot_id(s)} -> {_dot_id(t)} [style=dashed, label="tau"];'
            for s, t in tau_rows if s != t]
    return Result(payload, header, rows, table, "\n".join(dot + ["}"]) + "\n")


def cmd_classify(args, algebra: Algebra) -> Result:
    reports = deformation.classify(algebra, args.family, args.m)
    # the udr entry keeps the fields its kind has: none, exponent or reason
    payload = [{**asdict(r), "udr": {k: v for k, v in asdict(r.udr).items()
                                     if v is not None}} for r in reports]
    header = ["module", "string", "stable_endo_dim", "ext1_dim",
              "udr_kind", "udr_exponent", "trail"]
    rows = [[r.module, r.string, r.stable_endo_dim, r.ext1_dim, r.udr.kind,
             "" if r.udr.exponent is None else r.udr.exponent, "; ".join(r.trail)]
            for r in reports]
    table = [[r.module, r.string, r.stable_endo_dim, r.ext1_dim, str(r.udr)]
             for r in reports]
    return Result(payload, header, rows,
                  _table(table, ["module", "string", "stable_endo", "ext1", "udr"]))


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


def run_command(args, parser) -> Algebra:
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
    return algebra


def run_verification(args, algebra: Algebra) -> list[str]:
    """Agreement checks behind --verify: string counts, the classification
    table, each reported module's counted stable End and Ext^1 against the
    linear systems of ``homology``, and the component shape.  Returns the
    list of problems.

    The enumeration, classification and AR quiver come from the algebra's
    memo when the command already computed them.
    """
    fam = families.get(args.family)
    problems: list[str] = []
    nodes = fam.node_count(args.m)
    words = strings.enumerate_strings(algebra)
    if len(words) != nodes:
        problems.append(f"string count {len(words)} != {nodes}")
    reports = deformation.classify(algebra, args.family, args.m)
    problems += deformation.verify_classification(reports, args.family, args.m)
    for r in reports:
        M = strings.string_module(algebra, strings.parse_string_literal(r.string, algebra.quiver))
        linear = homology.stable_hom_dim(M, M), homology.ext1_dim(M, M)
        if linear != (r.stable_endo_dim, r.ext1_dim):
            problems.append(f"{r.module}: counted stable End and Ext^1 "
                            f"{(r.stable_endo_dim, r.ext1_dim)} != linear {linear}")
    q = arquiver.build_ar_quiver(algebra)
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
                problems.append(f"translate is not an involution at {q.nodes[i]}")
    return problems


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.family == "file" and args.command == "classify":
        parser.error("classify needs a built-in family")
    if args.family == "file" and args.verify:
        parser.error("--verify needs a built-in family")
    try:
        algebra = run_command(args, parser)
        problems = run_verification(args, algebra) if args.verify else []
    except StrcatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_COMPUTE
    if problems:
        sys.stderr.write("\n".join(problems) + "\n")
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
