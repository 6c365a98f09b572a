"""Command-line front end.

Subcommands: factor, graph, classes, distances, dim, zagreb, aig, verify.
All output is deterministic for a fixed invocation; the vertex cap can be
overridden with --max-t or the EIG_MAX_T environment variable.

Exit codes: 0 success, 1 invalid input, 2 verification or internal
inconsistency, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from itertools import chain, repeat

from . import __version__
from .arithmetic import divisor_count, factor, factor_window
from .errors import InconsistencyError, InputError
from .graph import (
    all_pairs_distances,
    build_aig,
    build_essential_graph,
    to_dot,
    to_json_dict,
)
from .ideals import class_partition, enumerate_vertices, mask_indices
from .metricdim import (
    DEFAULT_SEARCH_BUDGET,
    DimReport,
    constructive_resolving_set,
    dim_bruteforce,
    dim_formula,
)
from .verify import CHECK_CATEGORIES, VERIFY_JSON_SCHEMA, run_verify  # noqa: F401
from .zagreb import ZAGREB_CSV_HEADER, compute_zagreb_report

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONSISTENT = 2
EXIT_IO = 3

CLASSES_JSON_SCHEMA = {
    "type": "object",
    "required": ["n", "factors", "k", "T", "m", "essential", "classes"],
    "properties": {
        "n": {"type": "integer"},
        "factors": {"type": "array"},
        "k": {"type": "integer"},
        "T": {"type": "integer"},
        "m": {"type": "integer"},
        "essential": {"type": "array", "items": {"type": "integer"}},
        "classes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["xi", "size", "members"],
                "properties": {
                    "xi": {"type": "array", "items": {"type": "integer"}},
                    "size": {"type": "integer"},
                    "members": {"type": "array", "items": {"type": "integer"}},
                },
            },
        },
    },
}

DISTANCES_JSON_SCHEMA = {
    "type": "object",
    "required": ["n", "kind", "vertices", "distances"],
    "properties": {
        "n": {"type": "integer"},
        "kind": {"type": "string"},
        "vertices": {"type": "array", "items": {"type": "integer"}},
        "distances": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
    },
}

class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them to exit 1 instead.
    def error(self, message):
        raise InputError(message)


def _mask_label(mask: int) -> str:
    return "{" + ",".join(map(str, mask_indices(mask))) + "}"


def _emit(text: str, path: str | None) -> None:
    with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")


def _json_text(payload) -> str:
    """Exactly the text of json.dumps(payload, indent=2), written faster.

    With indent set, json uses its pure-Python encoder.  Here a list of plain
    ints (bool excluded) is one str join, and a list of non-empty plain-int
    lists (a distance matrix, an edge list) one join per row; everything
    else recurses, with each scalar and each dict key through json.dumps.
    """

    def emit(value, pad: str) -> str:
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(value, dict):
            if not value:
                return "{}"
            body = sep.join(
                json.dumps(key if isinstance(key, str) else json.dumps(key))
                + ": "
                + emit(item, inner)
                for key, item in value.items()
            )
            return "{\n" + inner + body + "\n" + pad + "}"
        if not isinstance(value, (list, tuple)):
            return json.dumps(value)
        if not value:
            return "[]"
        types = set(map(type, value))
        if types == {int}:
            body = sep.join(map(str, value))
        elif types == {list} and all(value) and set(map(type, chain.from_iterable(value))) == {int}:
            head, tail = "[\n" + inner + "  ", "\n" + inner + "]"
            rows = map((",\n" + inner + "  ").join, map(map, repeat(str), value))
            body = head + (tail + sep + head).join(rows) + tail
        else:
            body = sep.join(emit(item, inner) for item in value)
        return "[\n" + inner + body + "\n" + pad + "]"

    return emit(payload, "")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_factor(args) -> int:
    f = factor(args.n)
    if args.format == "json":
        payload = {
            "n": f.n,
            "factors": [[p, m] for p, m in f.factors],
            "k": f.k,
            "divisor_count": divisor_count(f),
        }
        _emit(_json_text(payload), args.output)
    else:
        lines = [
            f"n = {f.n}",
            f"factors = {f.format_factorization()}",
            f"k = {f.k}",
            f"divisor_count = {divisor_count(f)}",
        ]
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_graph(args) -> int:
    f = factor(args.n)
    g = args.build(f, args.max_t)
    if args.format == "dot":
        _emit(to_dot(g), args.output)
        return EXIT_OK
    if args.format == "json":
        _emit(_json_text(to_json_dict(g)), args.output)
        return EXIT_OK
    part = g.classes
    sizes = " ".join(
        f"{_mask_label(mask)}:{part.class_size(mask)}" for mask in part.class_masks()
    )
    lines = [
        f"n = {f.n}",
        f"kind = {g.kind}",
        f"factors = {f.format_factorization()}",
        f"k = {f.k}",
        f"T = {g.order}",
        f"m = {part.m}",
        f"classes = {sizes}" if sizes else "classes =",
        f"edges = {g.edge_count}",
    ]
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_classes(args) -> int:
    f = factor(args.n)
    part = class_partition(f, enumerate_vertices(f, args.max_t))
    if args.format == "json":
        payload = {
            "n": f.n,
            "factors": [[p, m] for p, m in f.factors],
            "k": f.k,
            "T": part.T,
            "m": part.m,
            "essential": [v.d for v in part.essential_class],
            "classes": [
                {
                    "xi": list(mask_indices(mask)),
                    "size": part.class_size(mask),
                    "members": [v.d for v in part.classes[mask]],
                }
                for mask in part.class_masks()
            ],
        }
        _emit(_json_text(payload), args.output)
        return EXIT_OK
    lines = [
        f"n = {f.n}",
        f"T = {part.T}",
        f"m = {part.m}",
        "X = " + " ".join(str(v.d) for v in part.essential_class),
    ]
    for mask in part.class_masks():
        members = " ".join(str(v.d) for v in part.classes[mask])
        lines.append(f"X_{_mask_label(mask)} = {members}")
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_distances(args) -> int:
    f = factor(args.n)
    g = build_essential_graph(f, args.max_t)
    dist = all_pairs_distances(g)
    if args.format == "json":
        payload = {
            "n": f.n,
            "kind": g.kind,
            "vertices": [v.d for v in g.vertices],
            "distances": dist,
        }
        _emit(_json_text(payload), args.output)
        return EXIT_OK
    lines = ["d " + " ".join(str(v.d) for v in g.vertices)]
    for i, v in enumerate(g.vertices):
        lines.append(f"{v.d} " + " ".join(str(x) for x in dist[i]))
    lines.append(f"diameter = {max(max(row) for row in dist)}")
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def _dim_report_text(report: DimReport) -> str:
    lines = [
        f"n = {report.n}",
        f"T = {report.T}",
        f"dim = {report.dim_value}",
        f"exact = {'true' if report.is_exact else 'false'}",
        f"method = {report.method}",
        f"lower_bound = {report.lower_bound}",
    ]
    if report.witness is not None:
        lines.append("witness = " + " ".join(str(d) for d in report.witness))
    return "\n".join(lines)


def cmd_dim(args) -> int:
    f = factor(args.n)
    if args.method == "formula":
        report = dim_formula(f)
    elif args.method == "brute":
        g = build_essential_graph(f, args.max_t)
        report = dim_bruteforce(g, budget=args.budget)
    else:
        report = constructive_resolving_set(f, max_t=args.max_t)
    if args.format == "json":
        _emit(_json_text(report.to_json_dict()), args.output)
    else:
        _emit(_dim_report_text(report), args.output)
    return EXIT_OK


def cmd_zagreb(args) -> int:
    end = args.end if args.end is not None else args.n
    if end < args.n:
        raise InputError(f"range end {end} is below start {args.n}")
    reports = []
    if end == args.n:
        reports.append(compute_zagreb_report(factor(args.n), max_t=args.max_t))
    else:
        for f in factor_window(args.n, end):
            if f.is_prime():
                continue
            reports.append(compute_zagreb_report(f, max_t=args.max_t))
    if args.format == "csv":
        lines = [ZAGREB_CSV_HEADER] + [r.csv_row() for r in reports]
        _emit("\n".join(lines), args.output)
    elif args.format == "json":
        payload = [r.to_json_dict() for r in reports]
        _emit(_json_text(payload[0] if end == args.n else payload), args.output)
    else:
        blocks = []
        for r in reports:
            d = r.to_json_dict()
            blocks.append("\n".join(f"{key} = {value}" for key, value in d.items()))
        _emit("\n\n".join(blocks), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.checks == "all":
        checks = CHECK_CATEGORIES
    else:
        checks = tuple(name.strip() for name in args.checks.split(",") if name.strip())
    summary = run_verify(args.start, args.end, checks, args.budget, args.max_t)
    if args.format == "json":
        _emit(_json_text(summary.to_json_dict()), args.output)
    else:
        _emit(summary.to_text(), args.output)
    return EXIT_OK if summary.passed else EXIT_INCONSISTENT


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _budget(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be nonnegative, got {value}")
    return value


def _add_common(parser, formats):
    parser.add_argument("--format", choices=formats, default="text")
    parser.add_argument("--output", default=None, help="write to a file instead of stdout")
    parser.add_argument(
        "--max-t",
        type=int,
        default=None,
        help="vertex cap override (default 20000, or EIG_MAX_T)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eigraph", description=__doc__)
    parser.add_argument("--version", action="version", version=f"eigraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor n and count divisors")
    p.add_argument("n", type=int)
    _add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_factor)

    for name, build, help_text in (
        ("graph", build_essential_graph, "build the essential ideal graph"),
        ("aig", build_aig, "build the annihilating ideal graph"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("n", type=int)
        _add_common(p, ("text", "json", "dot"))
        p.set_defaults(func=cmd_graph, build=build)

    p = sub.add_parser("classes", help="vertex classes by full-exponent index set")
    p.add_argument("n", type=int)
    _add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("distances", help="all-pairs distances in the essential graph")
    p.add_argument("n", type=int)
    _add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("dim", help="metric dimension of the essential graph")
    p.add_argument("n", type=int)
    p.add_argument(
        "--method",
        choices=("auto", "formula", "brute", "constructive"),
        default="auto",
        help="auto = constructive = the verified search-free certificate, for every n",
    )
    p.add_argument(
        "--budget", type=_budget, default=DEFAULT_SEARCH_BUDGET, help="--method brute only"
    )
    _add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser(
        "zagreb",
        help="first and second Zagreb indices",
        description=(
            "Computes both Zagreb indices by definition and closed form. CSV "
            "sweeps use the fixed column order " + ZAGREB_CSV_HEADER + "."
        ),
    )
    p.add_argument("n", type=int)
    p.add_argument("end", type=int, nargs="?", default=None, help="sweep up to this n")
    _add_common(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_zagreb)

    p = sub.add_parser(
        "verify",
        help="cross-check closed forms against oracles over a range of n",
        description="Categories: " + ", ".join(CHECK_CATEGORIES) + ".",
    )
    p.add_argument("start", type=int)
    p.add_argument("end", type=int)
    p.add_argument("--checks", default="all", help="all or comma-separated categories")
    p.add_argument("--budget", type=_budget, default=DEFAULT_SEARCH_BUDGET)
    _add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InconsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
