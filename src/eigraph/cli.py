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
from dataclasses import replace

from . import __version__
from .arithmetic import divisor_count, factor, factor_window, no_composite_in
from .errors import InconsistencyError, InputError
from .graph import KIND_ESSENTIAL, build_aig, build_essential_graph, to_dot
from .ideals import class_mask_order, class_partition, mask_indices
from .metricdim import (
    DEFAULT_SEARCH_BUDGET,
    DimReport,
    constructive_resolving_set,
    dim_bruteforce,
    dim_formula,
)
from .verify import CHECK_CATEGORIES, run_verify
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


def _emit(chunks, path: str | None) -> None:
    """Write the chunks of one output, the last ending in its newline, to path or stdout.

    The file is opened only here, so a caller that factors and checks its
    input first leaves no file behind when that fails.
    """
    with nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8") as handle:
        handle.writelines(chunks)


def _json_open(fields: dict) -> str:
    """The JSON text of fields left open after its last field, for more to follow."""
    return json.dumps(fields, indent=2)[: -len("\n}")]


_VERTEX_JSON = (
    '{{\n      "d": {},\n      "exponents": [\n        {}\n      ],\n      "xi": {},'
    '\n      "essential": {},\n      "degree": {}\n    }}'
)


def _graph_json(g):
    """json.dumps(to_json_dict(g), indent=2) and a newline, a chunk per vertex and edge row."""
    f, part = g.factored, g.classes
    yield _json_open({"n": f.n, "kind": g.kind, "factors": [[p, m] for p, m in f.factors]})
    xi = {
        mask: json.dumps(mask_indices(mask), indent=2).replace("\n", "\n      ")
        for mask in set(part.masks)
    }
    sep = ',\n  "vertices": [\n    '
    columns = zip(part.generators, part.exponent_vectors, part.masks, g.degrees)
    for d, exps, mask, degree in columns:
        exponents = ",\n        ".join(map(str, exps))
        essential = "false" if mask else "true"
        yield sep + _VERTEX_JSON.format(d, exponents, xi[mask], essential, degree)
        sep = ",\n    "
    sep = '\n  ],\n  "edges": [\n    '
    for i, above in enumerate(g.neighbours_above(list(map(str, range(g.order))))):
        head = f"[\n      {i},\n      "
        row = f"\n    ],\n    {head}".join(above)
        if row:
            yield f"{sep}{head}{row}\n    ]"
            sep = ",\n    "
    yield "\n  ]\n}\n" if g.edge_count else '\n  ],\n  "edges": []\n}\n'


def _distances_json(part):
    """The text of the distance matrix's JSON payload and a newline: a chunk per row."""
    vertices = list(part.generators)
    yield _json_open({"n": part.modulus.n, "kind": KIND_ESSENTIAL, "vertices": vertices})
    sep = ',\n  "distances": [\n    [\n      '
    for row in part.distance_rows(",\n      "):
        yield sep + row
        sep = "\n    ],\n    [\n      "
    yield "\n    ]\n  ]\n}\n"


def _distances_text(part):
    """The distance table, a row per vertex, and its diameter: the largest entry written."""
    labels = list(map(str, part.generators))
    yield "d " + " ".join(labels)
    top = "0"
    for label, row in zip(labels, part.distance_rows(" ")):
        top = max(top, next(digit for digit in "3210" if digit in row))
        yield f"\n{label} {row}"
    yield f"\ndiameter = {top}\n"


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
        _emit([json.dumps(payload, indent=2), "\n"], args.output)
    else:
        lines = [
            f"n = {f.n}",
            f"factors = {f.format_factorization()}",
            f"k = {f.k}",
            f"divisor_count = {divisor_count(f)}",
        ]
        _emit(["\n".join(lines), "\n"], args.output)
    return EXIT_OK


def cmd_graph(args) -> int:
    f = factor(args.n)
    # looked up at call time, so a patched module attribute is the one called
    g = (build_aig if args.command == "aig" else build_essential_graph)(f, args.max_t)
    if args.format == "dot":
        _emit(to_dot(g), args.output)
        return EXIT_OK
    if args.format == "json":
        _emit(_graph_json(g), args.output)
        return EXIT_OK
    q = g.classes
    sizes = " ".join(f"{_mask_label(mask)}:{q.sizes[mask]}" for mask in class_mask_order(f.k))
    lines = [
        f"n = {f.n}",
        f"kind = {g.kind}",
        f"factors = {f.format_factorization()}",
        f"k = {f.k}",
        f"T = {g.order}",
        f"m = {q.m}",
        f"classes = {sizes}" if sizes else "classes =",
        f"edges = {g.edge_count}",
    ]
    _emit(["\n".join(lines), "\n"], args.output)
    return EXIT_OK


def cmd_classes(args) -> int:
    f = factor(args.n)
    part = class_partition(f, args.max_t)
    ds = part.generators
    if args.format == "json":
        payload = {
            "n": f.n,
            "factors": [[p, m] for p, m in f.factors],
            "k": f.k,
            "T": part.T,
            "m": part.m,
            "essential": [ds[i] for i in part.members[0]],
            "classes": [
                {
                    "xi": list(mask_indices(mask)),
                    "size": part.sizes[mask],
                    "members": [ds[i] for i in part.members[mask]],
                }
                for mask in class_mask_order(f.k)
            ],
        }
        _emit([json.dumps(payload, indent=2), "\n"], args.output)
        return EXIT_OK
    lines = [
        f"n = {f.n}",
        f"T = {part.T}",
        f"m = {part.m}",
        "X = " + " ".join(str(ds[i]) for i in part.members[0]),
    ]
    for mask in class_mask_order(f.k):
        members = " ".join(str(ds[i]) for i in part.members[mask])
        lines.append(f"X_{_mask_label(mask)} = {members}")
    _emit(["\n".join(lines), "\n"], args.output)
    return EXIT_OK


def cmd_distances(args) -> int:
    f = factor(args.n)
    part = class_partition(f, args.max_t)
    _emit((_distances_json if args.format == "json" else _distances_text)(part), args.output)
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


def _dim_json(report: DimReport):
    """The text of json.dumps(report.to_json_dict(), indent=2) and a newline.

    The witness is one chunk and each representation another; a report
    with no representation to list is small and is dumped whole.
    """
    if not report.representations:
        yield json.dumps(report.to_json_dict(), indent=2) + "\n"
        return
    fields = replace(report, witness=None, representations=None).to_json_dict()
    del fields["witness"], fields["representations"]
    yield _json_open(fields)
    yield ',\n  "witness": [\n    ' + ",\n    ".join(map(str, report.witness)) + "\n  ]"
    sep = ',\n  "representations": {\n    '
    for key, text in report.representations.joined(",\n      "):
        yield f'{sep}"{key}": [\n      {text}\n    ]'
        sep = ",\n    "
    yield "\n  }\n}\n"


def cmd_dim(args) -> int:
    f = factor(args.n)
    if args.method == "formula":
        report = dim_formula(f)
    elif args.method == "brute":
        g = build_essential_graph(f, args.max_t)
        report = dim_bruteforce(g, budget=args.budget)
    else:
        report = constructive_resolving_set(class_partition(f, args.max_t))
    if args.format == "json":
        _emit(_dim_json(report), args.output)
    else:
        _emit([_dim_report_text(report), "\n"], args.output)
    return EXIT_OK


def cmd_zagreb(args) -> int:
    end = args.end if args.end is not None else args.n
    if end < args.n:
        raise InputError(f"range end {end} is below start {args.n}")
    if end == args.n:
        numbers = [factor(args.n)]  # a prime n is refused by the builder
    else:
        numbers = (f for f in factor_window(args.n, end) if not f.is_prime())
    reports = [compute_zagreb_report(build_essential_graph(f, args.max_t)) for f in numbers]
    if not reports:
        raise no_composite_in(args.n, end)
    if args.format == "csv":
        lines = [ZAGREB_CSV_HEADER] + [r.csv_row() for r in reports]
        _emit(["\n".join(lines), "\n"], args.output)
    elif args.format == "json":
        payload = [r.to_json_dict() for r in reports]
        _emit([json.dumps(payload[0] if end == args.n else payload, indent=2), "\n"], args.output)
    else:
        blocks = []
        for r in reports:
            d = r.to_json_dict()
            blocks.append("\n".join(f"{key} = {value}" for key, value in d.items()))
        _emit(["\n\n".join(blocks), "\n"], args.output)
    agree = all(r.m1_agrees and r.m2_agrees for r in reports)
    return EXIT_OK if agree else EXIT_INCONSISTENT


def cmd_verify(args) -> int:
    if args.checks == "all":
        checks = CHECK_CATEGORIES
    else:
        checks = tuple(name.strip() for name in args.checks.split(",") if name.strip())
    summary = run_verify(args.start, args.end, checks, args.budget, args.max_t)
    if args.format == "json":
        _emit([json.dumps(summary.to_json_dict(), indent=2), "\n"], args.output)
    else:
        _emit([summary.to_text(), "\n"], args.output)
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


def _n(p):
    p.add_argument("n", type=int)


def _dim_args(p):
    _n(p)
    p.add_argument(
        "--method",
        choices=("auto", "formula", "brute", "constructive"),
        default="auto",
        help="auto = constructive = the verified search-free certificate, for every n",
    )
    p.add_argument(
        "--budget", type=_budget, default=DEFAULT_SEARCH_BUDGET, help="--method brute only"
    )


def _zagreb_args(p):
    _n(p)
    p.add_argument("end", type=int, nargs="?", default=None, help="sweep up to this n")


def _verify_args(p):
    p.add_argument("start", type=int)
    p.add_argument("end", type=int)
    p.add_argument("--checks", default="all", help="all or comma-separated categories")
    p.add_argument("--budget", type=_budget, default=DEFAULT_SEARCH_BUDGET)


# Each subcommand in listing order: its help line, the arguments added
# before the common ones, its output formats and its defaults; some also
# have a description.
_COMMANDS = {
    "factor": ("factor n and count divisors", _n, ("text", "json"), {"func": cmd_factor}),
    "graph": (
        "build the essential ideal graph",
        _n,
        ("text", "json", "dot"),
        {"func": cmd_graph},
    ),
    "aig": (
        "build the annihilating ideal graph",
        _n,
        ("text", "json", "dot"),
        {"func": cmd_graph},
    ),
    "classes": (
        "vertex classes by full-exponent index set",
        _n,
        ("text", "json"),
        {"func": cmd_classes},
    ),
    "distances": (
        "all-pairs distances in the essential graph",
        _n,
        ("text", "json"),
        {"func": cmd_distances},
    ),
    "dim": (
        "metric dimension of the essential graph",
        _dim_args,
        ("text", "json"),
        {"func": cmd_dim},
    ),
    "zagreb": (
        "first and second Zagreb indices",
        _zagreb_args,
        ("text", "json", "csv"),
        {"func": cmd_zagreb},
    ),
    "verify": (
        "cross-check closed forms against oracles over a range of n",
        _verify_args,
        ("text", "json"),
        {"func": cmd_verify},
    ),
}
_DESCRIPTIONS = {
    "zagreb": (
        "Computes both Zagreb indices by definition and closed form. CSV "
        "sweeps use the fixed column order " + ZAGREB_CSV_HEADER + "."
    ),
    "verify": "Categories: " + ", ".join(CHECK_CATEGORIES) + ".",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The eigraph parser, with every subcommand or only the one named.

    A subcommand's parser is the same either way, so for an argv that
    names one, the two parse alike and print the same help and errors.
    """
    parser = _Parser(prog="eigraph", description=__doc__)
    parser.add_argument("--version", action="version", version=f"eigraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if command is None else (command,):
        help_text, add_arguments, formats, defaults = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text, description=_DESCRIPTIONS.get(name))
        add_arguments(p)
        _add_common(p, formats)
        p.set_defaults(**defaults)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only top-level help and an unknown command list every subcommand.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
