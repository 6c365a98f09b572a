"""Time each layer of eigraph on its own at fixed sizes and write a BENCH JSON file.

Run from the repository root:

    python3 tools/bench_layers.py --out BENCH_39.json
    python3 tools/bench_layers.py --sizes 34 --out t34.json
    python3 tools/bench_layers.py --compare BENCH_OLD.json BENCH_NEW.json

A cell is one layer at one input: a library call timed on its own, with
what it reads built untimed before each repeat, so no cached result carries
over from one repeat to the next.  The inputs are four fixed n, one per
vertex count T = 34, 358, 2878 and 11518, and the window 200000..200049
(the first `far-window` slot of perfbench), on which `factor_range(END)`
with the n below START skipped, as `verify` once read it, is timed against
`factor_window(START, END)`.  `factor_range` now yields `factor(n)` for
every n in [2, END], so that cell times `factor` over [2, END]; it is kept
because its digest still equals the `factor_window` cell's.  `partition.columns` is the listing every
command reads, the generator, mask and exponent columns;
`partition.vertices` is that listing and its `Ideal` view.  The graph
builds list the vertices themselves, so their time includes the listing.
The `bfs_row` cell runs BFS from the first BFS_SOURCES vertices (all of
them at T = 34), one row at a time, as `verify`'s distance oracle reads
them.

Per cell the file records the minimum and median of REPEATS repeats
(`time.perf_counter_ns`, in ms), the peak RSS of a fresh child process that
builds the cell's input and runs the layer once (`os.wait4`), and a SHA-256
of the result.  The children run before any cell is timed: a child started with
`posix_spawn` inherits its parent's peak RSS, so the parent stays small
while they run.  The child's digest must equal the one timed in process.

`--compare A B` matches the cells of two files by layer and input and
prints both medians, their ratio and both peaks.  A cell whose results
differ is reported and not compared, and the command then exits 1.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from eigraph import (  # noqa: E402
    ClassPartition,
    ClassQuotient,
    bfs_row,
    build_aig,
    build_essential_graph,
    build_join_construction,
    class_partition,
    constructive_resolving_set,
    dim_bruteforce,
    distance_similar_partition,
    factor,
    factor_range,
    factor_window,
    zagreb_by_definition,
    zagreb_general_closed,
)

FORMAT = "eigraph-bench-layers/1"
# T -> the fixed n with that many vertices
SIZES = {34: 1260, 358: 1321091265351, 2878: 24443218800, 11518: 113193752752080}
WINDOW = (200000, 200049)
REPEATS = 11
BFS_SOURCES = 64
SIZE_NAMES = [*map(str, SIZES), "window"]


def _capped(n):
    """factor(n) and a vertex cap of exactly its T, whatever EIG_MAX_T says."""
    f = factor(n)
    return f, ClassQuotient(f).T


def _listed(n):
    return class_partition(*_capped(n))


def _grouped(n):
    part = _listed(n)
    part.members
    return part


def _graph(n):
    return build_essential_graph(*_capped(n))


def _range_window(bounds):
    start, end = bounds
    return [f for f in factor_range(end) if f.n >= start]


def _bfs_rows(g):
    return (bfs_row(g, s) for s in range(min(BFS_SOURCES, g.order)))


def _consume(rows) -> None:
    deque(rows, maxlen=0)


def _text(value):
    return [repr(value)]


def _factored(fs):
    return [repr([(f.n, f.factors) for f in fs])]


def _rows(g):
    yield g.kind
    yield from (format(row, "x") for row in g.adjacency)  # one row's text at a time


def _report(r):
    return _text((r.n, r.T, r.dim_value, r.is_exact, r.method, r.lower_bound, r.witness))


# name -> (setup(*args) -> arg, built untimed; run(arg) -> result, timed;
#          chunks(arg, result) -> the text the digest is taken over)
LAYERS = {
    "factor": (int, factor, lambda n, f: _factored([f])),
    "quotient.sizes": (
        lambda n: ClassQuotient(factor(n)),
        lambda q: q.sizes,
        lambda q, sizes: _text(sizes),
    ),
    "partition.columns": (
        lambda n: ClassPartition(factor(n)),
        lambda part: part.columns,
        lambda part, columns: (f"{d} {a} {e}" for d, a, e in zip(*columns)),
    ),
    "partition.vertices": (
        lambda n: ClassPartition(factor(n)),
        lambda part: part.vertices,
        lambda part, verts: (f"{v.d} {v.xi_mask}" for v in verts),
    ),
    "partition.members": (_listed, lambda part: part.members, lambda part, m: _text(m)),
    "build_essential_graph": (
        _capped,
        lambda capped: build_essential_graph(*capped),
        lambda capped, g: _rows(g),
    ),
    "build_join_construction": (_grouped, build_join_construction, lambda part, g: _rows(g)),
    "build_aig": (_capped, lambda capped: build_aig(*capped), lambda capped, g: _rows(g)),
    "distance_rows": (
        _listed,
        lambda part: _consume(part.distance_rows()),
        lambda part, _: part.distance_rows(),
    ),
    "bfs_row": (
        _graph,
        lambda g: _consume(_bfs_rows(g)),
        lambda g, _: ("".join(map(str, row)) for row in _bfs_rows(g)),
    ),
    "distance_similar_partition": (_graph, distance_similar_partition, lambda g, p: _text(p.blocks)),
    "zagreb_general_closed": (
        lambda n: ClassQuotient(factor(n)),
        zagreb_general_closed,
        lambda q, m: _text(m),
    ),
    "zagreb_by_definition": (_graph, zagreb_by_definition, lambda g, m: _text(m)),
    "constructive_resolving_set": (_listed, constructive_resolving_set, lambda p, r: _report(r)),
    "dim_bruteforce": (_graph, dim_bruteforce, lambda g, r: _report(r)),
}
WINDOW_LAYERS = {
    "factor_range": (lambda *bounds: bounds, _range_window, lambda b, fs: _factored(fs)),
    "factor_window": (
        lambda *bounds: bounds,
        lambda bounds: list(factor_window(*bounds)),
        lambda b, fs: _factored(fs),
    ),
}

_NUMBER = {"type": "number", "minimum": 0}
CELL_SCHEMA = {
    "type": "object",
    "required": [
        "layer", "args", "T", "repeats", "min_ms", "median_ms",
        "peak_rss_mb", "digest",
    ],
    "additionalProperties": False,
    "properties": {
        "layer": {"enum": [*LAYERS, *WINDOW_LAYERS]},
        "args": {"type": "array", "items": {"type": "integer"}, "minItems": 1, "maxItems": 2},
        "T": {"type": ["integer", "null"]},
        "repeats": {"type": "integer", "minimum": 1},
        "min_ms": _NUMBER,
        "median_ms": _NUMBER,
        "peak_rss_mb": _NUMBER,
        "digest": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
    },
}
SCHEMA = {
    "type": "object",
    "required": ["format", "header", "cells"],
    "properties": {
        "format": {"const": FORMAT},
        "header": {
            "type": "object",
            "required": ["python", "implementation", "machine", "cpu_count", "commit", "created"],
        },
        "cells": {"type": "array", "items": CELL_SCHEMA},
    },
}


def _cells(sizes):
    """(layer, args, T) for every cell of the named sizes, in file order."""
    for name in sizes:
        if name == "window":
            yield from ((layer, list(WINDOW), None) for layer in WINDOW_LAYERS)
        else:
            t = int(name)
            yield from ((layer, [SIZES[t]], t) for layer in LAYERS)


def _spec(layer, args):
    """(setup() -> arg, run, chunks) of one cell."""
    setup, run, chunks = LAYERS.get(layer) or WINDOW_LAYERS[layer]
    return (lambda: setup(*args)), run, chunks


def _digest(chunks) -> str:
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(chunk.encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _peak_mb(kib: int) -> float:
    return round(kib / 1024, 2)  # ru_maxrss is in KiB on Linux


def run_child(layer, args) -> None:
    """Build one cell's input, run its layer once, and print its digest."""
    setup, run, chunks = _spec(layer, args)
    arg = setup()
    print(_digest(chunks(arg, run(arg))))


def measure_child(layer, args) -> dict:
    """Run one cell in a fresh child; its own peak RSS comes from os.wait4."""
    argv = [sys.executable, __file__, "--child", layer, *map(str, args)]
    read, write = os.pipe()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, write, 1)])
    os.close(write)
    with os.fdopen(read) as out:
        text = out.read()
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status):
        raise SystemExit(f"{layer} {args}: child exited {os.waitstatus_to_exitcode(status)}")
    return {"digest": text.strip(), "peak_rss_mb": _peak_mb(usage.ru_maxrss)}


def time_cell(layer, args) -> dict:
    setup, run, chunks = _spec(layer, args)
    times = []
    for _ in range(REPEATS):
        arg = setup()
        gc.collect()
        start = time.perf_counter_ns()
        result = run(arg)
        times.append(time.perf_counter_ns() - start)
    return {
        "min_ms": round(min(times) / 1e6, 4),
        "median_ms": round(statistics.median(times) / 1e6, 4),
        "digest": _digest(chunks(arg, result)),
    }


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def measure(sizes) -> dict:
    for t in SIZES:
        if str(t) in sizes and ClassQuotient(factor(SIZES[t])).T != t:
            raise SystemExit(f"n = {SIZES[t]} does not have T = {t}")
    cells = list(_cells(sizes))
    # every child first, while this process holds no graph
    children = [measure_child(layer, args) for layer, args, _ in cells]
    rows = []
    for (layer, args, t), child in zip(cells, children):
        timed = time_cell(layer, args)
        if timed["digest"] != child["digest"]:
            raise SystemExit(f"{layer} {args}: the child's result differs from the timed one")
        rows.append(
            {"layer": layer, "args": args, "T": t, "repeats": REPEATS, **timed,
             "peak_rss_mb": child["peak_rss_mb"]}
        )
        print(f"{layer:28} {'T = ' + str(t) if t else '..'.join(map(str, args)):>16}"
              f" median {timed['median_ms']:10.3f} ms  peak {child['peak_rss_mb']:6.1f} MB",
              file=sys.stderr)
    header = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }
    return {"format": FORMAT, "header": header, "cells": rows}


def compare(path_a, path_b) -> int:
    """Print both medians per shared cell; 1 if any shared cell's result differs."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for name, doc in (("A", a), ("B", b)):
        h = doc["header"]
        print(f"{name}: Python {h['python']}, {h['cpu_count']} CPUs, commit {h['commit']}, {h['created']}")
    cells_b = {(c["layer"], tuple(c["args"])): c for c in b["cells"]}
    differs = 0
    print(f"{'layer':28} {'input':>16} {'A median ms':>12} {'B median ms':>12} {'B/A':>6} {'peak MB A -> B':>16}")
    for ca in a["cells"]:
        cb = cells_b.get((ca["layer"], tuple(ca["args"])))
        if cb is None:
            continue
        label = f"T = {ca['T']}" if ca["T"] else "..".join(map(str, ca["args"]))
        if ca["digest"] != cb["digest"]:
            differs += 1
            print(f"{ca['layer']:28} {label:>16}  result differs, not compared")
            continue
        ratio = cb["median_ms"] / ca["median_ms"] if ca["median_ms"] else float("nan")
        print(
            f"{ca['layer']:28} {label:>16} {ca['median_ms']:12.3f} {cb['median_ms']:12.3f}"
            f" {ratio:6.2f} {ca['peak_rss_mb']:7.1f} -> {cb['peak_rss_mb']:6.1f}"
        )
    return 1 if differs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", nargs="+", choices=SIZE_NAMES, default=SIZE_NAMES)
    parser.add_argument("--out", help="write the JSON here (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        layer, *numbers = args.child
        run_child(layer, [int(x) for x in numbers])
        return 0
    if args.compare:
        return compare(*args.compare)
    text = json.dumps(measure(args.sizes), indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
