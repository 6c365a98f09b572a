"""Outside-in tracer for eigraph: spans around public functions of each layer.

The tracer lives in the benchmark, not in the library.  ``install`` replaces
every ``eigraph.*`` module attribute that is one of the target function
objects by a timing wrapper, so internal calls (``cli`` imports names into
its own namespace, ``metricdim`` calls ``graph``) are caught too;
``uninstall`` puts the originals back.  Per-pair helpers such as
``sum_is_essential_or_unit`` are not wrapped, so tracing stays cheap.

A span is ``[name, start_ns, end_ns, busy_ns, parent, call]``.  For a plain
function busy = end - start; ``factor_range`` is a generator, so each of its
resumptions is timed and busy is their sum.  Self time is busy minus the
busy time of the span's children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = {
    "arithmetic": ("factor", "factor_range"),
    "ideals": ("enumerate_vertices", "class_partition"),
    "graph": (
        "build_essential_graph",
        "build_join_construction",
        "build_aig",
        "all_pairs_distances",
        "distance_similar_partition",
        "check_divisor_conjugate_iso",
        "check_field_product_iso",
        "to_json_dict",
    ),
    "metricdim": ("dim_formula", "dim_bruteforce", "constructive_resolving_set", "is_resolving"),
    "zagreb": ("zagreb_by_definition", "compute_zagreb_report"),
    "cli": ("main", "run_verify"),
}
TARGETS = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)
GENERATORS = frozenset({"arithmetic.factor_range"})
COUNTERS = (
    "arithmetic.sieve_cells",
    "arithmetic.sieve_useful_ratio",
    "ideals.vertices",
    "graph.pairs_examined",
    "graph.bfs_sources",
    "graph.distance_matrices_per_graph",
    "metricdim.search_candidates",
    "metricdim.search_exact_share",
    "cli.output_bytes",
)


def _eigraph_modules():
    return [m for name, m in list(sys.modules.items()) if name == "eigraph" or name.startswith("eigraph.")]


def candidate_counts(block_sizes) -> list[int]:
    """counts[e] = sets dropping one vertex from each of e blocks (block-size products)."""
    coeffs = [1] + [0] * len(block_sizes)
    for size in block_sizes:
        for j in range(len(coeffs) - 2, -1, -1):
            coeffs[j + 1] += coeffs[j] * size
    return coeffs


def scanned_candidates(t: int, block_sizes, report) -> int:
    """Candidate sets of every size an exact search scanned before ``report``.

    Sizes run up from the report's lower bound; a size the budget refused
    (a non-exact report stops there) is not scanned.
    """
    if t <= 1:
        return 0
    counts = candidate_counts(block_sizes)
    total = 0
    for s in range(report.lower_bound, t):
        e = t - s
        if e > len(block_sizes):
            continue
        if s == report.dim_value and not report.is_exact:
            break
        total += counts[e]
        if s == report.dim_value:
            break
    return total


class Tracer:
    """Span recorder plus the layer counters derived from arguments and results."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.call = -1
        self.window = (0, -1)
        self.output_bytes = 0
        self._sieve_cells = 0
        self._yielded = 0
        self._useful = 0
        self._vertices = 0
        self._pairs = 0
        self._bfs_sources = 0
        self._bfs_calls = 0
        self._bfs_graphs: set = set()
        self._searches: list[tuple] = []
        self._observers = {
            "ideals.enumerate_vertices": self._on_vertices,
            "graph.build_essential_graph": self._on_pairwise_build,
            "graph.build_aig": self._on_pairwise_build,
            "graph.all_pairs_distances": self._on_distances,
            "metricdim.dim_bruteforce": self._on_search,
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        import eigraph.cli  # noqa: F401  (loads every layer module)

        modules = _eigraph_modules()
        for name in TARGETS:
            module_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"eigraph.{module_name}"], fn_name)
            wrapper = (self._wrap_generator if name in GENERATORS else self._wrap)(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def begin_call(self, index: int, window: tuple[int, int]) -> None:
        self.call = index
        self.window = window

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = self._observers.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, end - start, parent, self.call]
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            limit = args[0] if args else kwargs["limit"]
            lo, hi = self.window
            inner = fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            first = last = None
            busy = yielded = useful = 0
            try:
                while True:
                    stack.append(index)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    finally:
                        end = clock()
                        stack.pop()
                        busy += end - start
                        if first is None:
                            first = start
                        last = end
                    yielded += 1
                    if lo <= item.n <= hi:
                        useful += 1
                    yield item
            finally:
                inner.close()
                spans[index] = [name, first, last, busy, parent, self.call]
                self._sieve_cells += max(limit + 1, 0)
                self._yielded += yielded
                self._useful += useful

        traced.__wrapped__ = fn
        return traced

    # -- observers (run outside the callee's span) ---------------------------

    def _on_vertices(self, args, kwargs, result):
        self._vertices += len(result)

    def _on_pairwise_build(self, args, kwargs, result):
        t = result.order
        self._pairs += t * (t - 1) // 2

    def _on_distances(self, args, kwargs, result):
        g = args[0] if args else kwargs["g"]
        self._bfs_sources += g.order
        self._bfs_calls += 1
        n = g.factored.n if g.factored is not None else None
        self._bfs_graphs.add((self.call, n, g.kind))

    def _on_search(self, args, kwargs, result):
        g = args[0] if args else kwargs["g"]
        partition = args[1] if len(args) > 1 else kwargs.get("partition")
        self._searches.append((g, partition, result))

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (self seconds, calls) for every target, zero when never called."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[4] >= 0:
                child[span[4]] += span[3]
        total = defaultdict(int)
        calls = defaultdict(int)
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            total[span[0]] += span[3] - child[index]
            calls[span[0]] += 1
        return {name: (total[name] / 1e9, calls[name]) for name in TARGETS}

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric: self_s and calls per target plus the counters."""
        if self._patched:
            raise RuntimeError("uninstall the tracer before reading metrics")
        from eigraph.graph import distance_similar_partition

        out: dict[str, float] = {}
        for name, (seconds, calls) in self.self_times().items():
            out[f"{name}.self_s"] = seconds
            out[f"{name}.calls"] = calls
        candidates = 0
        exact = 0
        for g, partition, report in self._searches:
            blocks = (partition if partition is not None else distance_similar_partition(g)).blocks
            candidates += scanned_candidates(g.order, [len(b) for b in blocks], report)
            exact += bool(report.is_exact)
        out.update(
            {
                "arithmetic.sieve_cells": self._sieve_cells,
                "arithmetic.sieve_useful_ratio": _ratio(self._useful, self._yielded),
                "ideals.vertices": self._vertices,
                "graph.pairs_examined": self._pairs,
                "graph.bfs_sources": self._bfs_sources,
                "graph.distance_matrices_per_graph": _ratio(self._bfs_calls, len(self._bfs_graphs)),
                "metricdim.search_candidates": candidates,
                "metricdim.search_exact_share": _ratio(exact, len(self._searches)),
                "cli.output_bytes": self.output_bytes,
            }
        )
        return out


def _ratio(num: int, den: int) -> float:
    # A ratio with nothing to count (the layer never ran) reads 0.
    return num / den if den else 0.0
