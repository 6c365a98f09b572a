"""Verification sweep: closed forms cross-checked against oracles over a range of n.

Each check category is a function of a per-n context that builds the
shared artifacts (essential graph, AIG, distances, row grouping, dim
formula) on first use; the dim oracle's BFS rows run only outside its
witnesses.  Each graph keeps the class partition that listed its
vertices; the dim certificate, the join reference and the Zagreb report
read the essential graph's, so each n's vertices are listed once per
graph, with one class quotient per listing.  Both partitions hold blocks
of vertex indices, so the class law is compared with the distance-similar
row grouping, an oracle, directly.
A category returns (passed, detail) pairs; run_verify tallies them per
category and keeps every failure.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat, starmap, zip_longest
from operator import eq, mod, mul, not_

from .arithmetic import (
    FactoredInteger,
    factor_range,
    factor_window,
    no_composite_in,
    require_int,
)
from .errors import InconsistencyError, InputError
from .graph import (
    _bits,
    all_pairs_distances,
    bfs_row,
    build_aig,
    build_essential_graph,
    build_join_construction,
    check_divisor_conjugate_iso,
    check_field_product_iso,
    distance_similar_partition,
)
from .ideals import essential_generators, gcd_lemma_holds, is_essential
from .metricdim import (
    DEFAULT_SEARCH_BUDGET,
    constructive_resolving_set,
    dim_bruteforce,
    dim_formula,
    dim_lower_bound,
    finiteness_bound_check,
    is_resolving,
    require_budget,
)
from .zagreb import compute_zagreb_report, squarefree_level_degree, squarefree_within_level_sum

VERIFY_JSON_SCHEMA = {
    "type": "object",
    "required": ["start", "end", "checks", "categories", "failures", "passed"],
    "properties": {
        "start": {"type": "integer"},
        "end": {"type": "integer"},
        "checks": {"type": "array", "items": {"type": "string"}},
        "categories": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["run", "passed", "failed"],
                "properties": {
                    "run": {"type": "integer"},
                    "passed": {"type": "integer"},
                    "failed": {"type": "integer"},
                },
            },
        },
        "failures": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["n", "category", "detail"],
                "properties": {
                    "n": {"type": "integer"},
                    "category": {"type": "string"},
                    "detail": {"type": "string"},
                },
            },
        },
        "passed": {"type": "boolean"},
    },
}


# A range ending above this is factored one n at a time (factor_window), so
# its cost follows the window, not end. Up to it, factor_range walks [2, end]
# over a table of at most 129 cells (about 0.1 ms, as much as factoring 50 n);
# it stays because perfbench/test_perfbench.py pins `verify 90 90` to one
# factor_range call over 91 cells.
SIEVE_LIMIT = 128


class _BfsRows(dict):
    """A graph's BFS rows keyed by source vertex, each run on first read."""

    def __init__(self, g):
        self.g = g

    def __missing__(self, s: int) -> list[int]:
        row = self[s] = bfs_row(self.g, s)
        return row


class _VerifyContext:
    """Lazily built per-n artifacts shared by the check categories."""

    def __init__(self, f: FactoredInteger, max_t: int | None, budget: int):
        self.f = f
        self.max_t = max_t
        self.budget = budget

    @cached_property
    def ess(self):
        return build_essential_graph(self.f, self.max_t)

    @cached_property
    def aig(self):
        return build_aig(self.f, self.max_t)

    @cached_property
    def distances(self):
        rows = self.__dict__.get("bfs_rows")  # the rows a dim oracle already ran
        if rows is None:
            return all_pairs_distances(self.ess)
        return [rows[s] for s in range(self.ess.order)]

    @cached_property
    def bfs_rows(self):  # the matrix if the distances category built it
        return self.__dict__["distances"] if "distances" in self.__dict__ else _BfsRows(self.ess)

    @cached_property
    def similar(self):
        return distance_similar_partition(self.ess)

    @cached_property
    def formula(self):
        return dim_formula(self.f)


def _rows_match(g, oracle_rows) -> bool:
    """Each built row, read as T bytes, equals its oracle row of T truths, diagonal cleared.

    Full rows, one at a time, so a self-loop or a one-sided edge shows too.
    """
    t = g.order
    for i, (row, want) in enumerate(zip(g.adjacency, oracle_rows)):
        want = bytearray(want)
        want[i] = 0
        if want != _bits(row).ljust(t, b"\0"):
            return False
    return True


def _check_adjacency(ctx: _VerifyContext):
    f = ctx.f
    ess = ctx.ess
    results = []
    t = ess.order
    n = f.n
    ds, masks = ess.classes.generators, ess.classes.masks
    essential = essential_generators(f)

    # <a> + <b> = <gcd(a, b)>; the unit ideal counts as essential
    sums = essential | {1}
    oracle = (map(sums.__contains__, map(math.gcd, repeat(d), ds)) for d in ds)
    results.append((_rows_match(ess, oracle), "essential adjacency vs ideal-sum oracle"))

    ok = essential == {v.d for v in ess.vertices if is_essential(v)}
    results.append((ok, "full-exponent mask vs ring-definition essentiality"))

    # <a><b> = <ab> is zero iff n divides ab; a single vertex builds no AIG
    oracle = (map(not_, map(mod, map(mul, repeat(d), ds), repeat(n))) for d in ds)
    ok = t < 2 or _rows_match(ctx.aig, oracle)
    results.append((ok, "annihilating adjacency vs integer divisibility"))

    part = ctx.ess.classes
    if part.m >= 1:  # m >= 1 only keeps the verify counts in perfbench/digests.json
        ok = all(ess.degrees[i] == t - 1 for i in part.members[0])
        results.append((ok, "essential vertices are universal"))
        # The universal vertices are exactly the closed twins of X, its block.
        universal = tuple(i for i in range(t) if ess.degrees[i] == t - 1)
        ok = universal == part.similarity_blocks()[0]
        results.append((ok, "universal vertices are X plus p^a for n = p^a*q"))
        ok = all(
            ess.degrees[i] == part.class_degree(mask)
            for mask, members in part.members.items()
            for i in members
        )
        results.append((ok, "class degree law"))
    if f.is_squarefree() and f.k >= 2:
        # Level i holds the vertices whose generator has i primes: popcount(xi_mask) = i.
        k = f.k
        levels = [a.bit_count() for a in masks]
        ok = Counter(levels) == Counter({i: math.comb(k, i) for i in range(1, k)}) and all(
            ess.degrees[j] == squarefree_level_degree(k, i) for j, i in enumerate(levels)
        )
        results.append((ok, "squarefree level degree law"))
    return results


_DIGIT_VALUES = bytes.maketrans(b"0123", bytes(range(4)))


def _rows_equal(a, b) -> bool:
    """a == b for two sequences of rows, read one pair at a time so neither is held whole."""
    return all(starmap(eq, zip_longest(a, b)))


def _check_distances(ctx: _VerifyContext):
    results = []
    try:
        dist = ctx.distances
    except InconsistencyError:
        return [(False, "essential graph is disconnected")]
    t = ctx.ess.order
    # Symmetric: the matrix equals its transpose.  The rows `eigraph
    # distances` prints, from the class law, must equal BFS; read digit by
    # digit, 0 on the diagonal and 1..3 off it, they bound every entry.
    ok = _rows_equal(dist, map(list, zip(*dist)))
    rows = ctx.ess.classes.distance_rows()
    ok = ok and _rows_equal((list(row.encode().translate(_DIGIT_VALUES)) for row in rows), dist)
    results.append((ok, "distance matrix symmetric with entries in 1..3"))
    if t >= 2:
        diam = max(max(row) for row in dist)
        results.append((diam <= 3, "diameter at most 3"))
        results.append(
            ((diam == 1) == ctx.ess.is_complete(), "diameter 1 iff complete")
        )
    if ctx.f.is_squarefree():
        masks = ctx.ess.classes.masks
        law = ctx.ess.classes.mask_distance
        ok = all(
            list(map(law, repeat(masks[i]), masks[i + 1 :])) == dist[i][i + 1 :]
            for i in range(t)
        )
        results.append((ok, "squarefree mask-distance law vs BFS"))
    return results


def _check_partition(ctx: _VerifyContext):
    f = ctx.f
    part = ctx.ess.classes
    results = []
    # the quotient against a product per mask; the partition checked its listing against it
    full = (1 << f.k) - 1
    want = [math.prod(m for i, m in enumerate(f.exponents) if not a >> i & 1) for a in range(full)]
    results.append((list(part.sizes) == [want[0] - 1, *want[1:], 0], "class partition sizes"))
    if part.m >= 1 and part.T >= 2:  # m >= 1 only keeps the verify counts in perfbench/digests.json
        same = sorted(part.similarity_blocks()) == list(ctx.similar.blocks)
        results.append((same, "distance-similar blocks match the class structure"))
        ok = all(_block_mutually_similar(ctx, block) for block in part.members.values())
        results.append((ok, "every class is internally distance-similar"))
    return results


def _block_mutually_similar(ctx: _VerifyContext, block) -> bool:
    rows = ctx.ess.adjacency
    for a_pos, i in enumerate(block):
        for j in block[a_pos + 1 :]:
            if (rows[i] ^ rows[j]) & ~((1 << i) | (1 << j)):
                return False
    return True


def _check_join(ctx: _VerifyContext):
    # The join is built over the graph's own vertex tuple, so rows are compared.
    join = build_join_construction(ctx.ess.classes)
    return [(join.adjacency == ctx.ess.adjacency, "join construction equals direct construction")]


def _resolves_on_bfs(ctx: _VerifyContext, report) -> bool:
    # The certificate and the search read the mask-distance law; BFS rows are the oracle.
    check = is_resolving(ctx.ess, report.witness, ctx.bfs_rows)
    return check.resolves and check.representations == report.representations


def _check_dim(ctx: _VerifyContext):
    f = ctx.f
    results = []
    formula = ctx.formula
    t = formula.T
    if t == 1:
        results.append((formula.dim_value == 0, "single-vertex dim is 0"))
        return results
    lower = dim_lower_bound(ctx.similar.blocks)
    results.append(
        (formula.lower_bound <= lower, "partition bound dominates class-count bound")
    )
    if formula.is_exact:
        results.append(
            (lower <= formula.dim_value <= t - 1, "dim within 1..T-1 bounds")
        )
        complete = ctx.ess.is_complete()
        shape = f.k == 1 or (f.k == 2 and f.is_squarefree())
        results.append(
            (
                (formula.dim_value == t - 1) == complete == shape,
                "dim = T-1 iff complete iff prime power or two primes",
            )
        )
    # Squarefree k <= 5 gets no certificate result, so verify's printed
    # counts stay as they were; the tests check it for every such n <= 10^4.
    if not (f.is_squarefree() and f.k <= 5):
        try:
            cons = constructive_resolving_set(ctx.ess.classes)  # raises if its size is off the law
            ok = _resolves_on_bfs(ctx, cons)
            results.append((ok, "constructive witness resolves with expected size"))
        except InconsistencyError as exc:
            results.append((False, f"constructive witness failed: {exc}"))
    brute = dim_bruteforce(ctx.ess, budget=ctx.budget)
    if brute.is_exact:
        ok = _resolves_on_bfs(ctx, brute)
        if formula.is_exact:
            ok = ok and brute.dim_value == formula.dim_value
            results.append((ok, "brute force equals formula"))
        else:
            ok = ok and brute.dim_value <= formula.dim_value
            results.append((ok, "brute force within upper bound"))
    return results


def _check_zagreb(ctx: _VerifyContext):
    f = ctx.f
    report = compute_zagreb_report(ctx.ess)
    results = [
        (report.m1_agrees, "M1 closed form equals definition"),
        (report.m2_agrees, "M2 closed form equals definition"),
        (
            (report.m2_definition == 0) == (ctx.ess.edge_count == 0),
            "M2 zero iff edgeless",
        ),
    ]
    if f.is_squarefree() and f.k >= 2:
        diff = report.m2_paper_convention - report.m2_closed
        results.append(
            (
                diff == squarefree_within_level_sum(f.k),
                "published-convention excess equals within-level sum",
            )
        )
    return results


def _check_iso(ctx: _VerifyContext):
    f = ctx.f
    results = []
    if f.k >= 2:
        conj = check_divisor_conjugate_iso(ctx.ess, ctx.aig)
        results.append(
            (
                conj.isomorphic == f.is_squarefree(),
                "divisor-conjugate isomorphism iff squarefree",
            )
        )
        if f.is_squarefree():
            model = check_field_product_iso(ctx.aig)
            results.append((model.edge_preserving, "field-product model embeds in AIG"))
    return results


def _check_bounds(ctx: _VerifyContext):
    f = ctx.f
    results = []
    if f.is_squarefree():
        # The vertices are the distinct nontrivial proper divisors: valid pairs.
        n = f.n
        divisors = ctx.ess.classes.generators
        ok = all(
            gcd_lemma_holds(n, d1, d2)
            for i, d1 in enumerate(divisors)
            for d2 in divisors[i + 1 :]
        )
        results.append((ok, "gcd biconditional for all divisor pairs"))
    formula = ctx.formula
    if formula.is_exact and formula.T >= 2:
        results.append(
            (
                finiteness_bound_check(formula.dim_value, formula.T),
                "vertex count within 3^dim + dim",
            )
        )
    return results


CHECKS = {
    "adjacency": _check_adjacency,
    "distances": _check_distances,
    "partition": _check_partition,
    "join": _check_join,
    "dim": _check_dim,
    "zagreb": _check_zagreb,
    "iso": _check_iso,
    "bounds": _check_bounds,
}
CHECK_CATEGORIES = tuple(CHECKS)


@dataclass
class VerifySummary:
    """Counts per check category plus the failing (n, category, detail) triples."""

    start: int
    end: int
    checks: tuple[str, ...]
    categories: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def record(self, n: int, category: str, results) -> None:
        run, passed = self.categories.get(category, (0, 0))
        for ok, detail in results:
            run += 1
            if ok:
                passed += 1
            else:
                self.failures.append({"n": n, "category": category, "detail": detail})
        self.categories[category] = (run, passed)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "checks": list(self.checks),
            "categories": {
                name: {"run": run, "passed": passed, "failed": run - passed}
                for name, (run, passed) in sorted(self.categories.items())
            },
            "failures": self.failures,
            "passed": self.passed,
        }

    def to_text(self) -> str:
        lines = [f"verify {self.start}..{self.end} checks={','.join(self.checks)}"]
        for name in self.checks:
            run, passed = self.categories.get(name, (0, 0))
            lines.append(f"{name}: run={run} passed={passed} failed={run - passed}")
        for failure in self.failures:
            lines.append(
                f"FAIL n={failure['n']} {failure['category']}: {failure['detail']}"
            )
        lines.append(f"result = {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def run_verify(
    start: int,
    end: int,
    checks=CHECK_CATEGORIES,
    budget: int = DEFAULT_SEARCH_BUDGET,
    max_t: int | None = None,
) -> VerifySummary:
    """Run the selected check categories over every composite n in [start, end].

    A range holding no composite n has nothing to check and is an input
    error, not a pass.
    """
    require_int("start", start)
    require_int("end", end)
    require_budget(budget)
    checks = tuple(checks)
    unknown = [name for name in checks if name not in CHECKS]
    if unknown:
        raise InputError(f"unknown checks {unknown}; valid: {', '.join(CHECK_CATEGORIES)}")
    if not checks or len(set(checks)) < len(checks):
        raise InputError(f"checks {list(checks)} must name at least one category, each once")
    if start > end:
        raise InputError(f"range start {start} exceeds end {end}")
    summary = VerifySummary(start, end, checks)
    numbers = factor_window(start, end) if end > SIEVE_LIMIT else factor_range(end)
    for f in numbers:
        n = f.n
        if n < start or f.is_prime():
            continue
        ctx = _VerifyContext(f, max_t, budget)
        for name in checks:
            summary.record(n, name, CHECKS[name](ctx))
    if not summary.categories:
        raise no_composite_in(start, end)
    return summary
