"""Metric dimension of the essential ideal graph.

Three routes are provided and cross-checked: a closed-form case analysis
on the factorization shape, a search-free certificate for every
composite n (the minimal ideals for squarefree n, every class less its
top otherwise), and an exact search.  Both the certificate and the
search read one distance law: the distance between two vertices depends
only on their full-exponent masks (ClassPartition.mask_distance), and
ClassPartition.distance_layers gives every mask the positions at
distance 1 and at distance 3 as two bitsets, read off one subset-sum
transform.  The search rests on the twin argument: the vertices of a
distance-similar block are pairwise twins, a transposition of two twins
is a graph automorphism, so a resolving set keeps all but at most one
vertex of each block and whether it resolves depends only on which
blocks lose a vertex.  The search therefore walks choices of blocks, not
choices of members, depth first in lexicographic order.  Each kept block
top splits the classes of tops not yet told apart by its distance
layers, and a branch is cut when its classes need more picks than are
left: with distances at most D, one more pick splits a class into at
most D parts.  The problem stays exponential in the number of blocks.
The certificate builds no graph and lists no vertex: it takes a class
partition.  Both routes read their blocks from similarity_blocks(), the
distance-similar law for every composite n, and drop a block's top, its
largest vertex index; the row grouping distance_similar_partition, in the
same index format, is the oracle of that law.  One function checks
every witness the module hands out, on the partition: one column per
distinct witness mask, and the witness resolves iff the outside
vertices' pairs of layer bitsets are pairwise distinct, so it holds no
(T - dim) x dim table; the representations are read off each outside
mask's digit text when first used.  Neither route runs a BFS:
is_resolving on BFS rows is the oracle for both.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from math import comb
from operator import itemgetter

from .arithmetic import FactoredInteger, divisor_count, require_composite
from .errors import InconsistencyError, InputError
from .graph import KIND_ESSENTIAL, IdealGraph, bfs_row
from .ideals import ClassPartition, distance_digits

DEFAULT_SEARCH_BUDGET = 10_000_000

METHOD_FORMULA = "formula"
METHOD_BRUTE = "brute-force"
METHOD_CONSTRUCTIVE = "constructive"


@dataclass(frozen=True)
class DimReport:
    """Outcome of a metric dimension computation.

    is_exact is False only when the value is a bound: the squarefree k >= 6
    upper bound, or a search that ran out of budget (then dim_value is the
    proven lower bound and no witness is attached).  A single-vertex graph
    gets dim 0 and reads as degenerate.  representations maps each vertex
    outside the witness to its distances to the witness, read off per-mask
    digit text on first use.
    """

    n: int
    T: int
    dim_value: int
    is_exact: bool
    method: str
    lower_bound: int
    witness: tuple[int, ...] | None = None
    representations: Mapping | None = None

    @property
    def degenerate(self) -> bool:
        return self.T == 1

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "T": self.T,
            "dim": self.dim_value,
            "exact": self.is_exact,
            "method": self.method,
            "lower_bound": self.lower_bound,
            "witness": list(self.witness) if self.witness is not None else None,
            "representations": (
                {str(key): list(rep) for key, rep in self.representations.items()}
                if self.representations is not None
                else None
            ),
        }


DIM_JSON_SCHEMA = {
    "type": "object",
    "required": ["n", "T", "dim", "exact", "method", "lower_bound", "witness", "representations"],
    "properties": {
        "n": {"type": "integer"},
        "T": {"type": "integer"},
        "dim": {"type": "integer"},
        "exact": {"type": "boolean"},
        "method": {"type": "string"},
        "lower_bound": {"type": "integer"},
        "witness": {
            "type": ["array", "null"],
            "items": {"type": "integer"},
        },
        "representations": {
            "type": ["object", "null"],
            "additionalProperties": {"type": "array", "items": {"type": "integer"}},
        },
    },
}


@dataclass(frozen=True)
class ResolvingCheck:
    """Verdict of a resolving-set check, with the evidence either way."""

    resolves: bool
    representations: dict
    colliding_pair: tuple | None


def _witness_indices(g: IdealGraph, witness) -> list[int]:
    items = list(witness)
    if not items:
        raise InputError("a resolving set must be nonempty")
    indices = []
    seen = set()
    for w in items:
        idx = g.index_of(w)
        if idx in seen:
            raise InputError(f"duplicate vertex {w!r} in witness")
        seen.add(idx)
        indices.append(idx)
    return indices


def is_resolving(g: IdealGraph, witness, distances=None) -> ResolvingCheck:
    """Check that vertices outside the witness get pairwise distinct distance vectors.

    Only the rows of vertices outside the witness are read: `distances`
    needs distances[v] for those v alone, and without it each such row is
    one BFS.  The witness lists generators, and representations are keyed
    by generator and follow the witness order; on failure one colliding
    pair is reported.
    """
    w_idx = _witness_indices(g, witness)
    in_w = set(w_idx)
    reps: dict = {}
    first_with: dict[tuple, object] = {}
    collision = None
    for v in range(g.order):
        if v in in_w:
            continue
        key = g.vertices[v].d
        row = bfs_row(g, v) if distances is None else distances[v]
        rep = tuple(row[w] for w in w_idx)
        reps[key] = rep
        if collision is None:
            if rep in first_with:
                collision = (first_with[rep], key)
            else:
                first_with[rep] = key
    return ResolvingCheck(collision is None, reps, collision)


def dim_lower_bound(blocks) -> int:
    """Vertex count minus block count, floored at 1 for graphs of order >= 2.

    blocks is a sequence of distance-similar blocks of vertex indices.  Any
    resolving set keeps all but at most one vertex of each block, so this
    bounds the dimension from below.
    """
    t = sum(map(len, blocks))
    if t <= 1:
        return 0
    return max(t - len(blocks), 1)


def finiteness_bound_check(dim_value: int, t: int) -> bool:
    """Diameter-3 counting bound: at most 3^dim + dim vertices.

    A vertex outside a resolving set of size dim sees every witness at a
    distance in {1, 2, 3}, and no two such vertices share a vector.
    """
    return t <= 3**dim_value + dim_value


def dim_bruteforce(g: IdealGraph, *, budget: int = DEFAULT_SEARCH_BUDGET) -> DimReport:
    """Exact metric dimension by a pruned depth-first search over choices of blocks.

    Two vertices of a distance-similar block are twins, and swapping them
    is a graph automorphism, so whether a set resolves the graph depends
    only on which blocks lose a vertex, not on which member is dropped.  A
    resolving set keeps all but at most one vertex of each block, so every
    candidate keeps the fixed vertices (all but the largest index of each
    block) and a choice of the block tops.  Dropping the top is the
    lexicographically least of the equivalent choices, and with the fixed
    vertices held constant the candidates sort as their kept tops do.

    For r kept tops the search walks the choices of r tops depth first, in
    ascending position, which is the order of combinations(tops, r).  It
    carries the classes of tops not yet told apart as bitsets over top
    positions: at the root, the tops grouped by their distance layers over
    the fixed vertices' distinct masks; keeping a top splits every class
    by that top's three distance layers over the tops and removes the top.
    A choice resolves iff no class keeps two members.  With D the diameter
    bound of the mask-distance law (2 with an essential vertex, else 3) and
    `left` picks to go, a class of c tops keeps at most D^left unpicked
    members, so a node whose classes need more than `left` picks in all,
    the sum of max(0, c - D^left), is abandoned; the prune only drops
    subtrees with no resolving leaf.

    Sizes are scanned ascending from the block-count lower bound, so the
    first resolving choice is the lexicographically least minimum witness
    (by vertex index).  The budget counts choices of blocks, C(blocks, e)
    for e dropped blocks, charged before a size is scanned however much the
    prune skips; if it would be exceeded the search stops and reports the
    proven lower bound as a non-exact value.  Only the essential graph has
    the mask-distance law: any other graph raises InputError.
    """
    if g.kind != KIND_ESSENTIAL:
        raise InputError(f"the exact search needs the essential graph, not the {g.kind} graph")
    n = g.factored.n
    t = g.order
    if t == 1:
        return DimReport(n, 1, 0, True, METHOD_BRUTE, 0)
    part, verts = g.classes, g.vertices
    blocks = part.similarity_blocks()
    tops = sorted(max(b) for b in blocks)
    fixed = sorted(set(range(t)).difference(tops))
    top_masks = [verts[v].xi_mask for v in tops]
    near, far = part.distance_layers(list(dict.fromkeys(verts[i].xi_mask for i in fixed)))
    groups: dict[tuple, int] = {}
    for pos, a in enumerate(top_masks):
        groups[near[a], far[a]] = groups.get((near[a], far[a]), 0) | 1 << pos
    roots = [c for c in groups.values() if c & (c - 1)]
    reach = 2 if part.m else 3
    # layers[pos]: the tops at distance 1, 2 and 3 from the top at pos
    near, far = part.distance_layers(top_masks)
    everyone = (1 << len(tops)) - 1
    layers = []
    for pos, a in enumerate(top_masks):
        others = everyone ^ 1 << pos
        layers.append((near[a] & others, others & ~(near[a] | far[a]), far[a] & others))

    def scan(classes: list[int], first: int, left: int) -> list[int] | None:
        cap = reach**left
        if sum(max(c.bit_count() - cap, 0) for c in classes) > left:
            return None
        if left == 0:
            return []
        for pos in range(first, len(tops) - left + 1):
            parts = [p for c in classes for bits in layers[pos] if (p := c & bits) & (p - 1)]
            found = scan(parts, pos + 1, left - 1)
            if found is not None:
                return [pos] + found
        return None

    lower = dim_lower_bound(blocks)
    spent = 0
    for s in range(lower, t):
        r = s - len(fixed)
        cost = comb(len(tops), r)
        if spent + cost > budget:
            return DimReport(n, t, s, False, METHOD_BRUTE, lower)
        spent += cost
        kept = scan(roots, 0, r)
        if kept is not None:
            w_idx = sorted(fixed + [tops[pos] for pos in kept])
            witness = tuple(verts[i].d for i in w_idx)
            reps = _checked_representations(part, w_idx)
            return DimReport(n, t, s, True, METHOD_BRUTE, lower, witness, reps)
    raise InconsistencyError(f"no resolving set found for n = {n}")  # unreachable


def dim_formula(f: FactoredInteger) -> DimReport:
    """Closed-form metric dimension from the factorization shape.

    Prime powers and products of two primes give T - 1 (complete graph);
    squarefree n gives k - 1 for k <= 4, exactly 5 for k = 5, and only the
    upper bound k for k >= 6; otherwise the value is T - (2^k - 1) when at
    least two exponents exceed 1 and T - (2^k - 2) when exactly one does.
    """
    require_composite(f)
    t = divisor_count(f) - 2
    k = f.k
    if t == 1:
        return DimReport(f.n, 1, 0, True, METHOD_FORMULA, 0)
    if k == 1:
        return DimReport(f.n, t, t - 1, True, METHOD_FORMULA, t - 1)
    if f.is_squarefree():
        if k == 2:
            return DimReport(f.n, t, t - 1, True, METHOD_FORMULA, 1)
        if k <= 4:
            return DimReport(f.n, t, k - 1, True, METHOD_FORMULA, 1)
        if k == 5:
            return DimReport(f.n, t, 5, True, METHOD_FORMULA, 1)
        return DimReport(f.n, t, k, False, METHOD_FORMULA, 1)
    heavy = sum(1 for m in f.exponents if m > 1)
    lower = max(t - (2**k - 1), 1)
    if heavy >= 2:
        return DimReport(f.n, t, t - (2**k - 1), True, METHOD_FORMULA, lower)
    return DimReport(f.n, t, t - (2**k - 2), True, METHOD_FORMULA, lower)


def _witness_rule(f: FactoredInteger, part: ClassPartition) -> list[int]:
    # Vertex indices.  Squarefree n: the minimal ideals <n/p_i>, each alone
    # in the class of every prime but p_i, less the largest <n/p_1> for k <= 4.
    # Otherwise every class drops its top, its largest index: the vertices
    # ascend by generator, so the top has exponent m_i on the class mask and
    # m_i - 1 elsewhere.  When exactly one exponent exceeds 1 the dropped
    # singleton <p^m> is appended back at the end.
    if f.is_squarefree():
        full = (1 << f.k) - 1
        minimal = sorted(part.members[full ^ (1 << i)][0] for i in range(f.k))
        return minimal[:-1] if f.k <= 4 else minimal
    witness = [i for block in part.members.values() for i in block[:-1]]
    heavy = [i for i, m in enumerate(f.exponents) if m > 1]
    if f.k >= 2 and len(heavy) == 1:
        witness.append(part.members[1 << heavy[0]][-1])
    return witness


class _Representations(Mapping):
    """A certificate's representations, read off per-mask digit text on first use.

    keys and masks list the vertices outside the witness; digits(a) is the
    text of mask a's distances to the witness, a digit per witness vertex
    in witness order, made once per distinct mask.  Text `dim` reads none,
    and the JSON writer reads only the text, so neither builds the
    (T - dim) x dim table of tuples.
    """

    def __init__(self, keys: list[int], masks: list[int], digits):
        self._keys = keys
        self._masks = masks
        self._digits = digits

    @cached_property
    def _text(self) -> dict[int, str]:
        return {a: self._digits(a) for a in dict.fromkeys(self._masks)}

    @cached_property
    def _table(self) -> dict:
        decoded = {a: tuple(map(int, text)) for a, text in self._text.items()}
        return dict(zip(self._keys, map(decoded.__getitem__, self._masks)))

    def joined(self, sep: str):
        """Yield (key, the representation's digits joined by sep) in key order."""
        texts = {a: sep.join(text) for a, text in self._text.items()}
        return zip(self._keys, map(texts.__getitem__, self._masks))

    def __getitem__(self, key):
        return self._table[key]

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __eq__(self, other) -> bool:
        return self._table == other

    def __repr__(self) -> str:
        return repr(self._table)


def _checked_representations(part: ClassPartition, w_idx: list[int]) -> _Representations:
    """The representations of the vertices outside a witness, checked on the partition.

    w_idx lists the witness's vertex indices.  A vertex's distance to a
    witness depends only on the two masks (ClassPartition.mask_distance),
    so the witness has one column per distinct witness mask, and
    ClassPartition.distance_layers gives each mask a its code, the columns
    at distance 1 and at distance 3.  The witness resolves iff the vertices
    outside it have pairwise distinct codes: no class keeps two of them,
    and no two of their masks share a code.  Otherwise InconsistencyError
    is raised.  The representations are read off each outside mask's code
    when first used.
    """
    verts = part.vertices
    w_masks = [verts[i].xi_mask for i in w_idx]
    columns = list(dict.fromkeys(w_masks))
    near, far = part.distance_layers(columns)
    outside = sorted(set(range(part.T)).difference(w_idx))
    # two outside members of one class share their mask, and so their code
    o_masks = [verts[i].xi_mask for i in outside]
    if len(outside) != len({(near[a], far[a]) for a in o_masks}):
        raise InconsistencyError(f"constructed witness for n = {part.modulus.n} does not resolve")

    # picks each witness vertex's column digit; for a one-vertex witness it
    # gives that digit itself, which "".join leaves as it is
    column = {b: j for j, b in enumerate(columns)}
    by_witness = itemgetter(*map(column.__getitem__, w_masks))

    def digits(a: int) -> str:
        return "".join(by_witness(distance_digits(near[a], far[a], len(columns))))

    return _Representations([verts[i].d for i in outside], o_masks, digits)


def constructive_resolving_set(part: ClassPartition) -> DimReport:
    """Resolving set prescribed by the shape of n, with no search and no graph.

    The witness comes from the class partition (see _witness_rule) and is
    checked there by _checked_representations.  The report is exact iff
    the closed form is, and then the witness size must equal it.
    """
    f, verts, t = part.modulus, part.vertices, part.T
    if t == 1:
        return DimReport(f.n, 1, 0, True, METHOD_CONSTRUCTIVE, 0)
    w_idx = _witness_rule(f, part)
    reps = _checked_representations(part, w_idx)
    lower = dim_lower_bound(part.similarity_blocks())
    witness = tuple(verts[i].d for i in w_idx)
    expected = dim_formula(f)
    if expected.is_exact and len(witness) != expected.dim_value:
        raise InconsistencyError(
            f"constructed witness for n = {f.n} has size {len(witness)}, "
            f"closed form gives {expected.dim_value}"
        )
    return DimReport(
        f.n, t, len(witness), expected.is_exact, METHOD_CONSTRUCTIVE, lower, witness, reps
    )
