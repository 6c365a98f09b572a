"""Graph construction and structural analysis.

Builds the essential ideal graph and the annihilating ideal graph of Z_n
over the canonical (ascending generator) vertex order.  Every graph is a
graph of the ideals of one factored n, each vertex keyed by its
generator d.  The essential graph of a product of k fields is that of
the k-th primorial 2 * 3 * ... * p_k, read through xi_mask (the zero
slots of each ideal).  Adjacency lives in bitset rows (one Python int per
vertex), which makes neighborhood comparisons and BFS frontiers cheap at
desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from .arithmetic import FactoredInteger
from .errors import InconsistencyError, InputError
from .ideals import ClassPartition, class_partition, disjoint_sets, enumerate_vertices

KIND_ESSENTIAL = "essential"
KIND_ANNIHILATING = "annihilating"

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True)
class IdealGraph:
    """Immutable graph on the ideals of one n, with bitset adjacency rows."""

    kind: str
    factored: FactoredInteger
    vertices: tuple
    adjacency: tuple[int, ...]
    degrees: tuple[int, ...]

    @cached_property
    def _index(self) -> dict:
        return {v.d: i for i, v in enumerate(self.vertices)}

    @cached_property
    def distance_similar(self) -> DistanceSimilarPartition:
        """This graph's distance-similar partition, computed on first use."""
        return distance_similar_partition(self)

    @cached_property
    def classes(self) -> ClassPartition:
        """This graph's class partition by full-exponent mask, computed on first use."""
        return class_partition(self.factored, self.vertices)

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i] >> j & 1)

    def index_of(self, key) -> int:
        index = self._index.get(key) if type(key) is int else None
        if index is None:
            raise InputError(f"no vertex with key {key!r} in this graph")
        return index

    def neighbours_above(self, labels):
        """For each row i, an iterator over labels[j] for its neighbours j > i, ascending.

        One compress per row: the row's bits above the diagonal, lowest
        first, as the bytes 0 and 1 select from labels.
        """
        for i, row in enumerate(self.adjacency):
            above = row >> (i + 1) << (i + 1)
            yield compress(labels, bin(above)[:1:-1].encode().translate(_BIT_BYTES))

    def edges(self):
        """Yield edges as index pairs (i, j) with i < j."""
        for i, above in enumerate(self.neighbours_above(range(self.order))):
            for j in above:
                yield (i, j)

    def is_complete(self) -> bool:
        t = self.order
        return all(d == t - 1 for d in self.degrees)


def _finish(kind, factored, vertices, rows) -> IdealGraph:
    degrees = tuple(r.bit_count() for r in rows)
    return IdealGraph(kind, factored, tuple(vertices), tuple(rows), degrees)


def _disjoint_mask_rows(masks: list[int], k: int) -> list[int]:
    """Bitset rows of the graph on `masks` in which i ~ j iff the masks are disjoint."""
    near = disjoint_sets(masks, k)
    return [near[mask] & ~(1 << i) for i, mask in enumerate(masks)]


def build_essential_graph(f: FactoredInteger, max_t: int | None = None) -> IdealGraph:
    """Essential ideal graph: vertices adjacent iff their full-exponent masks are disjoint."""
    verts = enumerate_vertices(f, max_t)
    rows = _disjoint_mask_rows([v.xi_mask for v in verts], f.k)
    return _finish(KIND_ESSENTIAL, f, verts, rows)


def build_aig(f: FactoredInteger, max_t: int | None = None) -> IdealGraph:
    """Annihilating ideal graph: vertices adjacent iff their product is the zero ideal.

    at_least[i][r] is the bitset of vertices whose i-th exponent is at least
    r; vertex j with exponents r_i is adjacent to the AND over i of
    at_least[i][m_i - r_i], itself excluded.
    """
    verts = enumerate_vertices(f, max_t)
    at_least = []
    for i, m in enumerate(f.exponents):
        sets = [0] * (m + 1)
        for j, v in enumerate(verts):
            sets[v.exponents[i]] |= 1 << j
        for r in range(m - 1, -1, -1):
            sets[r] |= sets[r + 1]
        at_least.append(sets)
    rows = []
    for j, v in enumerate(verts):
        row = ~(1 << j)
        for sets, m, r in zip(at_least, f.exponents, v.exponents):
            row &= sets[m - r]
        rows.append(row)
    return _finish(KIND_ANNIHILATING, f, verts, rows)


def build_join_construction(f: FactoredInteger, max_t: int | None = None) -> IdealGraph:
    """Rebuild the essential ideal graph as a join of class blocks.

    The essential class X is a complete graph joined to every vertex; each
    class is an empty graph on its members, joined to X and to every class
    whose index mask is disjoint from its own.  Must agree with
    build_essential_graph edge for edge; with no essential vertices X is
    empty and the construction is the plain generalized join.
    """
    verts = enumerate_vertices(f, max_t)
    part = class_partition(f, verts)
    class_bits = {mask: sum(1 << i for i in block) for mask, block in part.members.items()}
    x_bits = class_bits.pop(0)
    joined = {0: (1 << len(verts)) - 1}
    for a in class_bits:
        joined[a] = x_bits
        for b, b_bits in class_bits.items():
            if not a & b:
                joined[a] |= b_bits
    rows = [joined[v.xi_mask] & ~(1 << i) for i, v in enumerate(verts)]
    return _finish(KIND_ESSENTIAL, f, verts, rows)


def bfs_row(g: IdealGraph, s: int) -> list[int]:
    """Distances from vertex s by bitset BFS; raises if the graph is disconnected."""
    t = g.order
    dist = [-1] * t
    dist[s] = 0
    seen = 1 << s
    frontier = 1 << s
    d = 0
    while frontier:
        nxt = 0
        rest = frontier
        while rest:
            b = rest & -rest
            rest ^= b
            nxt |= g.adjacency[b.bit_length() - 1]
        nxt &= ~seen
        d += 1
        seen |= nxt
        frontier = nxt
        rest = nxt
        while rest:
            b = rest & -rest
            rest ^= b
            dist[b.bit_length() - 1] = d
    if seen != (1 << t) - 1:
        raise InconsistencyError(
            f"graph on {t} vertices is disconnected (source index {s})"
        )
    return dist


def all_pairs_distances(g: IdealGraph) -> list[list[int]]:
    """Distance matrix, one BFS from every source; raises if the graph is disconnected."""
    return [bfs_row(g, s) for s in range(g.order)]


@dataclass(frozen=True)
class DistanceSimilarPartition:
    """Blocks of mutually distance-similar vertices (by index)."""

    blocks: tuple[tuple[int, ...], ...]


def distance_similar_partition(g: IdealGraph) -> DistanceSimilarPartition:
    """Group vertices that share open (non-adjacent) or closed (adjacent) neighborhoods.

    Twinhood is an equivalence whose classes are cliques or independent sets
    (Hernando, Mora, Pelayo, Seara and Wood, Electron. J. Combin. 17 (2010)
    R30), so no vertex has both an open and a closed twin and the groups of
    equal rows and of equal closed rows never need merging.
    """
    open_groups: dict[int, list[int]] = {}
    closed_groups: dict[int, list[int]] = {}
    for i, row in enumerate(g.adjacency):
        open_groups.setdefault(row, []).append(i)
        closed_groups.setdefault(row | (1 << i), []).append(i)
    blocks = [b for b in open_groups.values() if len(b) > 1]
    for b in closed_groups.values():
        if len(b) > 1 or len(open_groups[g.adjacency[b[0]]]) == 1:
            blocks.append(b)
    return DistanceSimilarPartition(tuple(map(tuple, sorted(blocks))))


@dataclass(frozen=True)
class ConjugateCheck:
    """Result of testing d -> n/d as a map from the essential graph to the AIG."""

    isomorphic: bool
    mapping: dict[int, int]
    essential_edges: int
    aig_edges: int
    failing_pair: tuple[int, int] | None


def _first_row_mismatch(rows, want) -> tuple[int, int] | None:
    """First (i, j) with j the lowest bit where rows[i] and want[i] differ.

    On symmetric rows with empty diagonals this is the first pair i < j of a
    pair-by-pair comparison, since a difference below i shows in an earlier row.
    """
    for i, (row, other) in enumerate(zip(rows, want)):
        if row != other:
            diff = row ^ other
            return i, (diff & -diff).bit_length() - 1
    return None


def check_divisor_conjugate_iso(ess: IdealGraph, aig: IdealGraph) -> ConjugateCheck:
    """Evaluate whether d -> n/d carries essential-graph edges onto AIG edges.

    Takes the built essential graph and AIG of one n.  Expected to be an
    isomorphism exactly for squarefree n with k >= 2; for other n the map
    is still evaluated and the verdict reported.
    """
    kinds = (ess.kind, aig.kind)
    if kinds != (KIND_ESSENTIAL, KIND_ANNIHILATING) or ess.factored.n != aig.factored.n:
        raise InputError("need the essential graph and the AIG of one n, in that order")
    n = ess.factored.n
    mapping = {v.d: n // v.d for v in ess.vertices}
    # Both builders list the divisors ascending, so d -> n/d sends index i to
    # T - 1 - i and the image of an essential row is the bit-reversed AIG row
    # of its conjugate.  The rows are reversed lazily, up to the first mismatch.
    width = f"0{ess.order}b"
    reversed_rows = (int(format(row, width)[::-1], 2) for row in reversed(aig.adjacency))
    pair = _first_row_mismatch(ess.adjacency, reversed_rows)
    failing = None if pair is None else tuple(ess.vertices[i].d for i in pair)
    return ConjugateCheck(failing is None, mapping, ess.edge_count, aig.edge_count, failing)


@dataclass(frozen=True)
class FieldModelCheck:
    """Result of embedding the field-product model into the AIG of squarefree n."""

    edge_preserving: bool
    mapping: dict[int, int]
    failing_pair: tuple[int, int] | None


def check_field_product_iso(aig: IdealGraph) -> FieldModelCheck:
    """Map each zero-slot set to the product of the remaining primes and compare edges.

    Takes the built AIG of a squarefree n with at least two prime factors.
    """
    if aig.kind != KIND_ANNIHILATING:
        raise InputError("need the annihilating ideal graph")
    f = aig.factored
    if not f.is_squarefree():
        raise InputError(f"n = {f.n} is not squarefree")
    if f.k < 2:
        raise InputError("need at least two prime factors")
    # psi sends zero slots S to the product of the primes outside S, so the
    # AIG vertex d is the image of the primes not dividing d: ~xi_mask.
    full = (1 << f.k) - 1
    masks = [full ^ v.xi_mask for v in aig.vertices]
    mapping = dict(sorted(zip(masks, (v.d for v in aig.vertices))))
    pair = _first_row_mismatch(_disjoint_mask_rows(masks, f.k), aig.adjacency)
    failing = None if pair is None else tuple(masks[i] for i in pair)
    return FieldModelCheck(failing is None, mapping, failing)


GRAPH_JSON_SCHEMA = {
    "type": "object",
    "required": ["n", "kind", "factors", "vertices", "edges"],
    "properties": {
        "n": {"type": "integer"},
        "kind": {"type": "string"},
        "factors": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "vertices": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["d", "exponents", "xi", "essential", "degree"],
                "properties": {
                    "d": {"type": "integer"},
                    "exponents": {"type": "array", "items": {"type": "integer"}},
                    "xi": {"type": "array", "items": {"type": "integer"}},
                    "essential": {"type": "boolean"},
                    "degree": {"type": "integer"},
                },
            },
        },
        "edges": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "integer"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
    },
}


def to_json_dict(g: IdealGraph) -> dict:
    """JSON-ready description of an ideal graph."""
    return {
        "n": g.factored.n,
        "kind": g.kind,
        "factors": [[p, m] for p, m in g.factored.factors],
        "vertices": [
            {
                "d": v.d,
                "exponents": list(v.exponents),
                "xi": list(v.xi_indices),
                "essential": v.xi_mask == 0,
                "degree": g.degrees[i],
            }
            for i, v in enumerate(g.vertices)
        ],
        "edges": [[i, j] for i, j in g.edges()],
    }


def to_dot(g: IdealGraph):
    """Yield the DOT text line by line, one node per vertex labeled by its generator."""
    f = g.factored
    yield f"graph {g.kind}_{f.n} {{\n"
    yield f'  comment = "n = {f.n} = {f.format_factorization()}";\n'
    for i, v in enumerate(g.vertices):
        yield f'  v{i} [label="{v.d}"];\n'
    for i, above in enumerate(g.neighbours_above(list(map(str, range(g.order))))):
        row = f";\n  v{i} -- v".join(above)
        if row:
            yield f"  v{i} -- v{row};\n"
    yield "}\n"
