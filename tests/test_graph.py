import json
import math

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigraph import (
    InconsistencyError,
    InputError,
    all_pairs_distances,
    bfs_row,
    build_aig,
    build_essential_graph,
    build_join_construction,
    check_divisor_conjugate_iso,
    check_field_product_iso,
    class_partition,
    distance_similar_partition,
    enumerate_vertices,
    factor,
    sum_is_essential_or_unit,
    to_dot,
    to_json_dict,
)
from eigraph import graph as graph_module
from eigraph.cli import main
from eigraph.graph import GRAPH_JSON_SCHEMA, KIND_ANNIHILATING, IdealGraph

from conftest import K12_K13, LARGE_T, composites, conjugate_check, primorial_graph

composite_n = st.integers(min_value=4, max_value=3000).filter(
    lambda n: not factor(n).is_prime()
)


def edge_generators(g: IdealGraph):
    return {(g.vertices[i].d, g.vertices[j].d) for i, j in g.edges()}


def test_essential_graph_examples():
    g12 = build_essential_graph(factor(12))
    assert edge_generators(g12) == {(2, 3), (2, 4), (2, 6), (3, 4), (4, 6)}

    g30 = build_essential_graph(factor(30))
    want = {
        (a, b)
        for a in (2, 3, 5, 6, 10, 15)
        for b in (2, 3, 5, 6, 10, 15)
        if a < b and math.gcd(a, b) == 1
    }
    assert edge_generators(g30) == want
    assert g30.edge_count == 6

    g2700 = build_essential_graph(factor(2700))
    assert g2700.degrees[g2700.index_of(4)] == 23


def test_essential_adjacency_matches_sum_oracle(factored_100k):
    for f in composites(factored_100k, 4, 2000):
        g = build_essential_graph(f)
        for i in range(g.order):
            for j in range(i + 1, g.order):
                assert g.adjacent(i, j) == sum_is_essential_or_unit(
                    g.vertices[i], g.vertices[j]
                )


def test_aig_examples():
    assert edge_generators(build_aig(factor(12))) == {(2, 6), (3, 4), (4, 6)}
    assert edge_generators(build_aig(factor(30))) == {
        (2, 15),
        (3, 10),
        (5, 6),
        (6, 10),
        (6, 15),
        (10, 15),
    }
    g9 = build_aig(factor(9))
    assert g9.order == 1 and g9.edge_count == 0


def test_aig_matches_divisibility_oracle(factored_100k):
    for f in composites(factored_100k, 4, 1000):
        g = build_aig(f)
        n = f.n
        for i in range(g.order):
            for j in range(i + 1, g.order):
                assert g.adjacent(i, j) == (g.vertices[i].d * g.vertices[j].d % n == 0)


def _aig_rows_by_pairs(f):
    # The former production builder: test every vertex pair prime by prime.
    verts = enumerate_vertices(f)
    t = len(verts)
    full = f.exponents
    exps = [v.exponents for v in verts]
    rows = [0] * t
    for i in range(t):
        ei = exps[i]
        ri = rows[i]
        for j in range(i + 1, t):
            ej = exps[j]
            if all(a + b >= m for a, b, m in zip(ei, ej, full)):
                ri |= 1 << j
                rows[j] |= 1 << i
        rows[i] = ri
    return tuple(rows)


def test_aig_matches_pair_loop_reference(factored_100k):
    for f in composites(factored_100k, 4, 10_000):
        assert build_aig(f).adjacency == _aig_rows_by_pairs(f), f.n


def _edges_by_pairs(g: IdealGraph):
    return [(i, j) for i in range(g.order) for j in range(i + 1, g.order) if g.adjacent(i, j)]


def test_edge_walk_matches_pair_definition(factored_100k):
    for f in composites(factored_100k, 4, 3000):
        for g in (build_essential_graph(f), build_aig(f)):
            assert list(g.edges()) == _edges_by_pairs(g), (g.kind, f.n)
    for k in range(2, 11):
        g = primorial_graph(k)
        assert list(g.edges()) == _edges_by_pairs(g), k


def test_field_product_model():
    # the model on k slots is the essential graph of the k-th primorial
    g2 = primorial_graph(2)
    assert g2.order == 2 and g2.edge_count == 1
    g3 = primorial_graph(3)
    assert g3.order == 6 and g3.edge_count == 6
    with pytest.raises(InputError):
        primorial_graph(1)

    check = check_field_product_iso(build_aig(factor(30)))
    assert check.edge_preserving
    # psi sends the zero-slot set to the product of the remaining primes
    assert check.mapping[0b001] == 15
    assert check.mapping[0b110] == 2


def test_graph_keeps_its_class_partition(monkeypatch):
    calls = []
    original = graph_module.class_partition

    def counting(f, vertices):
        calls.append(f.n)
        return original(f, vertices)

    monkeypatch.setattr(graph_module, "class_partition", counting)
    for n in (12, 30, 360, 2700):
        f = factor(n)
        for g in (build_essential_graph(f), build_aig(f)):
            part = g.classes
            assert g.classes is part
            assert part.vertices is g.vertices and part.T == g.order
            assert part == original(f, list(g.vertices))
    assert calls == [12, 12, 30, 30, 360, 360, 2700, 2700]


def test_field_product_requires_squarefree():
    with pytest.raises(InputError):
        check_field_product_iso(build_aig(factor(12)))


def test_distances_examples():
    g30 = build_essential_graph(factor(30))
    dist = all_pairs_distances(g30)
    idx = {v.d: i for i, v in enumerate(g30.vertices)}
    assert dist[idx[2]][idx[3]] == 1
    assert dist[idx[2]][idx[6]] == 2
    assert dist[idx[6]][idx[10]] == 3
    assert all(dist[i][i] == 0 for i in range(g30.order))
    assert all(
        dist[i][j] == dist[j][i] for i in range(g30.order) for j in range(g30.order)
    )


def _law(n):
    """Distance by ClassPartition.mask_distance between two generators of n."""
    f = factor(n)
    verts = enumerate_vertices(f)
    part = class_partition(f, verts)
    masks = {v.d: v.xi_mask for v in verts}
    return lambda a, b: part.mask_distance(masks[a], masks[b])


def test_squarefree_distance_examples():
    # the mask law at m = 0 is the old squarefree closed form; n = 12 has m = 1
    d30 = _law(30)
    assert d30(2, 15) == 1
    assert d30(2, 6) == 2
    d210 = _law(210)
    assert d210(6, 35) == 1
    assert d210(30, 42) == 3
    d12 = _law(12)
    assert d12(3, 6) == 2
    assert d12(4, 3) == 1


def test_squarefree_distance_matches_bfs(factored_100k):
    # the mask law equals BFS on every pair of every composite n <= 10^4
    for f in composites(factored_100k, 4, 10_000):
        g = build_essential_graph(f)
        law = class_partition(f, list(g.vertices)).mask_distance
        masks = [v.xi_mask for v in g.vertices]
        for i in range(g.order):
            row = bfs_row(g, i)
            for j in range(g.order):
                if j != i:
                    assert law(masks[i], masks[j]) == row[j], (f.n, i, j)


def test_diameter_examples(capsys):
    for n, diameter in ((32, 1), (30, 3), (12, 2), (4, 0)):
        assert main(["distances", str(n)]) == 0
        assert capsys.readouterr().out.endswith(f"\ndiameter = {diameter}\n"), n


def test_distance_similar_is_computed_once(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return distance_similar_partition(g)

    monkeypatch.setattr(graph_module, "distance_similar_partition", counting)
    f = factor(2700)
    for g in (build_essential_graph(f), build_aig(f), primorial_graph(5)):
        calls.clear()
        first = g.distance_similar
        assert g.distance_similar is first
        assert len(calls) == 1 and calls[0] is g, g.kind
        assert first == distance_similar_partition(g), g.kind


def _distance_similar_oracle(g: IdealGraph):
    # direct from the definition: d(u, x) = d(v, x) for every other vertex x,
    # on BFS rows from every source
    dist = [bfs_row(g, s) for s in range(g.order)]
    t = g.order
    parent = list(range(t))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(t):
        for v in range(u + 1, t):
            if all(dist[u][x] == dist[v][x] for x in range(t) if x not in (u, v)):
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[max(ru, rv)] = min(ru, rv)
    blocks = {}
    for i in range(t):
        blocks.setdefault(find(i), []).append(i)
    return {tuple(sorted(b)) for b in blocks.values()}


def test_distance_similar_partition_n12_oracle_value():
    # The distance oracle shows <2> and <4> are similar (both universal),
    # so the partition has two blocks, finer spec prose notwithstanding.
    g = build_essential_graph(factor(12))
    blocks = {
        tuple(g.vertices[i].d for i in block)
        for block in distance_similar_partition(g).blocks
    }
    assert blocks == {(2, 4), (3, 6)}
    assert _distance_similar_oracle(g) == {
        tuple(sorted(b)) for b in distance_similar_partition(g).blocks
    }
    assert all(len(b) > 1 for b in distance_similar_partition(g).blocks)


def test_distance_similar_partition_examples():
    g2700 = build_essential_graph(factor(2700))
    part = distance_similar_partition(g2700)
    assert sorted(len(b) for b in part.blocks) == sorted([11, 6, 4, 6, 2, 3, 2])
    assert len(part.blocks) == 7

    g30 = build_essential_graph(factor(30))
    part30 = distance_similar_partition(g30)
    assert len(part30.blocks) == 6
    assert all(len(b) == 1 for b in part30.blocks)


def test_distance_similar_partition_matches_oracle(factored_100k):
    graphs = [
        build(f)
        for f in composites(factored_100k, 4, 400)
        for build in (build_essential_graph, build_aig)
    ]
    graphs += [primorial_graph(k) for k in range(2, 7)]
    for g in graphs:
        want = _distance_similar_oracle(g)
        assert want == set(distance_similar_partition(g).blocks), (g.kind, g.order)


def _assert_twin_blocks(g: IdealGraph):
    """The blocks are the classes of u ~ v iff N(u) - {v} == N(v) - {u}."""
    rows = g.adjacency
    blocks = distance_similar_partition(g).blocks

    def twins(i, j):
        return not (rows[i] ^ rows[j]) & ~(1 << i | 1 << j)

    assert sorted(i for b in blocks for i in b) == list(range(g.order))
    assert all(list(b) == sorted(b) for b in blocks)
    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
    for b in blocks:
        assert all(twins(i, j) for i in b for j in b if i < j)
        if len(b) > 1:
            inside = [rows[i] >> j & 1 for i in b for j in b if i < j]
            assert len(set(inside)) == 1
    tops = [b[0] for b in blocks]
    for a, i in enumerate(tops):
        assert not any(twins(i, j) for j in tops[a + 1 :])


def test_distance_similar_blocks_are_twin_classes(factored_100k):
    for f in composites(factored_100k, 4, 10_000):
        _assert_twin_blocks(build_essential_graph(f))
        _assert_twin_blocks(build_aig(f))
    for k in range(2, 11):
        _assert_twin_blocks(primorial_graph(k))
    for n in (1321091265351, 203903066266900):
        _assert_twin_blocks(build_essential_graph(factor(n)))
        _assert_twin_blocks(build_aig(factor(n)))


def _essential_graphs_of_every_shape(factored, hi):
    # every composite n <= hi, squarefree included, then the primorials for
    # k = 2..10 (T up to 1022) and both large-T n
    yield from map(build_essential_graph, composites(factored, 4, hi))
    yield from map(primorial_graph, range(2, 11))
    yield from map(build_essential_graph, map(factor, LARGE_T))


def test_distance_similar_blocks_vs_classes(factored_100k):
    # The row grouping is the oracle of the class law: the universal
    # vertices (X, the heavy singleton of n = p^a * q, both primes of
    # n = pq) form one block and every other class is a block.
    for g in _essential_graphs_of_every_shape(factored_100k, 2000):
        part = class_partition(g.factored, list(g.vertices))
        actual = list(distance_similar_partition(g).blocks)
        assert actual == sorted(part.similarity_blocks()), g.factored.n


def test_class_and_distance_similar_partitions_share_a_format(factored_100k):
    # Both partitions of one graph hold ascending tuples of vertex indices,
    # so the class law is compared block for block, without translation.
    for g in _essential_graphs_of_every_shape(factored_100k, 3000):
        n = g.factored.n
        blocks = g.classes.similarity_blocks()
        for block in [*blocks, *g.distance_similar.blocks]:
            assert type(block) is tuple and list(block) == sorted(set(block)), n
            assert all(type(i) is int for i in block), n
        assert sorted(blocks) == list(g.distance_similar.blocks), n


def test_join_construction_equals_direct(factored_100k):
    for f in composites(factored_100k, 4, 10_000):
        direct = build_essential_graph(f)
        join = build_join_construction(f)
        assert direct.adjacency == join.adjacency, f.n
        assert [v.d for v in direct.vertices] == [v.d for v in join.vertices], f.n


def test_field_product_model_matches_disjointness_oracle():
    # Relabelled by xi_mask, the essential graph of p_1 ... p_k is the graph
    # on the masks 1 .. 2^k - 2 in which two masks are adjacent iff disjoint.
    for k in range(2, 13):
        g = primorial_graph(k)
        masks = [v.xi_mask for v in g.vertices]
        assert sorted(masks) == list(range(1, (1 << k) - 1))
        for i, a in enumerate(masks):
            want = 0
            for j, b in enumerate(masks):
                if not a & b:
                    want |= 1 << j
            assert g.adjacency[i] == want, (k, a)


def test_divisor_conjugate_examples():
    assert conjugate_check(factor(30)).isomorphic
    assert conjugate_check(factor(2310)).isomorphic
    check12 = conjugate_check(factor(12))
    assert not check12.isomorphic
    assert check12.essential_edges == 5
    assert check12.aig_edges == 3
    assert check12.failing_pair is not None
    assert check12.mapping == {2: 6, 3: 4, 4: 3, 6: 2}


def _first_mismatch(g: IdealGraph, h: IdealGraph, image: list[int]):
    # Pair loop oracle: the first i < j of g whose adjacency differs from h's
    # at (image[i], image[j]).
    for i in range(g.order):
        for j in range(i + 1, g.order):
            if g.adjacent(i, j) != h.adjacent(image[i], image[j]):
                return i, j
    return None


def test_conjugate_reversal_matches_pair_loop(factored_100k):
    # the row-reversal verdict against the pair loop over the image of d -> n/d
    for f in composites(factored_100k, 4, 3000):
        ess, aig = build_essential_graph(f), build_aig(f)
        image = [aig.index_of(f.n // v.d) for v in ess.vertices]
        pair = _first_mismatch(ess, aig, image)
        want = None if pair is None else tuple(ess.vertices[i].d for i in pair)
        check = check_divisor_conjugate_iso(ess, aig)
        assert (check.isomorphic, check.failing_pair) == (pair is None, want), f.n


@pytest.mark.parametrize("n", [30, 210, 2310, 12, 360])
def test_iso_checks_name_a_flipped_edge_as_the_pair_loop_does(n):
    f = factor(n)
    ess, aig = build_essential_graph(f), build_aig(f)
    t, full = aig.order, (1 << f.k) - 1
    conj_image = [aig.index_of(n // v.d) for v in ess.vertices]
    masks = [full ^ v.xi_mask for v in aig.vertices]
    # the model's rows on the AIG's masks, by a pair loop: disjoint masks meet
    model_rows = [sum(1 << j for j, b in enumerate(masks) if not a & b) for a in masks]
    for a in range(t):
        for b in range(a + 1, t):
            rows = list(aig.adjacency)
            rows[a] ^= 1 << b
            rows[b] ^= 1 << a
            degrees = tuple(bin(r).count("1") for r in rows)
            broken = IdealGraph(KIND_ANNIHILATING, f, aig.vertices, tuple(rows), degrees)
            pair = _first_mismatch(ess, broken, conj_image)
            want = None if pair is None else tuple(ess.vertices[i].d for i in pair)
            check = check_divisor_conjugate_iso(ess, broken)
            assert (check.isomorphic, check.failing_pair) == (pair is None, want), (n, a, b)
            if not f.is_squarefree():
                continue
            # the model check walks the AIG's index order
            pair = next(
                (
                    (i, j)
                    for i in range(t)
                    for j in range(i + 1, t)
                    if broken.adjacent(i, j) != bool(model_rows[i] >> j & 1)
                ),
                None,
            )
            assert pair is not None, (n, a, b)
            fp = check_field_product_iso(broken)
            assert not fp.edge_preserving
            assert fp.failing_pair == (masks[pair[0]], masks[pair[1]]), (n, a, b)


def test_conjugate_check_reverses_rows_up_to_the_first_mismatch(monkeypatch):
    calls = []

    def counting_format(value, spec):
        calls.append(value)
        return format(value, spec)

    monkeypatch.setattr(graph_module, "format", counting_format, raising=False)
    for n in (12, 360, 2700, 2310):
        f = factor(n)
        ess, aig = build_essential_graph(f), build_aig(f)
        calls.clear()
        check = check_divisor_conjugate_iso(ess, aig)
        rows = ess.order if check.isomorphic else ess.index_of(check.failing_pair[0]) + 1
        assert len(calls) == rows, n
        assert check.isomorphic == f.is_squarefree()


@pytest.mark.parametrize("n", [30, 2310, 6469693230])
def test_field_product_check_builds_no_model(monkeypatch, n):
    monkeypatch.setenv("EIG_MAX_T", "5")  # the AIG passes its own cap below
    f = factor(n)
    check = check_field_product_iso(build_aig(f, max_t=2000))
    masks = range(1, (1 << f.k) - 1)
    want = {m: math.prod(p for i, p in enumerate(f.primes) if not m >> i & 1) for m in masks}
    assert check.edge_preserving and check.failing_pair is None
    assert list(check.mapping.items()) == list(want.items())


def test_iso_checks_take_built_graphs():
    f30 = factor(30)
    ess, aig = build_essential_graph(f30), build_aig(f30)
    with pytest.raises(InputError):
        check_divisor_conjugate_iso(aig, ess)
    with pytest.raises(InputError):
        check_divisor_conjugate_iso(ess, build_aig(factor(42)))
    with pytest.raises(InputError):
        check_field_product_iso(ess)


def test_divisor_conjugate_trivial_prime_powers():
    # p^2 and p^3 give identical one- or two-vertex graphs on both sides,
    # so the conjugate map genuinely is an isomorphism there
    for n in (4, 9, 25, 8, 27):
        assert conjugate_check(factor(n)).isomorphic
    for n in (16, 32, 81, 64):
        assert not conjugate_check(factor(n)).isomorphic


def test_essential_vertices_universal(factored_100k):
    for f in composites(factored_100k, 4, 1000, squarefree=False):
        g = build_essential_graph(f)
        t = g.order
        for i, v in enumerate(g.vertices):
            if v.xi_mask == 0:
                assert g.degrees[i] == t - 1
            elif g.degrees[i] == t - 1:
                part = class_partition(f, list(g.vertices))
                assert f.k == 2 and part.members[v.xi_mask] == (i,)


def test_class_degree_law(factored_100k):
    # Every class, X included, of every composite n <= 10^4 (squarefree n
    # and prime powers too), the two large-T n, k = 12 and k = 13.
    for f in [*composites(factored_100k, 4, 10_000), *map(factor, LARGE_T + K12_K13)]:
        g = build_essential_graph(f)
        for mask, members in g.classes.members.items():
            want = g.classes.class_degree(mask)
            assert all(g.degrees[i] == want for i in members), (f.n, mask)


@given(composite_n)
@settings(max_examples=60, deadline=None)
def test_essential_graph_properties(n):
    g = build_essential_graph(factor(n))
    for i, row in enumerate(g.adjacency):
        assert not row >> i & 1  # no self loops
    if g.order >= 2:
        diameter = max(map(max, all_pairs_distances(g)))
        assert diameter <= 3
        assert (diameter == 1) == g.is_complete()


def test_disconnected_is_structural_error():
    g = build_essential_graph(factor(12))
    broken = IdealGraph(g.kind, g.factored, g.vertices, (0,) * g.order, (0,) * g.order)
    with pytest.raises(InconsistencyError):
        all_pairs_distances(broken)


def test_dot_export():
    dot = "".join(to_dot(build_essential_graph(factor(30))))
    lines = dot.strip().splitlines()
    assert lines[0] == "graph essential_30 {"
    assert '  comment = "n = 30 = 2 * 3 * 5";' in lines
    assert sum(1 for line in lines if "[label=" in line) == 6
    assert sum(1 for line in lines if " -- " in line) == 6
    dot_aig = "".join(to_dot(build_aig(factor(30))))
    assert dot_aig.startswith("graph annihilating_30 {")


def test_json_export_schema_and_content():
    g = build_essential_graph(factor(12))
    payload = to_json_dict(g)
    jsonschema.validate(payload, GRAPH_JSON_SCHEMA)
    assert payload["n"] == 12
    assert payload["factors"] == [[2, 2], [3, 1]]
    assert [v["d"] for v in payload["vertices"]] == [2, 3, 4, 6]
    v4 = payload["vertices"][2]
    assert v4 == {
        "d": 4,
        "exponents": [2, 0],
        "xi": [1],
        "essential": False,
        "degree": 3,
    }
    assert all(i < j for i, j in payload["edges"])
    assert len(payload["edges"]) == 5
    json.dumps(payload)  # serializable
