from math import comb

import jsonschema
import pytest

from eigraph import (
    InputError,
    build_aig,
    build_essential_graph,
    class_partition,
    compute_zagreb_report,
    factor,
    zagreb_by_definition,
    zagreb_general_closed,
    zagreb_prime_power,
    zagreb_squarefree_closed,
    zagreb_two_prime,
)
from eigraph.zagreb import (
    ZAGREB_CSV_HEADER,
    ZAGREB_JSON_SCHEMA,
    squarefree_level_degree,
    squarefree_within_level_sum,
)

from conftest import LARGE_T, composites, primorial_graph


def graph_of(n):
    return build_essential_graph(factor(n))


def test_definition_examples():
    assert zagreb_by_definition(graph_of(30)) == (30, 36)
    assert zagreb_by_definition(graph_of(210)) == (254, 601)
    assert zagreb_by_definition(graph_of(2700)) == (22862, 300666)


def _zagreb_by_edge_walk(g):
    # The former production sum: walk each row bit by bit, every edge once.
    m1 = sum(d * d for d in g.degrees)
    m2 = 0
    degs = g.degrees
    for i, row in enumerate(g.adjacency):
        di = degs[i]
        rest = row >> (i + 1)
        j = i + 1
        while rest:
            if rest & 1:
                m2 += di * degs[j]
            rest >>= 1
            j += 1
    return m1, m2


def test_definition_matches_edge_walk_reference(factored_100k):
    # every composite n <= 5000, the large-t n (T = 358, 1438) and the
    # primorials k <= 11 (T up to 2046, every row distinct)
    fs = list(composites(factored_100k, 4, 5000)) + [factor(n) for n in LARGE_T]
    for f in fs:
        g = build_essential_graph(f)
        assert zagreb_by_definition(g) == _zagreb_by_edge_walk(g), f.n
    for k in range(2, 12):
        g = primorial_graph(k)
        assert zagreb_by_definition(g) == _zagreb_by_edge_walk(g), k


def test_prime_power_closed_forms():
    assert zagreb_prime_power(5) == (36, 54)
    assert zagreb_prime_power(3) == (2, 1)
    assert zagreb_prime_power(2) == (0, 0)
    with pytest.raises(InputError):
        zagreb_prime_power(1)
    for m in range(2, 9):
        n = 2**m
        assert zagreb_prime_power(m) == zagreb_by_definition(graph_of(n))


def test_squarefree_closed_forms():
    assert zagreb_squarefree_closed(3) == (30, 36, 63)
    assert zagreb_squarefree_closed(4) == (254, 601, 922)
    assert zagreb_squarefree_closed(2) == (2, 1, 2)
    with pytest.raises(InputError):
        zagreb_squarefree_closed(1)


PRIMORIALS = {
    2: 6,
    3: 30,
    4: 210,
    5: 2310,
    6: 30030,
    7: 510510,
    8: 9699690,
    9: 223092870,
    10: 6469693230,
    11: 200560490130,
    12: 7420738134810,
}


def test_squarefree_closed_matches_definition_up_to_k12():
    for k, n in PRIMORIALS.items():
        g = graph_of(n)
        m1, m2 = zagreb_by_definition(g)
        c1, c2, paper = zagreb_squarefree_closed(k)
        assert (m1, m2) == (c1, c2), k
        assert paper - c2 == squarefree_within_level_sum(k), k


def test_level_partition_degree_law():
    # For squarefree n, level i is the set of vertices whose mask has popcount i.
    for k, n in ((3, 30), (4, 210), (5, 2310), (6, 30030)):
        g = graph_of(n)
        levels = {}
        for idx, v in enumerate(g.vertices):
            levels.setdefault(v.xi_mask.bit_count(), []).append(idx)
        assert sorted(levels) == list(range(1, k))
        for i, level in levels.items():
            assert len(level) == comb(k, i)
            for idx in level:
                assert g.degrees[idx] == squarefree_level_degree(k, i)


def test_general_closed_examples():
    f2700 = factor(2700)
    part = class_partition(f2700)
    assert zagreb_general_closed(part) == (22862, 300666)

    f36 = factor(36)
    m1, m2 = zagreb_general_closed(class_partition(f36))
    assert m1 == 208
    assert (m1, m2) == zagreb_by_definition(graph_of(36))

    # squarefree n has no essential vertex, and the class sum holds there too
    m1, m2_once, _ = zagreb_squarefree_closed(3)
    assert zagreb_general_closed(class_partition(factor(30))) == (m1, m2_once)
    assert (m1, m2_once) == zagreb_by_definition(graph_of(30))


def test_two_prime_corollary_wraps_general():
    for n in (36, 24, 12, 72, 675, 50):
        f = factor(n)
        assert zagreb_two_prime(f) == zagreb_general_closed(class_partition(f))
        assert zagreb_two_prime(f) == zagreb_by_definition(graph_of(n))
    with pytest.raises(InputError):
        zagreb_two_prime(factor(30))
    with pytest.raises(InputError):
        zagreb_two_prime(factor(60))


def test_paper_forms_equal_the_class_law(factored_100k):
    # The report reads only the class law; the paper's shape forms are
    # references, compared with it over their whole parameter ranges.
    for k, n in {**PRIMORIALS, 13: 304250263527210}.items():
        law = zagreb_general_closed(class_partition(factor(n)))
        assert zagreb_squarefree_closed(k)[:2] == law, k
    for p in (2, 3, 5):
        m = 2
        while p**m < 2**63:
            f = factor(p**m)
            assert zagreb_prime_power(m) == zagreb_general_closed(class_partition(f)), f.n
            m += 1
    two_prime = [f for f in composites(factored_100k, 4, 10_000, squarefree=False) if f.k == 2]
    assert len(two_prime) > 1000
    for f in two_prime:
        assert zagreb_two_prime(f) == zagreb_general_closed(class_partition(f)), f.n


def test_general_closed_matches_definition_sweep(factored_100k):
    # every composite n <= 3000: prime powers and squarefree n included
    for f in composites(factored_100k, 4, 3000):
        part = class_partition(f)
        assert zagreb_general_closed(part) == zagreb_by_definition(
            build_essential_graph(f)
        ), f.n


def test_general_closed_matches_definition_at_k12_and_k13():
    for n, k in ((14841476269620, 12), (608500527054420, 13)):
        g = graph_of(n)
        assert g.factored.k == k and not g.factored.is_squarefree()
        assert zagreb_general_closed(g.classes) == zagreb_by_definition(g), n


def test_report_flags_and_schema():
    report = compute_zagreb_report(graph_of(30))
    assert report.m1_agrees and report.m2_agrees
    assert report.m2_paper_convention == 63
    assert report.paper_convention_differs
    jsonschema.validate(report.to_json_dict(), ZAGREB_JSON_SCHEMA)

    report = compute_zagreb_report(graph_of(2700))
    assert report.m1_agrees and report.m2_agrees
    assert report.m2_paper_convention is None
    assert report.paper_convention_differs is None
    jsonschema.validate(report.to_json_dict(), ZAGREB_JSON_SCHEMA)

    row = report.csv_row()
    assert row.split(",")[: len(ZAGREB_CSV_HEADER.split(",")) - 1] == [
        "2700",
        "3",
        "34",
        "22862",
        "300666",
        "22862",
        "300666",
        "",
    ]


def test_report_refuses_graphs_other_than_the_essential_graph():
    # The closed forms are the essential graph's: an AIG has other degrees.
    for g in (build_aig(factor(2700)), build_aig(factor(30))):
        with pytest.raises(InputError, match="essential ideal graph, not " + g.kind):
            compute_zagreb_report(g)


def test_m2_zero_iff_edgeless(factored_100k):
    for f in composites(factored_100k, 4, 400):
        g = build_essential_graph(f)
        _, m2 = zagreb_by_definition(g)
        assert m2 >= 0
        assert (m2 == 0) == (g.edge_count == 0)


def test_indices_nonnegative_and_consistent(factored_100k):
    for f in composites(factored_100k, 4, 300):
        g = build_essential_graph(f)
        report = compute_zagreb_report(g)
        assert report.m1_definition >= 0 and report.m2_definition >= 0
        assert report.m1_agrees and report.m2_agrees
        assert report.m1_definition == sum(d * d for d in g.degrees)
