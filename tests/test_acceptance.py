"""Acceptance suite: one test per criterion, exact integer equalities.

Each test prints a single pass/fail line (with its elapsed time against the
stated single-core target) before asserting, so a full run shows the status
of every criterion.
"""

import math
import time


from eigraph import (
    all_pairs_distances,
    build_aig,
    build_essential_graph,
    build_join_construction,
    check_field_product_iso,
    class_partition,
    constructive_resolving_set,
    dim_bruteforce,
    dim_formula,
    dim_lower_bound,
    distance_similar_partition,
    enumerate_vertices,
    factor,
    finiteness_bound_check,
    is_resolving,
    zagreb_by_definition,
    zagreb_general_closed,
    zagreb_prime_power,
    zagreb_squarefree_closed,
)
from eigraph.ideals import class_mask_order
from eigraph.zagreb import squarefree_level_degree

from conftest import composites, conjugate_check


def _report(number, ok, elapsed, target, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number}: {status} ({elapsed:.1f}s, target <{target}s){suffix}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_zagreb_worked_examples():
    start = time.time()
    failures = []
    c1, c2_once, c2_paper = zagreb_squarefree_closed(3)
    d1, d2 = zagreb_by_definition(build_essential_graph(factor(30)))
    if not (c1 == d1 == 30 and c2_paper == 63 and c2_once == d2 == 36):
        failures.append(f"n=30: closed {(c1, c2_once, c2_paper)} definition {(d1, d2)}")
    c1, c2_once, c2_paper = zagreb_squarefree_closed(4)
    d1, d2 = zagreb_by_definition(build_essential_graph(factor(210)))
    if not (c1 == d1 == 254 and c2_paper == 922 and c2_once == d2 == 601):
        failures.append(f"n=210: closed {(c1, c2_once, c2_paper)} definition {(d1, d2)}")
    _report(1, not failures, time.time() - start, 1, "; ".join(failures))


def test_criterion_2_general_zagreb_2700():
    start = time.time()
    f = factor(2700)
    g = build_essential_graph(f)
    part = g.classes
    failures = []
    if part.T != 34 or part.m != 11:
        failures.append(f"T={part.T} m={part.m}")
    masks = class_mask_order(f.k)
    sizes = [len(part.members[mask]) for mask in masks]
    if sizes != [6, 4, 6, 2, 3, 2]:
        failures.append(f"sizes={sizes}")
    degrees = [part.class_degree(mask) for mask in masks]
    if degrees != [23, 26, 23, 17, 15, 17]:
        failures.append(f"degrees={degrees}")
    counted = [g.degrees[part.members[mask][0]] for mask in masks]
    if counted != degrees:
        failures.append(f"counted degrees={counted}")
    definition = zagreb_by_definition(g)
    closed = zagreb_general_closed(part)
    if definition != (22862, 300666) or closed != definition:
        failures.append(f"definition={definition} closed={closed}")
    _report(2, not failures, time.time() - start, 1, "; ".join(failures))


def test_criterion_3_prime_power_32():
    start = time.time()
    f = factor(32)
    g = build_essential_graph(f)
    failures = []
    if not (g.order == 4 and g.is_complete()):
        failures.append(f"graph K_4 expected, order {g.order}")
    report = dim_formula(f)
    if not (report.dim_value == 3 == report.T - 1 and report.is_exact):
        failures.append(f"dim={report.dim_value}")
    brute = dim_bruteforce(g)
    if brute.dim_value != 3:
        failures.append(f"brute dim={brute.dim_value}")
    closed = zagreb_prime_power(5)
    definition = zagreb_by_definition(g)
    if closed != (36, 54) or definition != closed:
        failures.append(f"zagreb closed={closed} definition={definition}")
    _report(3, not failures, time.time() - start, 1, "; ".join(failures))


def test_criterion_4_metric_dimension_exact_cases():
    start = time.time()
    failures = []
    for n, want in [(12, 2), (24, 4), (36, 4), (60, 4), (180, 9), (30, 2), (210, 3)]:
        g = build_essential_graph(factor(n))
        formula = dim_formula(factor(n))
        brute = dim_bruteforce(g)
        if not (brute.is_exact and brute.dim_value == want == formula.dim_value):
            failures.append(f"n={n}: brute={brute.dim_value} formula={formula.dim_value}")

    # n=2700 is certified: partition lower bound meets the constructive witness
    f = factor(2700)
    g = build_essential_graph(f)
    lower = dim_lower_bound(distance_similar_partition(g).blocks)
    witness_report = constructive_resolving_set(class_partition(f))
    if not (lower == witness_report.dim_value == 27 == dim_formula(f).dim_value):
        failures.append(
            f"n=2700: lower={lower} witness={witness_report.dim_value}"
        )

    t2310 = time.time()
    g2310 = build_essential_graph(factor(2310))
    brute2310 = dim_bruteforce(g2310)
    elapsed2310 = time.time() - t2310
    if not (brute2310.is_exact and brute2310.dim_value == 5):
        failures.append(f"n=2310: brute={brute2310.dim_value}")
    if elapsed2310 >= 60:
        failures.append(f"n=2310 search took {elapsed2310:.1f}s")
    _report(4, not failures, time.time() - start, 60, "; ".join(failures))


def test_criterion_5_constructive_witnesses(factored_100k):
    start = time.time()
    failures = []
    for f in composites(factored_100k, 4, 2000, squarefree=False):
        report = constructive_resolving_set(class_partition(f))
        expected = dim_formula(f)
        if report.degenerate:
            # n = p^2 has a single vertex: dim 0 by convention, no witness
            if expected.dim_value != 0 or report.dim_value != 0:
                failures.append(f"n={f.n}: degenerate dim {report.dim_value}")
                break
            continue
        if report.dim_value != expected.dim_value or report.witness is None:
            failures.append(f"n={f.n}: |W|={report.dim_value} formula={expected.dim_value}")
            break
    f = factor(30030)
    g = build_essential_graph(f)
    minimal = sorted(f.n // p for p in f.primes)
    check = is_resolving(g, minimal)
    if not check.resolves:
        failures.append("n=30030: minimal ideals do not resolve")
    cons = constructive_resolving_set(class_partition(f))
    if cons.dim_value != 6 or cons.is_exact:
        failures.append(f"n=30030: dim bound {cons.dim_value} exact={cons.is_exact}")
    _report(5, not failures, time.time() - start, 120, "; ".join(failures))


def test_criterion_6_divisor_conjugate_and_model(factored_100k):
    start = time.time()
    failures = []
    for f in composites(factored_100k, 4, 100_000, squarefree=True):
        if not conjugate_check(f).isomorphic:
            failures.append(f"n={f.n}: conjugate map not isomorphism")
            break
    # non-squarefree: provably fails for k >= 2 and for p^m with m >= 4
    # (p^2 and p^3 give equal one- or two-vertex graphs)
    for f in composites(factored_100k, 4, 10_000, squarefree=False):
        if f.k == 1 and f.exponents[0] < 4:
            continue
        if conjugate_check(f).isomorphic:
            failures.append(f"n={f.n}: conjugate map unexpectedly isomorphism")
            break
    n12 = conjugate_check(factor(12))
    if (n12.essential_edges, n12.aig_edges) != (5, 3):
        failures.append(f"n=12 edges {n12.essential_edges} vs {n12.aig_edges}")
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    for k in range(2, 11):
        n = math.prod(primes[:k])
        if not check_field_product_iso(build_aig(factor(n))).edge_preserving:
            failures.append(f"k={k}: field-product model not edge-preserving")
    _report(6, not failures, time.time() - start, 60, "; ".join(failures))


def test_criterion_7_structure(factored_100k):
    """Join reconstruction and the distance-similar law, n <= 10^4 non-squarefree.

    The distance-similar blocks are {X} u {X_Xi}, except for n = p^a*q
    (a >= 2), where the class {p^a} merges with X. Proof at n = 12: the
    vertices are 2 (X), 4 ({p}), 3 and 6 ({q}), and the 5 edges are all
    pairs but 3-6. So 2 and 4 are both universal, hence closed twins, and
    the blocks are [[2, 4], [3, 6]]. The literal law {X} u {X_Xi} must fail
    at exactly the p^a*q values of the sweep.
    """
    start = time.time()
    join_failures = []
    partition_failures = []
    literal_failures = []
    merge_values = []
    for f in composites(factored_100k, 4, 10_000, squarefree=False):
        g = build_essential_graph(f)
        join = build_join_construction(class_partition(f))
        if g.adjacency != join.adjacency:
            join_failures.append(f.n)
            continue
        part = g.classes
        actual = list(distance_similar_partition(g).blocks)
        if f.k == 2 and min(f.exponents) == 1:  # n = p^a*q, a >= 2 in this sweep
            merge_values.append(f.n)
        if actual != sorted(part.members.values()):
            literal_failures.append(f.n)
        expected = sorted(part.similarity_blocks())
        if actual != expected and not partition_failures:
            partition_failures.append(
                f"n={f.n}: blocks {sorted(sorted(g.vertices[i].d for i in b) for b in actual)}"
                f" != classes {sorted(sorted(g.vertices[i].d for i in b) for b in expected)}"
            )
    g12 = build_essential_graph(factor(12))
    edges12 = {(g12.vertices[i].d, g12.vertices[j].d) for i, j in g12.edges()}
    blocks12 = sorted(
        sorted(g12.vertices[i].d for i in b) for b in distance_similar_partition(g12).blocks
    )
    detail = ""
    if join_failures:
        detail += f"join mismatch at n={join_failures[0]}; "
    if partition_failures:
        detail += (
            "distance-similar partition differs from {X} u {X_Xi} with {p^a} merged"
            " into X for n = p^a*q: " + partition_failures[0] + "; "
        )
    if literal_failures != merge_values:
        wrong = sorted(set(literal_failures) ^ set(merge_values))
        detail += (
            f"literal law {{X}} u {{X_Xi}} does not fail at exactly the p^a*q values;"
            f" differs at n={wrong[:5]}; "
        )
    if edges12 != {(2, 3), (2, 4), (2, 6), (3, 4), (4, 6)} or blocks12 != [[2, 4], [3, 6]]:
        detail += f"n=12: edges {sorted(edges12)}, blocks {blocks12}; "
    _report(7, not detail, time.time() - start, 120, detail.rstrip("; "))


def test_criterion_8_distances(factored_100k):
    start = time.time()
    failures = []
    for f in composites(factored_100k, 4, 100_000, squarefree=True):
        g = build_essential_graph(f)
        dist = all_pairs_distances(g)
        t = g.order
        verts = g.vertices
        law = g.classes.mask_distance
        for i in range(t):
            row = dist[i]
            vi = verts[i]
            for j in range(i + 1, t):
                if law(vi.xi_mask, verts[j].xi_mask) != row[j]:
                    failures.append(f"n={f.n}: closed form disagrees with BFS")
                    break
            if failures:
                break
        if failures:
            break
        if t >= 2:
            diam = max(max(row) for row in dist)
            if diam > 3 or (diam == 1) != g.is_complete():
                failures.append(f"n={f.n}: diameter {diam}")
                break
    for f in composites(factored_100k, 4, 10_000, squarefree=False):
        g = build_essential_graph(f)
        if g.order < 2:
            continue
        dist = all_pairs_distances(g)
        diam = max(max(row) for row in dist)
        if diam > 3 or (diam == 1) != g.is_complete():
            failures.append(f"n={f.n}: diameter {diam}")
            break
    _report(8, not failures, time.time() - start, 120, "; ".join(failures))


def test_criterion_9_property_suite(factored_100k):
    start = time.time()
    failures = []
    # gcd biconditional over every divisor pair of every squarefree n <= 1e5,
    # plus the squarefree level degree law on the same sweep
    for f in composites(factored_100k, 4, 100_000, squarefree=True):
        n = f.n
        divisors = [v.d for v in enumerate_vertices(f)]
        for i, d1 in enumerate(divisors):
            for d2 in divisors[i + 1 :]:
                if math.gcd(d1, d2) == 1:
                    if (n // d1) * (n // d2) % n != 0:
                        failures.append(f"gcd lemma fails at ({n}, {d1}, {d2})")
                        break
                elif (n // d1) * (n // d2) % n == 0:
                    failures.append(f"gcd lemma fails at ({n}, {d1}, {d2})")
                    break
            if failures:
                break
        if failures:
            break
        g = build_essential_graph(f)
        # level i: the vertices whose full-exponent mask has popcount i
        if any(
            d != squarefree_level_degree(f.k, v.xi_mask.bit_count())
            for v, d in zip(g.vertices, g.degrees)
        ):
            failures.append(f"level degree law fails at n={n}")
        if failures:
            break
    if not failures:
        # class degree law over the non-squarefree range
        for f in composites(factored_100k, 4, 10_000, squarefree=False):
            g = build_essential_graph(f)
            part = g.classes
            for mask in class_mask_order(f.k):
                want = part.class_degree(mask)
                if any(g.degrees[i] != want for i in part.members[mask]):
                    failures.append(f"class degree law fails at n={f.n}")
                    break
            if any(g.degrees[i] != part.T - 1 for i in part.members[0]):
                failures.append(f"essential degree law fails at n={f.n}")
            if failures:
                break
    if not failures:
        # finiteness bound for every exactly solved instance
        solved = []
        for f in composites(factored_100k, 4, 2000):
            report = dim_formula(f)
            if report.is_exact and report.T >= 2:
                solved.append((f.n, report.dim_value, report.T))
        solved.extend([(2310, 5, 30), (2700, 27, 34)])
        for n, dim_value, t in solved:
            if not finiteness_bound_check(dim_value, t):
                failures.append(f"finiteness bound fails at n={n}")
                break
    _report(9, not failures, time.time() - start, 120, "; ".join(failures))


def test_criterion_7_corrected_structure_law(factored_100k):
    """Companion to criterion 7: the oracle-corrected partition law holds.

    Classes equal the distance-similar blocks except n = p^a*q, where the
    heavy prime's singleton class merges with the essential class; and every
    class is internally distance-similar everywhere (which is what the
    class-count lower bound actually needs).
    """
    start = time.time()
    ok = True
    detail = ""
    for f in composites(factored_100k, 4, 10_000, squarefree=False):
        g = build_essential_graph(f)
        part = g.classes
        if list(distance_similar_partition(g).blocks) != sorted(part.similarity_blocks()):
            ok = False
            detail = f"corrected law fails at n={f.n}"
            break
        rows = g.adjacency
        for block in part.members.values():
            for a_pos, i in enumerate(block):
                for j in block[a_pos + 1 :]:
                    if (rows[i] ^ rows[j]) & ~((1 << i) | (1 << j)):
                        ok = False
                        detail = f"class not internally similar at n={f.n}"
                        break
    print(
        f"criterion 7 (corrected law): {'PASS' if ok else 'FAIL'} "
        f"({time.time() - start:.1f}s)"
    )
    assert ok, detail
