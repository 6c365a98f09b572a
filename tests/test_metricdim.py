import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigraph import (
    InconsistencyError,
    InputError,
    bfs_row,
    build_aig,
    build_essential_graph,
    class_partition,
    constructive_resolving_set,
    dim_bruteforce,
    dim_formula,
    dim_lower_bound,
    distance_similar_partition,
    factor,
    finiteness_bound_check,
    is_resolving,
)
from eigraph.metricdim import DIM_JSON_SCHEMA

import jsonschema

from conftest import LARGE_T, composites

composite_n = st.integers(min_value=4, max_value=1000).filter(
    lambda n: not factor(n).is_prime()
)


def graph_of(n):
    return build_essential_graph(factor(n))


def test_is_resolving_examples():
    g12 = graph_of(12)
    check = is_resolving(g12, [3, 4])
    assert check.resolves
    assert check.representations[6] == (2, 1)
    assert check.representations[2] == (1, 1)

    check = is_resolving(g12, [2])
    assert not check.resolves
    assert check.colliding_pair is not None
    u, v = check.colliding_pair
    assert check.representations[u] == check.representations[v] == (1,)

    f = factor(30030)
    g = build_essential_graph(f)
    minimal = [f.n // p for p in f.primes]
    assert is_resolving(g, minimal).resolves


def test_is_resolving_validation():
    g12 = graph_of(12)
    with pytest.raises(InputError):
        is_resolving(g12, [])
    with pytest.raises(InputError):
        is_resolving(g12, [5])
    with pytest.raises(InputError):
        is_resolving(g12, [3, 3])


def test_witness_lists_generators():
    # a float or a string that reads as a generator names no vertex, not
    # even a float equal to one (2.0 == 2), and neither does an unhashable item
    g12 = graph_of(12)
    for witness in ([3.7, 4], ["3", "4"], [[3], 4], [2.0], [3, 4.0]):
        with pytest.raises(InputError, match="no vertex with key"):
            is_resolving(g12, witness)


def test_dim_bruteforce_examples():
    r12 = dim_bruteforce(graph_of(12))
    assert r12.dim_value == 2 and r12.is_exact
    assert r12.witness == (2, 3)  # lexicographically least by vertex index
    assert is_resolving(graph_of(12), r12.witness).resolves

    r30 = dim_bruteforce(graph_of(30))
    assert r30.dim_value == 2 and r30.is_exact

    r60 = dim_bruteforce(graph_of(60))
    assert r60.dim_value == 4 and r60.is_exact


def _member_product_search(g, budget=10_000_000):
    # reference: the search over choices of blocks times choices of the
    # dropped member in each, keeping the lexicographically least witness;
    # the budget counts every (blocks, members) choice
    from itertools import combinations, product

    from eigraph import all_pairs_distances

    t = g.order
    part = distance_similar_partition(g)
    blocks = [list(b) for b in part.blocks]
    counts = [1] + [0] * len(blocks)
    for size in (len(b) for b in blocks):
        for j in range(len(counts) - 2, -1, -1):
            counts[j + 1] += counts[j] * size
    dist = all_pairs_distances(g)
    spent = 0
    for s in range(dim_lower_bound(part.blocks), t):
        e = t - s
        if e > len(blocks):
            continue
        if spent + counts[e] > budget:
            return s, None, False
        spent += counts[e]
        best = None
        for chosen in combinations(range(len(blocks)), e):
            for dropped in product(*(blocks[b] for b in chosen)):
                w_cols = tuple(i for i in range(t) if i not in dropped)
                seen = set()
                for v in dropped:
                    rep = tuple(dist[v][w] for w in w_cols)
                    if rep in seen:
                        break
                    seen.add(rep)
                else:
                    if best is None or w_cols < best:
                        best = w_cols
        if best is not None:
            return s, best, True
    raise AssertionError("no resolving set")


def test_block_search_agrees_with_member_product_search(factored_100k):
    # dim, witness and exactness equal the member-product reference on every
    # composite n <= 1000 (a single vertex has no witness in either)
    for f in composites(factored_100k, 4, 1000):
        g = build_essential_graph(f)
        if g.order < 2:
            continue
        want_dim, want_witness, want_exact = _member_product_search(g)
        got = dim_bruteforce(g)
        assert got.dim_value == want_dim, f.n
        assert tuple(g.index_of(d) for d in got.witness) == want_witness, f.n
        assert got.is_exact == want_exact, f.n


def _block_choice_scan(g, budget=10_000_000):
    # reference: every combinations(tops, r) choice tested one by one, with a
    # distance tuple per outside top; same budget rule and witness order as
    # the pruned depth-first search
    from itertools import combinations
    from math import comb

    from eigraph.metricdim import METHOD_BRUTE, DimReport

    n = g.factored.n
    t = g.order
    if t == 1:
        return DimReport(n, 1, 0, True, METHOD_BRUTE, 0, None, None)
    partition = distance_similar_partition(g)
    tops = sorted(max(b) for b in partition.blocks)
    top_set = set(tops)
    distances = [bfs_row(g, v) if v in top_set else None for v in range(t)]
    fixed = [i for i in range(t) if i not in top_set]
    lower = dim_lower_bound(partition.blocks)
    spent = 0
    for s in range(lower, t):
        r = s - len(fixed)
        if r < 0:
            continue
        cost = comb(len(tops), r)
        if spent + cost > budget:
            return DimReport(n, t, s, False, METHOD_BRUTE, lower)
        spent += cost
        for kept in combinations(tops, r):
            w_cols = sorted(fixed + list(kept))
            seen = set()
            for v in top_set.difference(kept):
                rep = tuple(distances[v][w] for w in w_cols)
                if rep in seen:
                    break
                seen.add(rep)
            else:
                witness = tuple(g.vertices[i].d for i in w_cols)
                check = is_resolving(g, witness, distances)
                return DimReport(
                    n, t, s, True, METHOD_BRUTE, lower, witness, check.representations
                )
    raise AssertionError("no resolving set")


def test_search_refuses_a_budget_that_is_not_a_nonnegative_int():
    # -1 would report the lower bound as a search out of budget
    g = build_essential_graph(factor(60))
    for bad in (-1, 1.5, True, None):
        with pytest.raises(InputError, match="budget must be a nonnegative integer"):
            dim_bruteforce(g, budget=bad)
    assert not dim_bruteforce(g, budget=0).is_exact


def test_pruned_search_equals_block_choice_scan(factored_100k):
    # the depth-first scan on the mask-distance layers returns the BFS
    # reference's report field for field, representations included, at
    # every budget, and at the default budget for both LARGE_T n
    for f in composites(factored_100k, 4, 3000):
        g = build_essential_graph(f)
        for budget in (10_000_000, 0, 1, 3, 100):
            want = _block_choice_scan(g, budget)
            assert dim_bruteforce(g, budget=budget) == want, (f.n, budget)
    for f in map(factor, LARGE_T):
        g = build_essential_graph(f)
        assert dim_bruteforce(g) == _block_choice_scan(g), f.n


def test_search_needs_the_essential_graph():
    # the mask-distance law is the essential graph's; the AIG has its own
    for n in (12, 30, 2700):
        with pytest.raises(InputError):
            dim_bruteforce(build_aig(factor(n)))


def test_budget_counts_choices_of_blocks():
    # the member-product count for n = 360 reaches 1,080 candidates; only
    # one choice of blocks per size is scanned
    report = dim_bruteforce(graph_of(360), budget=100)
    assert report.is_exact and report.dim_value == 15
    assert len(report.witness) == 15
    assert _member_product_search(graph_of(360), budget=100)[2] is False


def test_dim_bruteforce_budget_exhaustion():
    g = graph_of(210)  # dim 3, T = 14
    partial = dim_bruteforce(g, budget=3)
    assert not partial.is_exact
    assert partial.witness is None
    assert partial.dim_value <= 3


def test_dim_formula_cases():
    assert dim_formula(factor(36)).dim_value == 4
    assert dim_formula(factor(24)).dim_value == 4
    assert dim_formula(factor(2700)).dim_value == 27
    assert dim_formula(factor(8)).dim_value == 1
    assert dim_formula(factor(6)).dim_value == 1
    assert dim_formula(factor(30)).dim_value == 2
    assert dim_formula(factor(210)).dim_value == 3
    assert dim_formula(factor(2310)).dim_value == 5
    report = dim_formula(factor(30030))
    assert report.dim_value == 6 and not report.is_exact
    degenerate = dim_formula(factor(4))
    assert degenerate.dim_value == 0 and degenerate.degenerate


def test_degenerate_iff_single_vertex():
    for n, t in ((4, 1), (8, 2), (12, 4)):
        f = factor(n)
        for report in (
            dim_formula(f),
            constructive_resolving_set(class_partition(f)),
            dim_bruteforce(build_essential_graph(f)),
        ):
            assert report.T == t, (n, report.method)
            assert report.degenerate == (t == 1), (n, report.method)


def test_dim_formula_matches_bruteforce(factored_100k):
    for f in composites(factored_100k, 4, 260):
        formula = dim_formula(f)
        if not formula.is_exact:
            continue
        brute = dim_bruteforce(build_essential_graph(f))
        assert brute.dim_value == formula.dim_value, f.n


def test_one_heavy_prime_examples():
    # n = p1^m * p2 * p3 has dimension 4(m - 1)
    for m, n in [(2, 60), (3, 120), (4, 240)]:
        assert dim_formula(factor(n)).dim_value == 4 * (m - 1)
    assert dim_bruteforce(graph_of(120)).dim_value == 8


def _unpruned_min_resolving(g):
    # reference search over all subsets in lexicographic order, no pruning
    from itertools import combinations

    from eigraph import all_pairs_distances

    dist = all_pairs_distances(g)
    t = g.order
    for s in range(1, t):
        for w in combinations(range(t), s):
            seen = set()
            for v in range(t):
                if v in w:
                    continue
                rep = tuple(dist[v][x] for x in w)
                if rep in seen:
                    break
                seen.add(rep)
            else:
                return s, tuple(w)
    return t - 1, tuple(range(t - 1))


def test_pruned_search_agrees_with_unpruned(factored_100k):
    # the block pruning and lexicographic tie-break reproduce the naive search
    for f in composites(factored_100k, 4, 100):
        g = build_essential_graph(f)
        if g.order < 2 or g.order > 12:
            continue
        want_dim, want_witness = _unpruned_min_resolving(g)
        got = dim_bruteforce(g)
        assert got.dim_value == want_dim, f.n
        assert tuple(g.index_of(d) for d in got.witness) == want_witness, f.n


def test_constructive_examples():
    r2700 = constructive_resolving_set(class_partition(factor(2700)))
    assert r2700.dim_value == 27 and r2700.is_exact
    assert r2700.method == "constructive"
    assert len(r2700.witness) == 27

    r60 = constructive_resolving_set(class_partition(factor(60)))
    assert r60.dim_value == 4
    assert 4 in r60.witness  # the adjoined heavy power <p1^m1>
    assert r60.witness[-1] == 4

    r30030 = constructive_resolving_set(class_partition(factor(30030)))
    assert r30030.dim_value == 6 and not r30030.is_exact
    assert r30030.witness == (2310, 2730, 4290, 6006, 10010, 15015)

    # squarefree k <= 4: the minimal ideals without the largest, <n/p_1>
    r30 = constructive_resolving_set(class_partition(factor(30)))
    assert r30.dim_value == 2 and r30.is_exact and r30.method == "constructive"
    assert r30.witness == (6, 10)


def test_squarefree_certificate(factored_100k):
    # the minimal ideals <n/p_i>, less <n/p_1> for k <= 4, certify the exact
    # value for every squarefree n <= 10^4 (k <= 5), with no search
    for f in composites(factored_100k, 4, 10_000, squarefree=True):
        report = constructive_resolving_set(class_partition(f))
        assert report.is_exact and report.method == "constructive", f.n
        assert report.dim_value == dim_formula(f).dim_value, f.n
        minimal = sorted(f.n // p for p in f.primes)
        assert report.witness == tuple(minimal[:-1] if f.k <= 4 else minimal), f.n
        g = build_essential_graph(f)
        rows = [bfs_row(g, s) for s in range(g.order)]
        check = is_resolving(g, report.witness, rows)
        assert check.resolves and check.representations == report.representations, f.n
        assert report.lower_bound == dim_lower_bound(distance_similar_partition(g).blocks), f.n
    for n in (6, 30, 210, 2310):  # one n per k = 2..5
        report = constructive_resolving_set(class_partition(factor(n)))
        assert report.dim_value == dim_bruteforce(graph_of(n)).dim_value, n
    for n in (30030, 510510, 9699690):  # k = 6, 7, 8: the upper bound k
        f = factor(n)
        report = constructive_resolving_set(class_partition(f))
        assert not report.is_exact and report.dim_value == f.k
        assert report.witness == tuple(sorted(n // p for p in f.primes))


def test_constructive_size_mismatch_is_inconsistent(monkeypatch):
    # an exact certificate whose size differs from the closed form raises:
    # the certificate reads the dim law off its own partition
    import eigraph.metricdim as metricdim

    real = metricdim._dim_law

    def off_by_one(quotient):
        dim, exact, lower = real(quotient)
        return dim + 1, exact, lower

    monkeypatch.setattr(metricdim, "_dim_law", off_by_one)
    for n in (30, 60):
        with pytest.raises(InconsistencyError):
            constructive_resolving_set(class_partition(factor(n)))


def test_constructive_sweep(factored_100k):
    # the mask-law certificate against the BFS oracle: every non-squarefree
    # composite n <= 10^4 and one n of each large-t signature (T = 358, 1438)
    fs = list(composites(factored_100k, 4, 10_000, squarefree=False))
    for f in fs + [factor(1321091265351), factor(203903066266900)]:
        report = constructive_resolving_set(class_partition(f))
        expected = dim_formula(f)
        assert report.dim_value == expected.dim_value
        if report.degenerate:
            assert report.dim_value == 0 and report.witness is None
            continue
        g = build_essential_graph(f)
        check = is_resolving(g, report.witness)
        assert check.resolves, f.n
        assert check.representations == report.representations, f.n
        assert report.lower_bound == dim_lower_bound(distance_similar_partition(g).blocks), f.n


def test_constructive_catches_a_bad_witness(monkeypatch):
    # a witness rule that drops its last vertex index fails the mask-law
    # check, and BFS agrees that the shortened witness does not resolve
    import eigraph.metricdim as metricdim

    real = metricdim._witness_rule
    monkeypatch.setattr(metricdim, "_witness_rule", lambda part: real(part)[:-1])
    for n in (12, 60, 360, 2700):
        f = factor(n)
        with pytest.raises(InconsistencyError, match="does not resolve"):
            constructive_resolving_set(class_partition(f))
        part = class_partition(f)
        short = [part.vertices[i].d for i in real(part)[:-1]]
        assert not is_resolving(build_essential_graph(f), short).resolves, n


def _certificate_by_law(part, w_idx):
    # the former production check: one mask_distance call per outside mask
    # and distinct witness mask; returns the verdict and the representations
    verts = part.vertices
    in_w = set(w_idx)
    w_masks = [verts[i].xi_mask for i in w_idx]
    distinct = set(w_masks)
    codes = {}
    reps = {}
    for i, v in enumerate(verts):
        if i in in_w:
            continue
        a = v.xi_mask
        if a not in codes:
            law = {b: part.mask_distance(a, b) for b in distinct}
            codes[a] = tuple(map(law.__getitem__, w_masks))
        reps[v.d] = codes[a]
    return len(set(reps.values())) == len(reps), reps


def _assert_certificate_matches_law(part, w_idx):
    resolves, want = _certificate_by_law(part, w_idx)
    if not resolves:
        with pytest.raises(InconsistencyError, match="does not resolve"):
            constructive_resolving_set(part)
        return
    report = constructive_resolving_set(part)
    assert report.witness == tuple(part.vertices[i].d for i in w_idx)
    assert list(report.representations.items()) == list(want.items())
    assert report.representations == want and dict(report.representations) == want


def test_certificate_equals_the_pairwise_law(factored_100k, monkeypatch):
    # the distance layers give the verdict and the representations of the
    # per-pair law on every composite n <= 10^4 and both large-t n
    import eigraph.metricdim as metricdim

    fs = list(composites(factored_100k, 4, 10_000))
    fs += [factor(n) for n in LARGE_T]
    for f in fs:
        part = class_partition(f)
        if part.T > 1:
            _assert_certificate_matches_law(part, metricdim._witness_rule(part))
    # the same witnesses with one entry swapped for an outside vertex: some
    # resolve and some do not, and both sides agree on which
    real = metricdim._witness_rule
    seen = set()
    for f in composites(factored_100k, 4, 2000):
        part = class_partition(f)
        w_idx = real(part)
        outside = sorted(set(range(part.T)).difference(w_idx))
        for pos in range(0, len(w_idx), max(1, len(w_idx) // 3)):
            for o in outside[:2]:
                swapped = w_idx[:pos] + [o] + w_idx[pos + 1 :]
                seen.add(_certificate_by_law(part, swapped)[0])
                monkeypatch.setattr(metricdim, "_witness_rule", lambda part: swapped)
                _assert_certificate_matches_law(part, swapped)
                monkeypatch.undo()
    assert seen == {True, False}


def test_certificate_rejects_two_outside_members_of_one_class(monkeypatch):
    # a rule that leaves a second member of a class outside its witness: the
    # two share their mask and so their code
    import eigraph.metricdim as metricdim

    real = metricdim._witness_rule

    def one_short(part):
        w_idx = real(part)
        outside = set(range(part.T)).difference(w_idx)
        masks = [v.xi_mask for v in part.vertices]
        drop = next(i for i in w_idx if outside.intersection(part.members[masks[i]]))
        return [i for i in w_idx if i != drop]

    monkeypatch.setattr(metricdim, "_witness_rule", one_short)
    for n in (12, 60, 360, 2700, *LARGE_T):
        f = factor(n)
        part = class_partition(f)
        assert not _certificate_by_law(part, one_short(part))[0], n
        with pytest.raises(InconsistencyError, match="does not resolve"):
            constructive_resolving_set(part)


def test_certificate_decodes_only_when_read(monkeypatch):
    # text dim prints no representation and decodes none; JSON decodes them
    import io
    from contextlib import redirect_stdout

    import eigraph.metricdim as metricdim
    from eigraph.cli import main

    calls = []
    real = metricdim.distance_digits

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(metricdim, "distance_digits", counted)
    for argv, decoded in ((["dim", "2700"], False), (["dim", "2700", "--format", "json"], True)):
        calls.clear()
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert bool(calls) == decoded, argv


def test_dim_lower_bound_examples():
    assert dim_lower_bound(distance_similar_partition(graph_of(2700)).blocks) == 27
    assert dim_lower_bound(distance_similar_partition(graph_of(60)).blocks) == 3
    assert dim_lower_bound(distance_similar_partition(graph_of(30)).blocks) == 1
    assert dim_lower_bound(distance_similar_partition(graph_of(4)).blocks) == 0


def test_completeness_check():
    assert graph_of(32).is_complete()
    assert graph_of(6).is_complete()
    assert not graph_of(12).is_complete()


def test_dim_is_t_minus_one_iff_complete(factored_100k):
    for f in composites(factored_100k, 4, 500):
        report = dim_formula(f)
        if not report.is_exact or report.T < 2:
            continue
        complete = build_essential_graph(f).is_complete()
        shape = f.k == 1 or (f.k == 2 and f.is_squarefree())
        assert (report.dim_value == report.T - 1) == complete == shape


def test_finiteness_bound_examples():
    assert finiteness_bound_check(2, 6)
    assert finiteness_bound_check(5, 30)
    assert finiteness_bound_check(2, 4)
    assert not finiteness_bound_check(1, 6)
    assert not finiteness_bound_check(1, 5)  # within 4^1 + 1, not within 3^1 + 1


def test_finiteness_bound_holds_for_every_exact_value(factored_100k):
    # T <= 3^dim + dim for every composite n <= 10^4 with an exact closed form
    for f in composites(factored_100k, 4, 10_000):
        report = dim_formula(f)
        if report.is_exact and report.T >= 2:
            assert finiteness_bound_check(report.dim_value, report.T), f.n


def test_reports_respect_lower_bound(factored_100k):
    for f in composites(factored_100k, 4, 400):
        report = dim_formula(f)
        assert report.dim_value >= report.lower_bound
        if report.T >= 2 and report.is_exact:
            assert 1 <= report.dim_value <= report.T - 1


@given(composite_n, st.data())
@settings(max_examples=40, deadline=None)
def test_adding_vertex_keeps_resolving(n, data):
    g = build_essential_graph(factor(n))
    if g.order < 2:
        return
    base = dim_bruteforce(g)
    extra_candidates = [v.d for v in g.vertices if v.d not in base.witness]
    if not extra_candidates:
        return
    extra = data.draw(st.sampled_from(extra_candidates))
    assert is_resolving(g, list(base.witness) + [extra]).resolves


def test_dim_report_json_schema():
    payload = constructive_resolving_set(class_partition(factor(60))).to_json_dict()
    jsonschema.validate(payload, DIM_JSON_SCHEMA)
    payload = dim_formula(factor(30)).to_json_dict()
    jsonschema.validate(payload, DIM_JSON_SCHEMA)
    assert payload["witness"] is None
