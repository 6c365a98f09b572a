import dataclasses
import math
import random
from itertools import product

import pytest

import eigraph.ideals
from eigraph import (
    ClassQuotient,
    FactoredInteger,
    InconsistencyError,
    Ideal,
    InputError,
    bfs_row,
    build_essential_graph,
    class_partition,
    divisor_count,
    enumerate_vertices,
    factor,
    gcd_lemma_check,
    ideal_from_divisor,
    ideal_from_exponents,
    ideal_sum,
    is_essential,
    sum_is_essential_or_unit,
    zagreb_general_closed,
)
from eigraph.ideals import class_mask_order, disjoint_sets, essential_generators, subset_sums

from conftest import K12_K13, LARGE_T, PRIMES, composites


def test_enumerate_vertices_examples():
    assert [v.d for v in enumerate_vertices(factor(12))] == [2, 3, 4, 6]
    assert len(enumerate_vertices(factor(2700))) == 34
    assert [v.d for v in enumerate_vertices(factor(8))] == [2, 4]


def test_enumerate_vertices_matches_validated_constructor(factored_100k):
    fs = list(composites(factored_100k, 4, 10_000))
    for f in fs + [factor(1321091265351), factor(203903066266900)]:
        vectors = list(product(*(range(m + 1) for m in f.exponents)))[1:-1]
        want = sorted((ideal_from_exponents(f, e) for e in vectors), key=lambda v: v.d)
        assert [(v.d, v.exponents, v.xi_mask) for v in enumerate_vertices(f)] == [
            (v.d, v.exponents, v.xi_mask) for v in want
        ], f.n


def _columns_by_trial_division(n):
    """(generators, masks, exponent vectors) of Z_n from plain integer arithmetic."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    divisors = sorted({*small, *(n // d for d in small)})[1:-1]
    primes = [d for d in divisors + [n] if d > 1 and all(d % e for e in range(2, math.isqrt(d) + 1))]
    full = _exponents_by_division(n, primes)
    exponents = [_exponents_by_division(d, primes) for d in divisors]
    masks = [sum(1 << i for i, (r, m) in enumerate(zip(e, full)) if r == m) for e in exponents]
    return tuple(divisors), tuple(masks), tuple(exponents)


def _exponents_by_division(d, primes):
    exponents = []
    for p in primes:
        r = 0
        while d % p == 0:
            d, r = d // p, r + 1
        exponents.append(r)
    return tuple(exponents)


def test_columns_match_a_listing_by_trial_division(factored_100k):
    # every composite n <= 3000, both large-T n of the benchmark, and a
    # square of a prime with its one vertex
    fs = [*composites(factored_100k, 4, 3000), *map(factor, LARGE_T), factor(7919**2)]
    for f in fs:
        part = class_partition(f)
        columns = (part.generators, part.masks, part.exponent_vectors)
        assert columns == part.columns == _columns_by_trial_division(f.n), f.n
        assert part.vertices == tuple(ideal_from_divisor(f, d) for d in part.generators), f.n
    assert class_partition(factor(7919**2)).columns == ((7919,), (0,), ((1,),))


def test_enumerate_rejects_bad_n():
    # the quotient holds the composite rule, checked before the cap
    for n in (7, 3):
        with pytest.raises(InputError, match=f"n must be composite and at least 4, got {n}"):
            enumerate_vertices(factor(n), max_t=0)
        with pytest.raises(InputError, match=f"n must be composite and at least 4, got {n}"):
            ClassQuotient(factor(n))
    with pytest.raises(InputError, match="n must be composite and at least 4, got 1"):
        ClassQuotient(FactoredInteger(1, ()))


def test_broken_invariants_raise_inconsistency(monkeypatch):
    # Not asserts: these checks must still run under python -O.
    f12 = factor(12)
    # the listing is checked against the quotient's T, which a wrong law breaks
    with monkeypatch.context() as patch:
        patch.setattr(ClassQuotient, "T", property(lambda q: 7))
        with pytest.raises(InconsistencyError, match="4 vertices for n = 12, expected 7"):
            enumerate_vertices(f12)
    # sizes of {p} and {q} swapped: T holds, so only the per-class check sees it
    monkeypatch.setattr(ClassQuotient, "sizes", property(lambda q: (1, 2, 1, 0)))
    part = class_partition(f12)
    assert part.T == len(part.vertices) == 4
    with pytest.raises(InconsistencyError, match="class 1 of 12 lists 1, not 2"):
        part.members


def test_is_essential_examples():
    f12 = factor(12)
    assert is_essential(ideal_from_divisor(f12, 2))
    assert not is_essential(ideal_from_divisor(f12, 4))
    i675 = ideal_from_divisor(factor(2700), 675)
    assert not is_essential(i675)
    assert i675.xi_indices == (2, 3)


def test_essential_matches_ring_definition_oracle():
    for n in (4, 8, 12, 30, 60, 72, 2700):
        f = factor(n)
        verts = enumerate_vertices(f)
        essential = essential_generators(f)
        assert essential <= {v.d for v in verts}, n
        for v in verts:
            assert is_essential(v) == (v.d in essential), (n, v.d)
    # in Z_12, <2> meets <3>, <4> and <6>, but <6> misses <4>: lcm(6, 4) = 12
    assert essential_generators(factor(12)) == {2}
    assert essential_generators(factor(72)) == {2, 3, 4, 6, 12}


def test_ideal_sum_examples():
    f12 = factor(12)
    assert ideal_sum(ideal_from_divisor(f12, 4), ideal_from_divisor(f12, 6)) == (1, 0)
    assert ideal_sum(ideal_from_divisor(f12, 3), ideal_from_divisor(f12, 4)) == (0, 0)
    f2700 = factor(2700)
    vec = ideal_sum(ideal_from_divisor(f2700, 108), ideal_from_divisor(f2700, 675))
    d = math.prod(p**r for (p, _), r in zip(f2700.factors, vec))
    assert d == 27


def test_mixed_rings_rejected():
    with pytest.raises(InputError):
        ideal_sum(ideal_from_divisor(factor(12), 2), ideal_from_divisor(factor(30), 2))


def test_class_partition_examples():
    f12 = factor(12)
    part = class_partition(f12)
    # vertices 2, 3, 4, 6 at indices 0..3; X = {2} at mask 0 comes first
    assert part.members == {0: (0,), 0b01: (2,), 0b10: (1, 3)}
    assert list(part.members) == [0, 0b01, 0b10]
    assert part.m == 1 and part.T == 4
    # n = p^a*q: the class {4} merges with X = {2}, and the block stays sorted
    assert part.similarity_blocks() == [(0, 2), (1, 3)]

    part = class_partition(factor(2700))
    assert part.m == 11
    masks = class_mask_order(3)
    assert list(part.members) == [0, *masks]
    assert [len(part.members[mask]) for mask in masks] == [6, 4, 6, 2, 3, 2]
    assert [part.vertices[i].d for i in part.members[0b110]] == [675, 1350]

    part = class_partition(factor(30))
    assert part.m == 0 and part.members[0] == ()
    assert all(len(part.members[mask]) == 1 for mask in masks)
    assert list(part.members) == [0, *masks] and len(masks) == 6
    # squarefree k >= 3: no vertex is universal, and each singleton class is a block
    assert part.similarity_blocks() == [part.members[mask] for mask in masks]
    assert sorted(part.similarity_blocks()) == [(i,) for i in range(6)]
    # n = pq: X is empty and both primes are universal, one block of closed twins
    assert class_partition(factor(6)).similarity_blocks() == [(0, 1)]


def test_class_partition_size_invariants(factored_100k):
    for f in composites(factored_100k, 4, 3000):
        part = class_partition(f)
        assert part.m == math.prod(f.exponents) - 1
        total = part.m
        for mask in class_mask_order(f.k):
            want = math.prod(
                m for i, m in enumerate(f.exponents) if not mask >> i & 1
            )
            assert len(part.members[mask]) == want
            total += len(part.members[mask])
        assert total == part.T
        # every index once, each block ascending and holding its mask
        flat = [i for block in part.members.values() for i in block]
        assert sorted(flat) == list(range(part.T)), f.n
        for mask, block in part.members.items():
            assert list(block) == sorted(block), f.n
            assert all(part.vertices[i].xi_mask == mask for i in block), f.n


def test_class_mask_order_matches_subset_listing():
    # singletons first, then pairs, each ascending
    assert class_mask_order(3) == [0b001, 0b010, 0b100, 0b011, 0b101, 0b110]


def test_class_top_is_the_componentwise_largest_member(factored_100k):
    # The certificate drops each class's top, its largest index: exponent m_i
    # on the mask and m_i - 1 elsewhere, for every nonempty class.
    part = class_partition(factor(2700))
    assert part.vertices[part.members[0][-1]].d == 2 * 9 * 5  # one below every exponent
    assert part.vertices[part.members[0b001][-1]].d == 4 * 9 * 5
    tops = 0
    for f in composites(factored_100k, 4, 10_000):
        part = class_partition(f)
        for mask, block in part.members.items():
            if not block:
                continue
            want = tuple(m if mask >> i & 1 else m - 1 for i, m in enumerate(f.exponents))
            assert part.vertices[block[-1]].exponents == want, (f.n, mask)
            tops += 1
    assert tops == 47_787


def test_adjacency_characterizations_agree(factored_100k):
    # mask disjointness vs essential-or-unit ideal sum, exhaustively for n <= 2000,
    # the sum read both off the exponents and as <gcd(a, b)>, as verify reads it
    for f in composites(factored_100k, 4, 2000):
        verts = enumerate_vertices(f)
        sums = essential_generators(f) | {1}
        for i, a in enumerate(verts):
            for b in verts[i + 1 :]:
                disjoint = not a.xi_mask & b.xi_mask
                assert disjoint == sum_is_essential_or_unit(a, b) == (math.gcd(a.d, b.d) in sums)


def test_subset_sums_equal_the_direct_sum():
    rng = random.Random(2007)
    for k in range(7):
        for _ in range(5):
            values = [rng.randrange(-(10**6), 10**6) for _ in range(1 << k)]
            before = list(values)
            want = [sum(values[b] for b in range(1 << k) if b & s == b) for s in range(1 << k)]
            assert subset_sums(values, k) == want, (k, values)
            assert values == before


def test_disjoint_sets_equal_the_direct_scan():
    rng = random.Random(2010)
    for k in range(1, 7):
        for size in (0, 1, 5, 40):
            masks = [rng.randrange(1 << k) for _ in range(size)]
            want = [
                sum(1 << j for j, b in enumerate(masks) if not a & b) for a in range(1 << k)
            ]
            assert disjoint_sets(masks, k) == want, (k, masks)


def _class_degree_by_scan(part, mask):
    # One scan over every class per mask: the sizes of the classes disjoint
    # from it, less the vertex itself in X, the one class disjoint from itself.
    disjoint = sum(len(members) for other, members in part.members.items() if not other & mask)
    return disjoint - (mask == 0)


def _submasks(c):
    # every submask of c, from c down to 0
    b = c
    while True:
        yield b
        if not b:
            return
        b = (b - 1) & c


def _law_by_submasks(k, sizes):
    # Class degrees, M1 and M2 from sizes (mask -> count), walking the
    # masks disjoint from each class as the submasks of its complement, not
    # by subset_sums.  X is disjoint from itself: its vertices pair with
    # one another in the walk, and once each with themselves.
    full = (1 << k) - 1
    degree = {a: sum(sizes.get(b, 0) for b in _submasks(full ^ a)) - (a == 0) for a in sizes}
    w = {a: sizes[a] * degree[a] for a in sizes}
    twice_m2 = sum(w[a] * sum(w.get(b, 0) for b in _submasks(full ^ a)) for a in sizes)
    m1 = sum(w[a] * degree[a] for a in sizes)
    return degree, m1, (twice_m2 - sizes[0] * degree[0] ** 2) // 2


def _layers_by_bfs(part):
    # near[a] and far[a] of distance_layers over the listing, for each
    # nonempty class a, read off one BFS row of the essential graph from
    # the class's first member; that member's own position is left out
    g = build_essential_graph(part.modulus)
    layers = {}
    for a, members in part.members.items():
        if members:
            row = bfs_row(g, members[0])
            near, far = (sum(1 << j for j, d in enumerate(row) if d == want) for want in (1, 3))
            layers[a] = near, far
    return layers


def test_quotient_matches_the_listed_partition(factored_100k):
    # ClassQuotient(f) reads the exponents only; the partition's members are
    # the listing.  Every composite n <= 10^4, the two large-T n of the
    # benchmark, k = 12 and k = 13; the distance layers against BFS on all
    # but k = 12 and 13, where a BFS per class is too slow.
    for f in [*composites(factored_100k, 4, 10_000), *map(factor, LARGE_T + K12_K13)]:
        quotient, part = ClassQuotient(f), class_partition(f)
        listed = {a: len(c) for a, c in part.members.items()}
        assert quotient.sizes == tuple(listed.get(a, 0) for a in range(1 << f.k)), f.n
        assert (quotient.m, quotient.T) == (len(part.members[0]), len(part.vertices)), f.n
        scanned = {a: _class_degree_by_scan(part, a) for a in part.members}
        assert {a: quotient.class_degree(a) for a in part.members} == scanned, f.n
        # the essential vertices are universal, and so is any other class of
        # degree T - 1: the class {p^a} of n = p^a * q, or both primes of pq
        universal = sorted(a for a, d in scanned.items() if d == part.T - 1)
        assert quotient.universal_masks() == universal and universal[0] == 0, f.n
        if f.k == 2 and 1 in f.exponents:
            members = tuple(sorted(i for a in universal for i in part.members[a]))
            assert len(universal) > 1 and members == part.similarity_blocks()[0], f.n
        else:
            assert universal == [0], f.n
        _, m1, m2 = _law_by_submasks(f.k, listed)
        assert zagreb_general_closed(quotient) == (m1, m2) == zagreb_general_closed(part), f.n
        if f.k < 12:
            near, far = quotient.distance_layers([v.xi_mask for v in part.vertices])
            layers = {a: (near[a] & ~(1 << c[0]), far[a]) for a, c in part.members.items() if c}
            assert layers == _layers_by_bfs(part), f.n
    assert [factor(n).k for n in K12_K13] == [12, 13]


def test_quotient_lists_no_vertex_above_the_cap(monkeypatch):
    # T = 103,678 is over the default cap; nothing here may list a vertex
    def refuse(*args, **kwargs):
        raise AssertionError("the quotient listed a vertex")

    monkeypatch.setattr(eigraph.ideals, "enumerate_vertices", refuse)
    monkeypatch.setattr(eigraph.ideals, "product", refuse)
    f = factor(897612484786617600)
    quotient = ClassQuotient(f)
    assert quotient.T == divisor_count(f) - 2 == 103_678
    full = (1 << f.k) - 1
    want = [math.prod(m for i, m in enumerate(f.exponents) if not a >> i & 1) for a in range(full)]
    want[0] -= 1
    assert quotient.sizes == (*want, 0)
    degree, m1, m2 = _law_by_submasks(f.k, dict(enumerate(want)))
    assert all(quotient.class_degree(a) == d for a, d in degree.items())
    assert quotient.universal_masks() == [0]
    assert zagreb_general_closed(quotient) == (m1, m2)
    # the listing reads the quotient's T and refuses it at the default cap, listing nothing
    monkeypatch.delenv("EIG_MAX_T", raising=False)
    with pytest.raises(InputError, match="n = 897612484786617600 yields T = 103678 vertices"):
        enumerate_vertices(f)


def test_gcd_lemma_examples():
    assert gcd_lemma_check(30, 2, 15)
    assert gcd_lemma_check(30, 6, 10)
    assert gcd_lemma_check(210, 6, 35)
    with pytest.raises(InputError):
        gcd_lemma_check(12, 2, 3)
    with pytest.raises(InputError):
        gcd_lemma_check(30, 2, 2)


def test_gcd_lemma_refuses_a_non_int():
    # a float divisor used to reach math.gcd, and a float n to pass
    for args in ((30, 2.0, 15), (30.0, 2, 15), (30, 2, 15.0), (30, True, 15)):
        with pytest.raises(InputError, match="must be integers"):
            gcd_lemma_check(*args)


def test_gcd_lemma_sweep(factored_100k):
    for f in composites(factored_100k, 4, 2000, squarefree=True):
        divisors = [v.d for v in enumerate_vertices(f)]
        for i, d1 in enumerate(divisors):
            for d2 in divisors[i + 1 :]:
                assert gcd_lemma_check(f.n, d1, d2)


def test_ideal_validation():
    f12 = factor(12)
    with pytest.raises(InputError):
        ideal_from_exponents(f12, (0, 0))
    with pytest.raises(InputError):
        ideal_from_exponents(f12, (2, 1))
    with pytest.raises(InputError):
        ideal_from_exponents(f12, (3, 0))
    with pytest.raises(InputError):
        ideal_from_divisor(f12, 5)
    with pytest.raises(InputError):
        ideal_from_divisor(f12, 12)
    # a float or a bool is no exponent and no generator, even one equal to
    # an int (2.0 == 2, True == 1)
    for exps in ((1.5, 0), (2.0, 0), (True, 0), (1, False)):
        with pytest.raises(InputError):
            ideal_from_exponents(f12, exps)
    for d in (2.0, 6.0, True, "4"):
        with pytest.raises(InputError):
            ideal_from_divisor(f12, d)


def test_ideal_keeps_the_frozen_dataclass_behaviour():
    # a plain frozen dataclass: equality, hashing, repr and immutability
    f12 = factor(12)
    two = Ideal(f12, (1, 0), 2, 0)
    assert two == ideal_from_divisor(f12, 2) == enumerate_vertices(f12)[0]
    assert two != Ideal(f12, (1, 0), 2, 1) and two != (f12, (1, 0), 2, 0)
    assert hash(two) == hash((f12, (1, 0), 2, 0)) == hash(ideal_from_divisor(f12, 2))
    assert repr(two) == (
        "Ideal(modulus=FactoredInteger(n=12, factors=((2, 2), (3, 1))), "
        "exponents=(1, 0), d=2, xi_mask=0)"
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        two.d = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        del two.xi_mask
    assert two.d == 2 and two.xi_mask == 0


def _pairwise_rows(part):
    # the reference table: mask_distance on every pair, 0 on the diagonal
    masks = [v.xi_mask for v in part.vertices]
    return [
        "".join("0" if j == i else str(part.mask_distance(a, b)) for j, b in enumerate(masks))
        for i, a in enumerate(masks)
    ]


def test_distance_rows_equal_the_pairwise_law(factored_100k):
    # the rows read off the distance layers equal the scalar law on every
    # composite n <= 3000, and on the primorials k <= 10, where m = 0 and
    # complementary masks sit at distance 3
    parts = [class_partition(f) for f in composites(factored_100k, 4, 3000)]
    parts += [class_partition(factor(math.prod(PRIMES[:k]))) for k in range(2, 11)]
    for part in parts:
        want = _pairwise_rows(part)
        assert list(part.distance_rows()) == want, part.modulus.n
        if part.T <= 64:
            assert list(part.distance_rows(", ")) == [", ".join(row) for row in want]
