import dataclasses
import math
import random
from itertools import product

import pytest

import eigraph.ideals
from eigraph import (
    InconsistencyError,
    Ideal,
    InputError,
    class_partition,
    enumerate_vertices,
    factor,
    gcd_lemma_check,
    ideal_from_divisor,
    ideal_from_exponents,
    ideal_sum,
    is_essential,
    sum_is_essential_or_unit,
)
from eigraph.ideals import class_mask_order, disjoint_sets, intersects_every_ideal, subset_sums

from conftest import K12_K13, LARGE_T, PRIMES, composites, partition_of


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


def test_enumerate_rejects_bad_n():
    with pytest.raises(InputError):
        enumerate_vertices(factor(7))
    with pytest.raises(InputError):
        enumerate_vertices(factor(3))


def test_broken_invariants_raise_inconsistency(monkeypatch):
    # Not asserts: these checks must still run under python -O.
    f12 = factor(12)
    verts = enumerate_vertices(f12)
    with pytest.raises(InconsistencyError):
        class_partition(f12, verts[1:])  # <2>, the one essential vertex, is missing
    monkeypatch.setattr(eigraph.ideals, "divisor_count", lambda f: 7)
    with pytest.raises(InconsistencyError):
        enumerate_vertices(f12)


def test_is_essential_examples():
    f12 = factor(12)
    assert is_essential(ideal_from_divisor(f12, 2))
    assert not is_essential(ideal_from_divisor(f12, 4))
    i675 = ideal_from_divisor(factor(2700), 675)
    assert not is_essential(i675)
    assert i675.xi_indices == (2, 3)


def test_essential_matches_ring_definition_oracle():
    for n in (12, 30, 60, 72, 2700):
        for v in enumerate_vertices(factor(n)):
            assert is_essential(v) == intersects_every_ideal(v)


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
    part = partition_of(f12)
    # vertices 2, 3, 4, 6 at indices 0..3; X = {2} at mask 0 comes first
    assert part.members == {0: (0,), 0b01: (2,), 0b10: (1, 3)}
    assert list(part.members) == [0, 0b01, 0b10]
    assert part.m == 1 and part.T == 4
    # n = p^a*q: the class {4} merges with X = {2}, and the block stays sorted
    assert part.similarity_blocks() == [(0, 2), (1, 3)]

    part = partition_of(factor(2700))
    assert part.m == 11
    assert list(part.members) == [0, *part.class_masks()]
    assert [len(part.members[mask]) for mask in part.class_masks()] == [6, 4, 6, 2, 3, 2]
    assert [part.vertices[i].d for i in part.members[0b110]] == [675, 1350]

    part = partition_of(factor(30))
    assert part.m == 0 and part.members[0] == ()
    assert all(len(part.members[mask]) == 1 for mask in part.class_masks())
    assert len(part.class_masks()) == 6
    # squarefree k >= 3: no vertex is universal, and each singleton class is a block
    assert part.similarity_blocks() == [part.members[mask] for mask in part.class_masks()]
    assert sorted(part.similarity_blocks()) == [(i,) for i in range(6)]
    # n = pq: X is empty and both primes are universal, one block of closed twins
    assert partition_of(factor(6)).similarity_blocks() == [(0, 1)]


def test_class_partition_size_invariants(factored_100k):
    for f in composites(factored_100k, 4, 3000):
        part = partition_of(f)
        assert part.m == math.prod(f.exponents) - 1
        total = part.m
        for mask in part.class_masks():
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
    part = partition_of(factor(2700))
    assert part.vertices[part.members[0][-1]].d == 2 * 9 * 5  # one below every exponent
    assert part.vertices[part.members[0b001][-1]].d == 4 * 9 * 5
    tops = 0
    for f in composites(factored_100k, 4, 10_000):
        part = partition_of(f)
        for mask, block in part.members.items():
            if not block:
                continue
            want = tuple(m if mask >> i & 1 else m - 1 for i, m in enumerate(f.exponents))
            assert part.vertices[block[-1]].exponents == want, (f.n, mask)
            tops += 1
    assert tops == 47_787


def test_adjacency_characterizations_agree(factored_100k):
    # mask disjointness vs essential-or-unit ideal sum, exhaustively for n <= 2000
    for f in composites(factored_100k, 4, 2000):
        verts = enumerate_vertices(f)
        for i, a in enumerate(verts):
            for b in verts[i + 1 :]:
                assert (not a.xi_mask & b.xi_mask) == sum_is_essential_or_unit(a, b)


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


def test_class_degree_matches_the_per_class_scan(factored_100k):
    # Every class, X included, of every composite n <= 10^4, the two large-T
    # n of the benchmark, k = 12 and k = 13.
    for f in [*composites(factored_100k, 4, 10_000), *map(factor, LARGE_T + K12_K13)]:
        part = partition_of(f)
        for mask in part.members:
            assert part.class_degree(mask) == _class_degree_by_scan(part, mask), (f.n, mask)
        # the essential vertices are universal
        assert part.class_degree(0) == part.T - 1, f.n
    assert [factor(n).k for n in K12_K13] == [12, 13]


def test_gcd_lemma_examples():
    assert gcd_lemma_check(30, 2, 15)
    assert gcd_lemma_check(30, 6, 10)
    assert gcd_lemma_check(210, 6, 35)
    with pytest.raises(InputError):
        gcd_lemma_check(12, 2, 3)
    with pytest.raises(InputError):
        gcd_lemma_check(30, 2, 2)


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
    # the constructor writes the instance __dict__, like FactoredInteger's;
    # equality, hashing, repr and immutability stay those of the dataclass
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
    parts = [partition_of(f) for f in composites(factored_100k, 4, 3000)]
    parts += [partition_of(factor(math.prod(PRIMES[:k]))) for k in range(2, 11)]
    for part in parts:
        want = _pairwise_rows(part)
        assert list(part.distance_rows()) == want, part.modulus.n
        if part.T <= 64:
            assert list(part.distance_rows(", ")) == [", ".join(row) for row in want]
