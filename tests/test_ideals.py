import math
from itertools import product

import pytest

import eigraph.ideals
from eigraph import (
    InconsistencyError,
    InputError,
    canonical_representative,
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
from eigraph.ideals import class_mask_order, intersects_every_ideal

from conftest import composites


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
    part = class_partition(f12)
    assert [v.d for v in part.essential_class] == [2]
    assert part.m == 1 and part.T == 4
    assert [v.d for v in part.classes[0b01]] == [4]
    assert [v.d for v in part.classes[0b10]] == [3, 6]
    # n = p^a*q: the class {4} merges with X = {2}
    assert [[v.d for v in b] for b in part.similarity_blocks()] == [[2, 4], [3, 6]]

    part = class_partition(factor(2700))
    assert part.m == 11
    assert [part.class_size(mask) for mask in part.class_masks()] == [6, 4, 6, 2, 3, 2]

    part = class_partition(factor(30))
    assert part.m == 0
    assert all(part.class_size(mask) == 1 for mask in part.class_masks())
    assert len(part.class_masks()) == 6
    with pytest.raises(InputError):
        part.similarity_blocks()


def test_class_partition_size_invariants(factored_100k):
    for f in composites(factored_100k, 4, 3000):
        part = class_partition(f)
        assert part.m == math.prod(f.exponents) - 1
        total = part.m
        for mask in part.class_masks():
            want = math.prod(
                m for i, m in enumerate(f.exponents) if not mask >> i & 1
            )
            assert part.class_size(mask) == want
            total += part.class_size(mask)
        assert total == part.T


def test_class_mask_order_matches_subset_listing():
    # singletons first, then pairs, each ascending
    assert class_mask_order(3) == [0b001, 0b010, 0b100, 0b011, 0b101, 0b110]


def test_canonical_representative():
    f2700 = factor(2700)
    assert canonical_representative(f2700, 0).d == 2 * 9 * 5  # one below every exponent
    assert canonical_representative(f2700, 0b001).d == 4 * 9 * 5
    part = class_partition(f2700)
    for mask in part.class_masks():
        rep = canonical_representative(f2700, mask)
        assert rep.xi_mask == mask
        assert rep.d in {v.d for v in part.classes[mask]}
    with pytest.raises(InputError):
        canonical_representative(factor(30), 0)


def test_adjacency_characterizations_agree(factored_100k):
    # mask disjointness vs essential-or-unit ideal sum, exhaustively for n <= 2000
    for f in composites(factored_100k, 4, 2000):
        verts = enumerate_vertices(f)
        for i, a in enumerate(verts):
            for b in verts[i + 1 :]:
                assert (not a.xi_mask & b.xi_mask) == sum_is_essential_or_unit(a, b)


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
