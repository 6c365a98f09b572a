"""The ideal model of Z_n.

A nonzero proper ideal <d> of Z_n is encoded by the exponent vector of its
generator d over the prime factorization of n.  The set of indices where
the generator carries the full exponent of n (stored as a bitmask) drives
every adjacency, class, and resolving-set computation downstream: two
vertices are adjacent in the essential ideal graph exactly when those
index sets are disjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .arithmetic import FactoredInteger, check_caps, divisor_count, factor, require_composite
from .errors import InconsistencyError, InputError


def mask_indices(mask: int) -> tuple[int, ...]:
    """The 1-based prime indices set in an index mask, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class Ideal:
    """A nonzero proper ideal of Z_n, represented by its generator's exponents.

    xi_mask has bit (i-1) set exactly when the i-th exponent is full, i.e.
    r_i = m_i.  Essential ideals are those with xi_mask == 0.
    """

    modulus: FactoredInteger
    exponents: tuple[int, ...]
    d: int
    xi_mask: int

    @property
    def xi_indices(self) -> tuple[int, ...]:
        """Full-exponent prime indices, 1-based, ascending."""
        return mask_indices(self.xi_mask)


def _xi_mask(exponents, full) -> int:
    mask = 0
    for i, (r, m) in enumerate(zip(exponents, full)):
        if r == m:
            mask |= 1 << i
    return mask


def ideal_from_exponents(f: FactoredInteger, exponents) -> Ideal:
    """Build an Ideal from an exponent vector, validating properness."""
    exps = tuple(exponents)
    if len(exps) != f.k:
        raise InputError(f"expected {f.k} exponents, got {len(exps)}")
    full = f.exponents
    if any(r < 0 or r > m for r, m in zip(exps, full)):
        raise InputError(f"exponents {exps} out of range for n = {f.n}")
    if all(r == 0 for r in exps):
        raise InputError("the unit ideal is not a vertex")
    if exps == full:
        raise InputError("the zero ideal is not a vertex")
    d = 1
    for (p, _), r in zip(f.factors, exps):
        d *= p**r
    return Ideal(f, exps, d, _xi_mask(exps, full))


def ideal_from_divisor(f: FactoredInteger, d: int) -> Ideal:
    """Build the Ideal <d> from a nontrivial proper divisor d of n."""
    if d <= 1 or d >= f.n or f.n % d != 0:
        raise InputError(f"{d} is not a nontrivial proper divisor of {f.n}")
    exps = []
    rem = d
    for p, _ in f.factors:
        r = 0
        while rem % p == 0:
            rem //= p
            r += 1
        exps.append(r)
    return ideal_from_exponents(f, exps)


def enumerate_vertices(f: FactoredInteger, max_t: int | None = None) -> list[Ideal]:
    """All nonzero proper ideals of Z_n, ascending by generator; refuses T over the cap."""
    require_composite(f)
    check_caps(f, max_t)
    # product() only yields exponents in range, so nothing is validated per
    # vertex: prime i contributes r, p_i^r and its full bit, d is a product
    # and xi_mask a sum.  Sorted by d, the unit ideal is first and zero last.
    exps = product(*(range(m + 1) for m in f.exponents))
    ds = map(math.prod, product(*([p**r for r in range(m + 1)] for p, m in f.factors)))
    masks = map(sum, product(*([0] * m + [1 << i] for i, m in enumerate(f.exponents))))
    verts = [Ideal(f, e, d, mask) for d, e, mask in sorted(zip(ds, exps, masks))[1:-1]]
    if len(verts) != divisor_count(f) - 2:
        raise InconsistencyError(
            f"{len(verts)} vertices for n = {f.n}, expected {divisor_count(f) - 2}"
        )
    return verts


def is_essential(ideal: Ideal) -> bool:
    """True iff every exponent is strictly below the full exponent of n."""
    return ideal.xi_mask == 0


def intersects_every_ideal(ideal: Ideal) -> bool:
    """Ring-definition essentiality oracle: <d> meets every nonzero ideal.

    Checks lcm(d, e) < n for every proper divisor e > 1 of n, staying in
    plain integer arithmetic so it is independent of the xi_mask route.
    """
    n = ideal.modulus.n
    d = ideal.d
    for exps in product(*(range(m + 1) for m in ideal.modulus.exponents)):
        e = 1
        for (p, _), r in zip(ideal.modulus.factors, exps):
            e *= p**r
        if e <= 1 or e >= n:
            continue
        if d * e // math.gcd(d, e) == n:
            return False
    return True


def _require_same_modulus(a: Ideal, b: Ideal) -> None:
    if a.modulus.n != b.modulus.n:
        raise InputError(f"ideals of different rings: Z_{a.modulus.n} vs Z_{b.modulus.n}")


def ideal_sum(a: Ideal, b: Ideal) -> tuple[int, ...]:
    """Exponent vector of <d_a> + <d_b> = <gcd(d_a, d_b)>; may be the unit ideal."""
    _require_same_modulus(a, b)
    return tuple(min(r, s) for r, s in zip(a.exponents, b.exponents))


def sum_is_essential_or_unit(a: Ideal, b: Ideal) -> bool:
    """Adjacency oracle: the ideal sum is essential (the unit ideal counts)."""
    vec = ideal_sum(a, b)
    return all(r < m for r, m in zip(vec, a.modulus.exponents))


def class_mask_order(k: int) -> list[int]:
    """Canonical order of the nonempty proper index subsets: by size, then value."""
    return sorted(range(1, (1 << k) - 1), key=lambda m: (m.bit_count(), m))


@dataclass(frozen=True)
class ClassPartition:
    """Vertices grouped by full-exponent index set.

    essential_class holds the ideals with empty index set; classes maps each
    nonempty proper bitmask to its ideals.  m = prod(m_i) - 1 counts the
    essential vertices and T is the total vertex count.
    """

    modulus: FactoredInteger
    essential_class: tuple[Ideal, ...]
    classes: dict[int, tuple[Ideal, ...]]
    m: int
    T: int

    def class_masks(self) -> list[int]:
        return class_mask_order(self.modulus.k)

    def class_size(self, mask: int) -> int:
        return len(self.classes[mask])

    def class_degree(self, mask: int) -> int:
        """Degree of any vertex in the class: m plus the disjoint class sizes."""
        return self.m + sum(
            len(members)
            for other, members in self.classes.items()
            if other != mask and not other & mask
        )

    def blocks_in_order(self) -> list[tuple[Ideal, ...]]:
        """The essential class followed by the classes in canonical order."""
        return [self.essential_class] + [self.classes[m] for m in self.class_masks()]

    def similarity_blocks(self) -> list[tuple[Ideal, ...]]:
        """Distance-similar blocks of the essential ideal graph, essential block first.

        Every class is a block, except for n = p^a * q (a >= 2): there the
        full power p^a is alone in its class (mask {p}), which is joined to X
        and to the {q}-class, so p^a is universal, a closed twin of every
        essential vertex, and its class merges with X.  Defined for n with
        an essential vertex (m >= 1).
        """
        if self.m == 0:
            raise InputError("no essential vertices: squarefree n has no class law")
        blocks = self.blocks_in_order()
        exps = self.modulus.exponents
        if self.modulus.k == 2 and min(exps) == 1:
            # blocks_in_order lists X, then the classes of masks {1} and {2}
            heavy = 1 if exps[0] > 1 else 2
            blocks[0] += blocks.pop(heavy)
        return blocks

    def mask_distance(self, a: int, b: int) -> int:
        """Distance in the essential ideal graph between two distinct vertices with masks a and b.

        Disjoint masks are adjacent.  Otherwise an essential vertex (m >= 1)
        or the class of the complement of a | b is a common neighbour; with
        neither (m = 0 and a | b full) the path runs through the complements
        of a and of b, which are disjoint, so the distance is 3.
        """
        if not a & b:
            return 1
        if self.m or a | b != (1 << self.modulus.k) - 1:
            return 2
        return 3


def class_partition(f: FactoredInteger, vertices: list[Ideal] | None = None) -> ClassPartition:
    """Partition the vertex set by full-exponent index mask."""
    if vertices is None:
        vertices = enumerate_vertices(f)
    essential = tuple(v for v in vertices if v.xi_mask == 0)
    classes: dict[int, list[Ideal]] = {mask: [] for mask in class_mask_order(f.k)}
    for v in vertices:
        if v.xi_mask:
            classes[v.xi_mask].append(v)
    frozen = {mask: tuple(members) for mask, members in classes.items()}
    expected_m = math.prod(f.exponents) - 1
    if len(essential) != expected_m:
        raise InconsistencyError(
            f"{len(essential)} essential vertices for n = {f.n}, expected {expected_m}"
        )
    return ClassPartition(f, essential, frozen, len(essential), len(vertices))


def canonical_representative(f: FactoredInteger, mask: int) -> Ideal:
    """The class member with exponent m_i on the mask and m_i - 1 elsewhere.

    For the essential class (mask 0) this requires some m_i > 1, otherwise
    the class is empty and there is nothing to represent.
    """
    if mask < 0 or mask >= (1 << f.k) - 1:
        raise InputError(f"mask {mask} is not a proper subset of the {f.k} prime indices")
    exps = []
    for i, m in enumerate(f.exponents):
        if mask >> i & 1:
            exps.append(m)
        else:
            exps.append(m - 1)
    if mask == 0 and all(r == 0 for r in exps):
        raise InputError("the essential class is empty for squarefree n")
    return ideal_from_exponents(f, exps)


def gcd_lemma_check(n: int, d1: int, d2: int) -> bool:
    """For squarefree n, test gcd(d1, d2) = 1  <=>  n | (n/d1)(n/d2).

    Returns whether the biconditional holds for this triple; it is expected
    to hold for every pair of distinct nontrivial proper divisors.
    """
    f = factor(n)
    if not f.is_squarefree():
        raise InputError(f"n = {n} is not squarefree")
    for d in (d1, d2):
        if d <= 1 or d >= n or n % d != 0:
            raise InputError(f"{d} is not a nontrivial proper divisor of {n}")
    if d1 == d2:
        raise InputError("divisors must be distinct")
    coprime = math.gcd(d1, d2) == 1
    divides = (n // d1) * (n // d2) % n == 0
    return coprime == divides
