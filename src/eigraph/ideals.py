"""The ideal model of Z_n.

A nonzero proper ideal <d> of Z_n is encoded by the exponent vector of its
generator d over the prime factorization of n.  The set of indices where
the generator carries the full exponent of n (stored as a bitmask) drives
every adjacency, class, and resolving-set computation downstream: two
vertices are adjacent in the essential ideal graph exactly when those
index sets are disjoint.  The class partition groups the indices of the
vertex list by mask, with the essential class X at mask 0: the format of
the graph's distance-similar blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .arithmetic import FactoredInteger, check_caps, divisor_count, factor, require_composite
from .errors import InconsistencyError, InputError


def mask_indices(mask: int) -> tuple[int, ...]:
    """The 1-based prime indices set in an index mask, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def subset_sums(values: list[int], k: int) -> list[int]:
    """out[s] = sum of values[b] over every subset b of s, for the 2^k masks s.

    The fast zeta transform (Bjorklund, Husfeldt, Kaski and Koivisto, STOC
    2007) in O(2^k * k) additions.  A sum over the masks disjoint from a,
    such as a class degree, is out[full ^ a].
    """
    out = list(values)
    for b in range(k):
        bit = 1 << b
        for s in range(1 << k):
            if s & bit:
                out[s] += out[s ^ bit]
    return out


def disjoint_sets(masks: list[int], k: int) -> list[int]:
    """out[a] = the bitset of the positions j whose mask masks[j] is disjoint from a.

    Those masks are the subsets of full ^ a: subset_sums of the positions
    grouped by mask, reversed.
    """
    by_mask = [0] * (1 << k)
    for j, b in enumerate(masks):
        by_mask[b] |= 1 << j
    # The positions of distinct masks are disjoint, so their sum is their union.
    return subset_sums(by_mask, k)[::-1]


@dataclass(frozen=True, init=False)
class Ideal:
    """A nonzero proper ideal of Z_n, represented by its generator's exponents.

    xi_mask has bit (i-1) set exactly when the i-th exponent is full, i.e.
    r_i = m_i.  Essential ideals are those with xi_mask == 0.
    """

    modulus: FactoredInteger
    exponents: tuple[int, ...]
    d: int
    xi_mask: int

    def __init__(
        self, modulus: FactoredInteger, exponents: tuple[int, ...], d: int, xi_mask: int
    ) -> None:
        # As in FactoredInteger: the instance __dict__ takes the fields without
        # one object.__setattr__ call each, and eq, hash, repr and
        # immutability are those of the generated frozen dataclass.
        state = self.__dict__
        state["modulus"] = modulus
        state["exponents"] = exponents
        state["d"] = d
        state["xi_mask"] = xi_mask

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
    if any(type(r) is not int or not 0 <= r <= m for r, m in zip(exps, full)):
        raise InputError(f"exponents {exps} are not integers in range for n = {f.n}")
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
    if type(d) is not int or d <= 1 or d >= f.n or f.n % d != 0:
        raise InputError(f"{d!r} is not a nontrivial proper divisor of {f.n}")
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
    """Adjacency oracle: the ideal sum is essential (the unit ideal counts).

    Each exponent of the sum, min(r, s) as in ideal_sum, is tested against
    the full exponent in turn, so no sum vector is built.
    """
    _require_same_modulus(a, b)
    for r, s, m in zip(a.exponents, b.exponents, a.modulus.exponents):
        if min(r, s) >= m:
            return False
    return True


def class_mask_order(k: int) -> list[int]:
    """Canonical order of the nonempty proper index subsets: by size, then value."""
    return sorted(range(1, (1 << k) - 1), key=lambda m: (m.bit_count(), m))


@dataclass(frozen=True)
class ClassPartition:
    """Vertex indices grouped by full-exponent index set.

    vertices is the ordered vertex list the partition was built from;
    members maps each proper bitmask to the ascending indices of its
    vertices: the essential class X at mask 0 first, then the classes in
    class_mask_order.  m = prod(m_i) - 1 counts the essential vertices and
    T is the total vertex count.
    """

    modulus: FactoredInteger
    vertices: tuple[Ideal, ...]
    members: dict[int, tuple[int, ...]]

    @property
    def m(self) -> int:
        return len(self.members[0])

    @property
    def T(self) -> int:
        return len(self.vertices)

    def class_masks(self) -> list[int]:
        return list(self.members)[1:]

    @cached_property
    def _degree_table(self) -> list[int]:
        # subset_sums of the class sizes indexed by mask value; members
        # iterates in canonical order, not mask order
        full = (1 << self.modulus.k) - 1
        sizes = [len(self.members[s]) for s in range(full)] + [0]
        return subset_sums(sizes, self.modulus.k)

    def class_degree(self, mask: int) -> int:
        """Degree of every vertex in the class: the disjoint class sizes, less itself in X."""
        full = (1 << self.modulus.k) - 1
        return self._degree_table[full ^ mask] - (not mask)

    def similarity_blocks(self) -> list[tuple[int, ...]]:
        """Distance-similar blocks of the essential ideal graph, universal block first.

        Twin classes are cliques or independent sets (Hernando, Mora,
        Pelayo, Seara and Wood, Electron. J. Combin. 17 (2010) R30).  The
        universal vertices, X and every class of degree T - 1, are closed
        twins of one another and form one block; every other nonempty class
        is its own block.  A universal class outside X is the singleton
        {p^a} of n = p^a * q, or either prime of n = pq.
        """
        top = self.T - 1
        universal = [i for a, c in self.members.items() if self.class_degree(a) == top for i in c]
        others = [c for a, c in self.members.items() if self.class_degree(a) != top]
        return ([tuple(sorted(universal))] if universal else []) + others

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

    def distance_layers(self, masks: list[int]) -> tuple[list[int], list[int]]:
        """The mask-distance law for many positions at once.

        masks[j] is the mask of the vertex at position j.  For a vertex
        with mask a, near[a] holds the positions at distance 1 (mask
        disjoint from a) and far[a] those at distance 3 (m = 0, a | b full,
        a & b nonempty); every other position is at distance 2, but the
        vertex's own.  near is disjoint_sets of the masks, the transform
        that builds the essential rows; far is disjoint_sets of the
        complemented masks read reversed (a | b full), less near[a].
        """
        k = self.modulus.k
        near = disjoint_sets(masks, k)
        if self.m:
            return near, [0] * len(near)
        full = (1 << k) - 1
        up = disjoint_sets([full ^ b for b in masks], k)[::-1]
        return near, [u & ~d for u, d in zip(up, near)]

    def distance_rows(self, sep: str = ""):
        """Yield each vertex's distances to every vertex, in vertex order, joined by sep.

        By the mask-distance law a row depends only on the vertex's mask, up
        to its own entry 0, so each mask's digits come from its distance
        layers, once for a class of two or more.  One buffer holds the
        joined text: its digit positions are overwritten with the row's
        digits, then its own with 0.  Members of one class are twins:
        mask_distance(a, a) is their distance, 1 in the clique X and 2 in
        any other class.
        """
        masks = [v.xi_mask for v in self.vertices]
        near, far = self.distance_layers(masks)
        row = bytearray(sep.join("0" * len(masks)).encode())
        step = len(sep) + 1
        shared = {}
        for i, a in enumerate(masks):
            digits = shared.get(a)
            if digits is None:
                digits = distance_digits(near[a], far[a], len(masks)).encode()
                if len(self.members[a]) > 1:
                    shared[a] = digits
            row[::step] = digits
            row[i * step] = ord("0")
            yield row.decode()


def distance_digits(near: int, far: int, width: int) -> str:
    """Character j is 1 if bit j of near is set, 3 if that of far is, and 2 otherwise.

    near and far are disjoint bitsets below 2^width, as distance_layers
    gives them.  Read as hexadecimal, the binary text of a bitset puts bit
    j into hex digit j, so the digits are one sum of three integers with no
    carry, 2 - near + far in every hex digit, written lowest first.
    """
    twos = int.from_bytes(b"\x22" * width, "little") >> 4 * width  # width hex digits 2
    spread_near = int(bin(near)[2:], 16)
    spread_far = int(bin(far)[2:], 16)
    return format(twos - spread_near + spread_far, "x")[::-1]


def class_partition(
    f: FactoredInteger, vertices: list[Ideal] | tuple[Ideal, ...]
) -> ClassPartition:
    """Partition the vertex list of enumerate_vertices(f) by full-exponent index mask."""
    members: dict[int, list[int]] = {mask: [] for mask in [0, *class_mask_order(f.k)]}
    for i, v in enumerate(vertices):
        members[v.xi_mask].append(i)
    expected_m = math.prod(f.exponents) - 1
    if len(members[0]) != expected_m:
        raise InconsistencyError(
            f"{len(members[0])} essential vertices for n = {f.n}, expected {expected_m}"
        )
    frozen = {mask: tuple(indices) for mask, indices in members.items()}
    return ClassPartition(f, tuple(vertices), frozen)


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
    return gcd_lemma_holds(n, d1, d2)


def gcd_lemma_holds(n: int, d1: int, d2: int) -> bool:
    """The biconditional of gcd_lemma_check, for inputs the caller has validated."""
    return (math.gcd(d1, d2) == 1) == ((n // d1) * (n // d2) % n == 0)
