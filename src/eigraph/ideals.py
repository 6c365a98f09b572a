"""The ideal model of Z_n.

A nonzero proper ideal <d> of Z_n is encoded by the exponent vector of its
generator d over the prime factorization of n.  The set of indices where
the generator carries the full exponent of n (stored as a bitmask) drives
every adjacency, class, and resolving-set computation downstream: two
vertices are adjacent in the essential ideal graph exactly when those
index sets are disjoint.  The class quotient counts the vertices of each
mask from the exponents alone and owns every law of those counts: the
composite rule, and T for the cap check.  The class partition lists the
vertices as three columns, generator, mask and exponent vector, and groups
their indices by mask, X at mask 0, the format of the similarity blocks.
Production code reads the columns; an `Ideal` is built only for library
callers and oracles, from the columns, when they read `vertices`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product, repeat

from .arithmetic import FactoredInteger, factor, resolve_max_vertices
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
    return list(class_partition(f, max_t).vertices)


def is_essential(ideal: Ideal) -> bool:
    """True iff every exponent is strictly below the full exponent of n."""
    return ideal.xi_mask == 0


def essential_generators(f: FactoredInteger) -> frozenset[int]:
    """Ring-definition essentiality oracle: the generators d of the essential <d>.

    <d> meets every nonzero ideal iff lcm(d, e) < n for every proper divisor
    e > 1 of n.  The divisors are listed once from the factors, in plain
    integer arithmetic, so the oracle is independent of the xi_mask route.
    Each d is tested against the divisors in descending order: an e with
    lcm(d, e) = n, if there is one, carries most of n and comes early.
    """
    n = f.n
    powers = ([p**r for r in range(m + 1)] for p, m in f.factors)
    divisors = sorted((e for e in map(math.prod, product(*powers)) if 1 < e < n), reverse=True)
    return frozenset(d for d in divisors if n not in map(math.lcm, repeat(d), divisors))


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
class ClassQuotient:
    """The class law of Z_n from the exponents alone; it lists no vertex.

    sizes[a] counts the vertices of mask a, for each of the 2^k masks:
    prod_{i not in a} m_i, one less for X at mask 0, and 0 for the full
    mask.  m = sizes[0] counts the essential vertices and T all of them.
    """

    modulus: FactoredInteger

    def __post_init__(self) -> None:
        if self.modulus.n < 4 or self.modulus.is_prime():  # no nonzero proper ideal to graph
            raise InputError(f"n must be composite and at least 4, got {self.modulus.n}")

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        sizes = [1]
        for m in self.modulus.exponents:  # bit i clear: times m_i; set: times 1
            sizes = [s * m for s in sizes] + sizes
        return (sizes[0] - 1, *sizes[1:-1], 0)

    @property
    def m(self) -> int:
        return self.sizes[0]

    @cached_property
    def T(self) -> int:
        return sum(self.sizes)

    @cached_property
    def _degree_table(self) -> list[int]:
        return subset_sums(self.sizes, self.modulus.k)

    def class_degree(self, mask: int) -> int:
        """Degree of every vertex in the class: the disjoint class sizes, less itself in X."""
        full = (1 << self.modulus.k) - 1
        return self._degree_table[full ^ mask] - (not mask)

    def universal_masks(self) -> list[int]:
        """The proper masks of degree T - 1, ascending: X, even when empty, first."""
        return [a for a in range((1 << self.modulus.k) - 1) if self.class_degree(a) == self.T - 1]

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


@dataclass(frozen=True)
class ClassPartition(ClassQuotient):
    """The class quotient with its vertices, listed and grouped on first read.

    The listing is three parallel columns, ascending by generator:
    generators (d), masks (xi_mask) and exponent_vectors; vertices is their
    Ideal view for library callers and oracles.  members[a] holds class a's
    ascending indices, X at mask 0 first, then class_mask_order.  Both are
    checked against the class law.  Built directly it lists without a cap.
    """

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The listing: generators, masks and exponent vectors, ascending by generator."""
        f = self.modulus
        # d and the mask are built one prime at a time in product() order, the
        # last prime fastest, so they line up with the exponent vectors that
        # product() yields; nothing is validated per vertex.  Ordered by d,
        # the unit ideal is first and zero last.
        ds, masks = [1], [0]
        for i, (p, m) in enumerate(f.factors):
            powers, bits = [p**r for r in range(m + 1)], [0] * m + [1 << i]
            ds = [d * q for d in ds for q in powers]
            masks = [a | b for a in masks for b in bits]
        order = sorted(range(len(ds)), key=ds.__getitem__)[1:-1]
        if len(order) != self.T:
            raise InconsistencyError(f"{len(order)} vertices for n = {f.n}, expected {self.T}")
        exps = list(product(*(range(m + 1) for m in f.exponents)))
        return tuple(tuple(map(column.__getitem__, order)) for column in (ds, masks, exps))

    generators = property(lambda self: self.columns[0], doc="Each vertex's generator d.")
    masks = property(lambda self: self.columns[1], doc="Each vertex's xi_mask.")
    exponent_vectors = property(lambda self: self.columns[2], doc="Each vertex's exponents.")

    @cached_property
    def vertices(self) -> tuple[Ideal, ...]:
        """The Ideal view of the columns, for library callers and oracles."""
        f = self.modulus
        return tuple(map(Ideal, repeat(f), self.exponent_vectors, self.generators, self.masks))

    @cached_property
    def members(self) -> dict[int, tuple[int, ...]]:
        f, sizes = self.modulus, self.sizes
        members: dict[int, list[int]] = {a: [] for a in [0, *class_mask_order(f.k)]}
        for i, a in enumerate(self.masks):
            members[a].append(i)
        for a, c in members.items():
            if len(c) != sizes[a]:
                raise InconsistencyError(f"class {a} of {f.n} lists {len(c)}, not {sizes[a]}")
        return {a: tuple(c) for a, c in members.items()}

    def similarity_blocks(self) -> list[tuple[int, ...]]:
        """Distance-similar blocks of the essential ideal graph, universal block first.

        Twin classes are cliques or independent sets (Hernando, Mora,
        Pelayo, Seara and Wood, Electron. J. Combin. 17 (2010) R30).  The
        universal vertices, those of universal_masks(), are closed twins
        of one another and form one block; every other nonempty class is
        its own block.  A universal class outside X is the singleton {p^a}
        of n = p^a * q, or either prime of n = pq.
        """
        masks = self.universal_masks()
        universal = sorted(i for a in masks for i in self.members[a])
        others = [c for a, c in self.members.items() if a not in masks]
        return ([tuple(universal)] if universal else []) + others

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
        masks = self.masks
        near, far = self.distance_layers(masks)
        row = bytearray(sep.join("0" * len(masks)).encode())
        step = len(sep) + 1
        shared = {}
        for i, a in enumerate(masks):
            digits = shared.get(a)
            if digits is None:
                digits = distance_digits(near[a], far[a], len(masks)).encode()
                if self.sizes[a] > 1:
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


def class_partition(f: FactoredInteger, max_t: int | None = None) -> ClassPartition:
    """The class partition of Z_n with its vertices listed; refuses T over the cap."""
    part = ClassPartition(f)
    t, cap = part.T, resolve_max_vertices(max_t)  # before any vertex is listed
    if t > cap:
        raise InputError(f"n = {f.n} yields T = {t} vertices, cap is {cap}")
    part.columns  # listed here, after the cap check, for every caller
    return part


def gcd_lemma_check(n: int, d1: int, d2: int) -> bool:
    """For squarefree n, test gcd(d1, d2) = 1  <=>  n | (n/d1)(n/d2).

    Returns whether the biconditional holds for this triple; it is expected
    to hold for every pair of distinct nontrivial proper divisors.
    """
    if any(type(x) is not int for x in (n, d1, d2)):
        raise InputError(f"n, d1 and d2 must be integers, got {n!r}, {d1!r}, {d2!r}")
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
