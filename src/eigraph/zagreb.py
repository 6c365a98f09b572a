"""First and second Zagreb indices of the essential ideal graph.

Definition-level sums over the built graph are the arbiter; the report
compares them with one closed form from the class counts, which holds
for every composite n.  The paper's forms by the shape of n (prime
power, squarefree by level counts, two primes) are references the tests
compare with it.  For squarefree n the report also carries the published
worked-example M2, which double-counts edges inside a level.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .arithmetic import FactoredInteger
from .errors import InputError
from .graph import KIND_ESSENTIAL, IdealGraph
from .ideals import ClassQuotient, subset_sums


def zagreb_by_definition(g: IdealGraph) -> tuple[int, int]:
    """M1 = sum of squared degrees; M2 = sum of degree products over edges.

    With P_b the bitset of vertices whose degree has bit b set, the
    neighbours of i have degree sum sum_b 2^b * |row_i & P_b|, made once
    per distinct row: twins share theirs.  Summing deg_i times that over
    all i counts every edge twice.
    """
    degs = g.degrees
    m1 = sum(d * d for d in degs)
    by_degree: dict[int, int] = {}
    for i, d in enumerate(degs):
        by_degree[d] = by_degree.get(d, 0) | 1 << i
    planes = [0] * max(degs).bit_length()
    for d, bits in by_degree.items():
        for b in range(d.bit_length()):
            if d >> b & 1:
                planes[b] |= bits
    neighbour_sums: dict[int, int] = {}
    twice_m2 = 0
    for di, row in zip(degs, g.adjacency):
        total = neighbour_sums.get(row)
        if total is None:
            total = sum((row & plane).bit_count() << b for b, plane in enumerate(planes))
            neighbour_sums[row] = total
        twice_m2 += di * total
    return m1, twice_m2 // 2


def zagreb_prime_power(m: int) -> tuple[int, int]:
    """Closed forms for n = p^m, a complete graph on m - 1 vertices."""
    if m < 2:
        raise InputError(f"prime-power exponent must be at least 2, got {m}")
    t = m - 1
    return (m - 1) * (t - 1) ** 2, comb(m - 1, 2) * (t - 1) ** 2


def squarefree_level_degree(k: int, i: int) -> int:
    """Degree of a vertex whose generator has i distinct primes (squarefree n)."""
    return 2 ** (k - i) - 1


def zagreb_squarefree_closed(k: int) -> tuple[int, int, int]:
    """(M1, edge-once M2, published-convention M2) for n a product of k primes.

    Vertices split into levels by the number of primes in the generator;
    level i has C(k, i) vertices of degree 2^(k-i) - 1.  The edge-once M2
    counts same-level pairs once and cross-level pairs once.  The published
    convention reproduces the worked-example evaluation, whose inner sum
    starts at s = t and therefore counts same-level edges twice.
    """
    if k < 2:
        raise InputError(f"need at least two primes, got k = {k}")
    m1 = sum(comb(k, i) * squarefree_level_degree(k, i) ** 2 for i in range(1, k))
    m2_once = squarefree_within_level_sum(k)
    for t in range(1, k):
        for s in range(t + 1, k - t + 1):
            m2_once += (
                comb(k, t)
                * comb(k - t, s)
                * squarefree_level_degree(k, t)
                * squarefree_level_degree(k, s)
            )
    m2_published = 0
    for t in range(1, k // 2 + 1):
        inner = sum(comb(k - t, s) * squarefree_level_degree(k, s) for s in range(t, k - t + 1))
        m2_published += comb(k, t) * squarefree_level_degree(k, t) * inner
    return m1, m2_once, m2_published


def squarefree_within_level_sum(k: int) -> int:
    """Degree products over same-level edges; the published M2 counts these twice."""
    total = 0
    for t in range(1, k // 2 + 1):
        total += comb(k, t) * comb(k - t, t) * squarefree_level_degree(k, t) ** 2 // 2
    return total


def zagreb_general_closed(quotient: ClassQuotient) -> tuple[int, int]:
    """Closed forms from the class sizes, for every composite n.

    Every vertex of class a has degree class_degree(a), so M1 is the sum
    of size * degree^2.  With w[a] = size * degree of class a, the sum over
    a of w[a] times the subset sum of w over full ^ a counts every edge
    twice, plus each essential vertex once with itself, as X is disjoint
    from itself: 2 * M2 is that sum less m * (T - 1)^2.
    """
    full = (1 << quotient.modulus.k) - 1
    degrees = [quotient.class_degree(a) for a in range(full + 1)]
    w = [size * degree for size, degree in zip(quotient.sizes, degrees)]
    m1 = sum(wa * degree for wa, degree in zip(w, degrees))
    disjoint_w = subset_sums(w, quotient.modulus.k)
    twice_m2 = sum(wa * disjoint_w[full ^ a] for a, wa in enumerate(w))
    return m1, (twice_m2 - quotient.m * (quotient.T - 1) ** 2) // 2


def zagreb_two_prime(f: FactoredInteger) -> tuple[int, int]:
    """Corollary forms for n = p1^m1 * p2^m2 with some exponent above 1."""
    if f.k != 2 or f.is_squarefree():
        raise InputError(f"n = {f.n} is not a two-prime power with an exponent above 1")
    m1_exp, m2_exp = f.exponents
    m = m1_exp * m2_exp - 1
    t = (m1_exp + 1) * (m2_exp + 1) - 2
    first = m * (t - 1) ** 2 + m1_exp * (m + m2_exp) ** 2 + m2_exp * (m + m1_exp) ** 2
    second = (
        comb(m, 2) * (t - 1) ** 2
        + m * (t - 1) * (m * (m1_exp + m2_exp) + 2 * m1_exp * m2_exp)
        + m1_exp * m2_exp * (m + m1_exp) * (m + m2_exp)
    )
    return first, second


@dataclass(frozen=True)
class ZagrebReport:
    """Definition and closed-form values with agreement flags."""

    n: int
    k: int
    T: int
    m1_definition: int
    m2_definition: int
    m1_closed: int
    m2_closed: int
    m2_paper_convention: int | None

    @property
    def m1_agrees(self) -> bool:
        return self.m1_definition == self.m1_closed

    @property
    def m2_agrees(self) -> bool:
        return self.m2_definition == self.m2_closed

    @property
    def paper_convention_differs(self) -> bool | None:
        if self.m2_paper_convention is None:
            return None
        return self.m2_paper_convention != self.m2_definition

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "T": self.T,
            "M1_definition": self.m1_definition,
            "M2_definition": self.m2_definition,
            "M1_closed": self.m1_closed,
            "M2_closed": self.m2_closed,
            "M2_paper_convention": self.m2_paper_convention,
            "M1_agrees": self.m1_agrees,
            "M2_agrees": self.m2_agrees,
            "paper_convention_differs": self.paper_convention_differs,
        }

    def csv_row(self) -> str:
        """The eight values of to_json_dict() (None as ""), then its three flags."""
        values = list(self.to_json_dict().values())
        cells = ["" if v is None else str(v) for v in values[:8]]
        flags = zip(("m1_agree", "m2_agree", "paper_differs"), values[8:])
        return ",".join(cells + [";".join(f"{name}={_CSV_FLAG[v]}" for name, v in flags)])


_CSV_FLAG = {True: "true", False: "false", None: "na"}
ZAGREB_CSV_HEADER = "n,k,T,M1_def,M2_def,M1_closed,M2_closed,M2_paper_convention,flags"

ZAGREB_JSON_SCHEMA = {
    "type": "object",
    "required": [
        "n",
        "k",
        "T",
        "M1_definition",
        "M2_definition",
        "M1_closed",
        "M2_closed",
        "M2_paper_convention",
        "M1_agrees",
        "M2_agrees",
        "paper_convention_differs",
    ],
    "properties": {
        "n": {"type": "integer"},
        "k": {"type": "integer"},
        "T": {"type": "integer"},
        "M1_definition": {"type": "integer"},
        "M2_definition": {"type": "integer"},
        "M1_closed": {"type": "integer"},
        "M2_closed": {"type": "integer"},
        "M2_paper_convention": {"type": ["integer", "null"]},
        "M1_agrees": {"type": "boolean"},
        "M2_agrees": {"type": "boolean"},
        "paper_convention_differs": {"type": ["boolean", "null"]},
    },
}


def compute_zagreb_report(g: IdealGraph) -> ZagrebReport:
    """Definition values on the essential ideal graph g of Z_n, plus the class-count closed form."""
    f = g.factored
    if g.kind != KIND_ESSENTIAL:
        raise InputError(f"the Zagreb closed forms are for the essential ideal graph, not {g.kind}")
    m1_def, m2_def = zagreb_by_definition(g)
    m1_closed, m2_closed = zagreb_general_closed(g.classes)
    published = zagreb_squarefree_closed(f.k)[2] if f.is_squarefree() else None
    return ZagrebReport(
        n=f.n,
        k=f.k,
        T=g.order,
        m1_definition=m1_def,
        m2_definition=m2_def,
        m1_closed=m1_closed,
        m2_closed=m2_closed,
        m2_paper_convention=published,
    )
