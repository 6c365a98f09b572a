import math

import pytest

from eigraph import (
    build_aig,
    build_essential_graph,
    check_divisor_conjugate_iso,
    factor,
    factor_range,
)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
LARGE_T = (1321091265351, 203903066266900)  # T = 358 and T = 1438
K12_K13 = (14841476269620, 608500527054420)  # k = 12 (T = 6142) and k = 13 (T = 12286)


@pytest.fixture(scope="session")
def factored_100k():
    """FactoredInteger for every n in [2, 100000]; index i holds n = i + 2."""
    return list(factor_range(100_000))


def composites(factored, lo, hi, squarefree=None):
    """Composite n >= 4 in [lo, hi] from a factored list, optionally filtered."""
    for f in factored[max(lo, 4) - 2 : hi - 1]:
        if f.is_prime():
            continue
        if squarefree is not None and f.is_squarefree() != squarefree:
            continue
        yield f


def conjugate_check(f):
    """Divisor-conjugate check on freshly built essential graph and AIG of f."""
    return check_divisor_conjugate_iso(build_essential_graph(f), build_aig(f))


def primorial_graph(k):
    """Essential graph of 2 * 3 * ... * p_k, the field-product model on k slots.

    Z_n for this n is the product of the k fields F_p, and xi_mask reads
    each ideal as the set of slots where it is zero.
    """
    return build_essential_graph(factor(math.prod(PRIMES[:k])))
