import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from eigraph import FactoredInteger, InputError, divisor_count, factor, factor_range
from eigraph.arithmetic import check_caps, resolve_max_vertices, smallest_prime_factor_sieve


def test_factor_examples():
    assert factor(12).factors == ((2, 2), (3, 1))
    assert factor(12).k == 2
    assert factor(2700).factors == ((2, 2), (3, 3), (5, 2))
    assert factor(2700).k == 3
    assert factor(30030).factors == (
        (2, 1),
        (3, 1),
        (5, 1),
        (7, 1),
        (11, 1),
        (13, 1),
    )
    assert factor(30030).k == 6


def test_divisor_count_examples():
    assert divisor_count(factor(12)) == 6
    # worked example T = 34 means 36 divisors including 1 and n
    assert divisor_count(factor(2700)) == 36
    assert divisor_count(factor(32)) == 6


def test_factor_rejects_out_of_range():
    for bad in (0, 1, -5, 2**63, 2**63 + 1):
        with pytest.raises(InputError):
            factor(bad)


def test_factor_accepts_extremes():
    assert factor(2).factors == ((2, 1),)
    top = 2**63 - 1
    f = factor(top)
    assert math.prod(p**m for p, m in f.factors) == top


def test_factor_large_semiprime():
    # both factors above the trial-division limit
    p, q = 1_000_003, 1_000_033
    f = factor(p * q)
    assert f.factors == ((p, 1), (q, 1))


def test_factor_large_prime_power():
    p = 1_000_003
    assert factor(p * p).factors == ((p, 2),)


def test_exhaustive_roundtrip_to_one_million():
    for n in range(2, 1_000_001):
        f = factor(n)
        assert math.prod(p**m for p, m in f.factors) == n
        primes = f.primes
        assert all(primes[i] < primes[i + 1] for i in range(len(primes) - 1))
        assert all(m >= 1 for m in f.exponents)


def test_divisor_count_against_tau_sieve():
    limit = 100_000
    tau = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for multiple in range(d, limit + 1, d):
            tau[multiple] += 1
    for f in factor_range(limit):
        assert divisor_count(f) == tau[f.n]


def test_factor_range_agrees_with_factor():
    for f in factor_range(5000):
        assert f == factor(f.n)


def _spf_oracle(limit):
    """The per-multiple SPF loop: spf[i] = i for primes, 0 and 1."""
    spf = list(range(limit + 1))
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def _factor_range_oracle(limit):
    spf = _spf_oracle(limit)
    for n in range(2, limit + 1):
        rem = n
        factors = []
        while rem > 1:
            p = spf[rem]
            m = 0
            while rem % p == 0:
                rem //= p
                m += 1
            factors.append((p, m))
        yield FactoredInteger(n, tuple(factors))


def test_spf_sieve_matches_the_per_multiple_loop(factored_100k):
    limit = 10**5
    oracle = _spf_oracle(limit)
    spf = smallest_prime_factor_sieve(limit)
    assert len(spf) == limit + 1 and spf[0] == spf[1] == 0
    assert all((spf[i] or i) == oracle[i] for i in range(2, limit + 1))
    assert all(spf[p] == 0 for p in sympy.primerange(2, limit + 1))
    for small in range(0, 300):
        table = smallest_prime_factor_sieve(small)
        assert [table[i] or i for i in range(2, small + 1)] == _spf_oracle(small)[2:]
    assert factored_100k == list(_factor_range_oracle(limit))


def _check_window(end, start):
    expected = [factor(n) for n in range(max(start, 2), end + 1)]
    assert list(factor_range(end, start)) == expected, (end, start)
    if start <= 2:
        assert list(factor_range(end)) == expected, end


def test_factor_range_window_edges():
    windows = [(50, 2), (50, 1), (50, 0), (50, -7), (2, 2), (2, -1)]
    windows += [(97, 97), (100, 100), (50, 51), (10, 100), (2, 3)]
    windows += [(1, 0), (1, 2), (0, -3), (-5, -10), (-1, 5)]
    for p in (2, 3, 7, 31, 97, 313):
        sq = p * p
        windows += [(sq, p), (sq + 1, sq - 1), (sq, sq), (sq - 1, sq - 1), (sq + 1, sq + 1)]
        windows += [(sq + p, sq), (sq + p, sq + 1), (sq - 1, sq - p), (p + 1, p), (p, p)]
    for end, start in windows:
        _check_window(end, start)


@given(st.integers(min_value=-5, max_value=10**5), st.integers(min_value=-3, max_value=400))
@settings(max_examples=40, deadline=None)
def test_factor_range_window_agrees_with_factor(end, width):
    _check_window(end, end - width)


@given(st.integers(min_value=2, max_value=2**50))
@settings(max_examples=30, deadline=None)
def test_factor_parts_are_prime(n):
    f = factor(n)
    assert math.prod(p**m for p, m in f.factors) == n
    for p, _ in f.factors:
        assert sympy.isprime(p)


_ROOT_CAP = math.isqrt(2**63 - 1)
big_primes = st.integers(min_value=1_000_004, max_value=_ROOT_CAP).map(sympy.prevprime)


def _assert_roundtrip(n):
    f = factor(n)
    assert math.prod(p**m for p, m in f.factors) == n
    assert all(sympy.isprime(p) for p in f.primes)
    return f


@given(big_primes, st.data())
@settings(max_examples=25, deadline=None)
def test_factor_semiprime_near_2_63(p, data):
    # No factor is below the trial-division limit, so Pollard rho splits n.
    top = (2**63 - 1) // p
    q = sympy.prevprime(data.draw(st.integers(min_value=1_000_004, max_value=top)))
    assert set(_assert_roundtrip(p * q).primes) == {p, q}


@given(big_primes)
@settings(max_examples=25, deadline=None)
def test_factor_prime_square_near_2_63(p):
    assert _assert_roundtrip(p * p).factors == ((p, 2),)


def test_caps():
    check_caps(factor(2700))
    with pytest.raises(InputError):
        check_caps(factor(2700), max_t=10)
    assert resolve_max_vertices(None) == 20000
    assert resolve_max_vertices(50) == 50
    with pytest.raises(InputError):
        resolve_max_vertices(0)


def test_max_t_env_override(monkeypatch):
    monkeypatch.setenv("EIG_MAX_T", "5")
    with pytest.raises(InputError):
        check_caps(factor(2700))
    monkeypatch.setenv("EIG_MAX_T", "bogus")
    with pytest.raises(InputError):
        resolve_max_vertices(None)


def test_squarefree_and_prime_flags():
    assert factor(30).is_squarefree()
    assert not factor(12).is_squarefree()
    assert factor(7).is_prime()
    assert not factor(8).is_prime()
    assert factor(12).format_factorization() == "2^2 * 3"
