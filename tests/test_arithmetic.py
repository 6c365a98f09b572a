import dataclasses
import math
import pickle

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from eigraph import (
    FactoredInteger,
    InputError,
    divisor_count,
    enumerate_vertices,
    factor,
    factor_range,
    factor_window,
)
from eigraph.arithmetic import resolve_max_vertices, smallest_prime_factor_sieve


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


def test_factor_refuses_a_non_int():
    # 12.0 would otherwise factor, and its float n reach build_essential_graph
    for bad in (12.0, 2.0**62, True, "12", None):
        with pytest.raises(InputError, match="n must be an integer"):
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


def _walked(n):
    """The object factor_range's SPF walk yields for n <= 2710."""
    return list(factor_range(2710))[n - 2]


def test_constructor_paths_agree():
    for f in list(factor_range(2710))[2690 - 2 :]:
        by_hand = FactoredInteger(f.n, f.factors)
        by_keyword = FactoredInteger(factors=f.factors, n=f.n)
        for other in (factor(f.n), by_hand, by_keyword, pickle.loads(pickle.dumps(f))):
            assert other == f and hash(other) == hash(f) and repr(other) == repr(f)
    assert repr(factor(12)) == "FactoredInteger(n=12, factors=((2, 2), (3, 1)))"
    assert [field.name for field in dataclasses.fields(FactoredInteger)] == ["n", "factors"]
    assert factor(12) != factor(18)


def test_factored_integer_is_frozen():
    f = _walked(2700)
    for name, value in (("n", 5), ("factors", ((5, 1),)), ("k", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del f.n
    assert f == factor(2700)


def test_yielded_object_reads_like_a_factored_one():
    f = _walked(2700)
    assert (f.primes, f.exponents, f.k) == ((2, 3, 5), (2, 3, 2), 3)
    # cached_property values live in __dict__ beside the fields; eq, hash,
    # repr and pickling still see only n and factors.
    assert f == factor(2700) and hash(f) == hash(factor(2700))
    assert repr(f) == "FactoredInteger(n=2700, factors=((2, 2), (3, 3), (5, 2)))"
    assert pickle.loads(pickle.dumps(f)).primes == (2, 3, 5)
    moved = dataclasses.replace(f, n=5400, factors=((2, 3), (3, 3), (5, 2)))
    assert moved == factor(5400) and moved.primes == (2, 3, 5)
    assert dataclasses.replace(f) == f


def test_factor_range_walks_repeated_primes(factored_100k):
    limit = 10**5
    primes = list(sympy.primerange(2, limit // 2 + 1))
    wanted = {b**m for b in (2, 3) for m in range(1, 17) if b**m <= limit}
    for p in primes:
        for q in primes:
            if p * p * q > limit:
                break
            if q != p:
                wanted.add(p * p * q)  # with p and q swapped, also every p * q * q
    assert len(wanted) > 5000
    for n in sorted(wanted):
        assert factored_100k[n - 2] == factor(n), n
    assert factored_100k[2**16 - 2].factors == ((2, 16),)
    assert factored_100k[3**10 - 2].factors == ((3, 10),)
    assert factored_100k[7 * 7 * 13 - 2].factors == ((7, 2), (13, 1))
    assert factored_100k[7 * 13 * 13 - 2].factors == ((7, 1), (13, 2))


def test_factor_range_rejects_a_limit_at_2_63_before_sieving(monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"sieve built up to {limit}")

    monkeypatch.setattr("eigraph.arithmetic.smallest_prime_factor_sieve", no_sieve)
    for limit in (2**63, 2**64):
        with pytest.raises(InputError, match=rf"^n must satisfy 2 <= n < 2\*\*63, got {limit}$"):
            next(factor_range(limit))


def test_factor_window_rejects_an_end_at_2_63_before_factoring(monkeypatch):
    def no_factor(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr("eigraph.arithmetic.factor", no_factor)
    for start, end in ((2**63 - 8, 2**63), (2, 2**63), (-5, 2**63), (2**63, 2**64)):
        with pytest.raises(InputError, match=rf"^n must satisfy 2 <= n < 2\*\*63, got {end}$"):
            factor_window(start, end)


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
    assert list(factor_window(start, end)) == expected, (end, start)
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
    # enumerate_vertices compares T, read off the class quotient, with the cap
    assert len(enumerate_vertices(factor(2700))) == 34
    assert len(enumerate_vertices(factor(2700), max_t=34)) == 34
    with pytest.raises(InputError, match="n = 2700 yields T = 34 vertices, cap is 10"):
        enumerate_vertices(factor(2700), max_t=10)
    assert resolve_max_vertices(None) == 20000
    assert resolve_max_vertices(50) == 50
    with pytest.raises(InputError):
        resolve_max_vertices(0)


def test_resolve_max_vertices_refuses_a_non_int():
    # True would be a cap of 1, and "7" fail on the comparison
    for bad in (True, "7", 7.0):
        with pytest.raises(InputError, match="vertex cap must be an integer"):
            resolve_max_vertices(bad)


def test_factor_range_and_window_refuse_a_non_int():
    # a float would otherwise fail inside the sieve or range as a TypeError
    with pytest.raises(InputError, match="limit must be an integer"):
        next(factor_range(10.0))
    for start, end in ((4.0, 6), (4, 6.0), (4, True)):
        with pytest.raises(InputError, match="must be an integer"):
            factor_window(start, end)


def test_max_t_env_override(monkeypatch):
    monkeypatch.setenv("EIG_MAX_T", "5")
    with pytest.raises(InputError, match="n = 2700 yields T = 34 vertices, cap is 5"):
        enumerate_vertices(factor(2700))
    monkeypatch.setenv("EIG_MAX_T", "bogus")
    with pytest.raises(InputError):
        resolve_max_vertices(None)


def test_squarefree_and_prime_flags():
    assert factor(30).is_squarefree()
    assert not factor(12).is_squarefree()
    assert factor(7).is_prime()
    assert not factor(8).is_prime()
    assert factor(12).format_factorization() == "2^2 * 3"
