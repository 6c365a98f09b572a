"""Integer factorization and divisor counting for moduli up to 2**63.

Everything downstream (ideal enumeration, graph construction) consumes a
FactoredInteger rather than a bare int, so each modulus is factored once.
Trial division up to 10**6 covers desk-scale inputs; a deterministic
Miller-Rabin test plus Pollard rho handles the leftover cofactor.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

from .errors import InputError

MAX_N = 2**63
MAX_DISTINCT_PRIMES = 20
DEFAULT_MAX_VERTICES = 20000
MAX_VERTICES_ENV = "EIG_MAX_T"

_TRIAL_LIMIT = 1_000_000
# Deterministic Miller-Rabin witnesses for n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)  # gaps between integers coprime to 30, from 7


@dataclass(frozen=True, init=False)
class FactoredInteger:
    """An integer n with its prime factorization, primes strictly ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __init__(self, n: int, factors: tuple[tuple[int, int], ...]) -> None:
        # The generated frozen __init__ pays one object.__setattr__ per field.
        # Writing the instance __dict__, the route cached_property takes, skips
        # those calls and leaves eq, hash, repr and immutability unchanged.
        state = self.__dict__
        state["n"] = n
        state["factors"] = factors

    @property
    def k(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    # cached_property stores into the instance __dict__, so it works on a
    # frozen dataclass and costs nothing until first read.
    @cached_property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @cached_property
    def exponents(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.factors)

    def is_squarefree(self) -> bool:
        return all(m == 1 for _, m in self.factors)

    def is_prime(self) -> bool:
        return self.k == 1 and self.factors[0][1] == 1

    def format_factorization(self) -> str:
        return " * ".join(f"{p}^{m}" if m > 1 else str(p) for p, m in self.factors)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (valid below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Return a nontrivial divisor of composite odd n (deterministic sweep over c)."""
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def _factor_hard(m: int, counts: dict[int, int]) -> None:
    # m has no prime factor below _TRIAL_LIMIT; split it recursively.
    stack = [m]
    while stack:
        x = stack.pop()
        if is_prime(x):
            counts[x] = counts.get(x, 0) + 1
            continue
        d = _pollard_rho(x)
        stack.append(d)
        stack.append(x // d)


def _n_out_of_range(n: int) -> InputError:
    """The error for an n outside [2, MAX_N), stated here only."""
    return InputError(f"n must satisfy 2 <= n < 2**63, got {n}")


def factor(n: int) -> FactoredInteger:
    """Factor n into (prime, exponent) pairs; deterministic for a given n."""
    if n < 2 or n >= MAX_N:
        raise _n_out_of_range(n)
    counts: dict[int, int] = {}
    rem = n
    for p in (2, 3, 5):
        while rem % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rem //= p
    p = 7
    i = 0
    while p * p <= rem and p < _TRIAL_LIMIT:
        while rem % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rem //= p
        p += _WHEEL[i]
        i = (i + 1) & 7
    if rem > 1:
        if p * p > rem:
            counts[rem] = counts.get(rem, 0) + 1
        else:
            _factor_hard(rem, counts)
    return FactoredInteger(n, tuple(sorted(counts.items())))


def divisor_count(f: FactoredInteger) -> int:
    """Number of divisors of n, i.e. prod(m_i + 1)."""
    out = 1
    for _, m in f.factors:
        out *= m + 1
    return out


def require_composite(f: FactoredInteger) -> None:
    """Reject n below 4 or prime: Z_n then has no nonzero proper ideal to graph."""
    if f.n < 4 or f.is_prime():
        raise InputError(f"n must be composite and at least 4, got {f.n}")


def resolve_max_vertices(max_t: int | None = None) -> int:
    """Effective vertex cap: explicit value, else EIG_MAX_T, else the default."""
    if max_t is None:
        raw = os.environ.get(MAX_VERTICES_ENV)
        if raw is None:
            return DEFAULT_MAX_VERTICES
        try:
            max_t = int(raw)
        except ValueError as exc:
            raise InputError(f"{MAX_VERTICES_ENV} must be an integer, got {raw!r}") from exc
    if max_t < 1:
        raise InputError(f"vertex cap must be positive, got {max_t}")
    return max_t


def check_caps(f: FactoredInteger, max_t: int | None = None) -> None:
    """Reject inputs whose graph would exceed the desk-scale caps."""
    if f.k > MAX_DISTINCT_PRIMES:
        raise InputError(
            f"n = {f.n} has {f.k} distinct primes, cap is {MAX_DISTINCT_PRIMES}"
        )
    cap = resolve_max_vertices(max_t)
    t = divisor_count(f) - 2
    if t > cap:
        raise InputError(f"n = {f.n} yields T = {t} vertices, cap is {cap}")


def smallest_prime_factor_sieve(limit: int) -> list[int]:
    """spf[i] = smallest prime factor of composite i, for 0 <= i <= limit.

    Primes, 0 and 1 read 0. The table starts as 2 at every even cell; then
    each odd prime p <= isqrt(limit) fills its odd multiples from p*p with
    one slice assignment, largest p first, so the smallest odd prime factor
    is written last and wins.
    """
    if limit < 2:
        return [0] * (limit + 1)
    root = math.isqrt(limit)
    composite = bytearray(root + 1)
    for i in range(2, math.isqrt(root) + 1):
        if not composite[i]:
            composite[i * i :: i] = b"\x01" * len(range(i * i, root + 1, i))
    spf = [2, 0] * (limit // 2 + 2)
    spf[0] = spf[2] = 0
    del spf[limit + 1 :]
    for p in range(root - 1 + root % 2, 2, -2):
        if not composite[p]:
            spf[p * p :: 2 * p] = [p] * len(range(p * p, limit + 1, 2 * p))
    return spf


def factor_range(limit: int):
    """Yield FactoredInteger for every n in [2, limit], ascending.

    Each n walks the chain rem -> rem // spf[rem] over a smallest-prime-factor
    table spanning [0, limit], one floor division per prime factor counted
    with multiplicity, and a prime n (spf[n] == 0) is yielded without any.
    """
    if limit >= MAX_N:
        raise _n_out_of_range(limit)
    spf = smallest_prime_factor_sieve(limit)
    for n in range(2, limit + 1):
        p = spf[n]
        if not p:
            yield FactoredInteger(n, ((n, 1),))
            continue
        factors = []
        m = 1
        rem = n // p
        while rem > 1:
            q = spf[rem] or rem
            if q == p:
                m += 1
            else:
                factors.append((p, m))
                p = q
                m = 1
            rem //= q
        factors.append((p, m))
        yield FactoredInteger(n, tuple(factors))


def factor_window(start: int, end: int):
    """factor(n) for every n in [max(start, 2), end], ascending, built lazily.

    Each n is factored on its own, so memory does not grow with end; an end
    at or above 2**63 is refused before any n is factored.
    """
    if end >= MAX_N:
        raise _n_out_of_range(end)
    return map(factor, range(max(start, 2), end + 1))
