"""Integer factorization and divisor counting for moduli up to 2**63.

Everything downstream (ideal enumeration, graph construction) consumes a
FactoredInteger rather than a bare int, so each modulus is factored once.
Trial division up to 10**6 covers desk-scale inputs; a deterministic
Miller-Rabin test plus Pollard rho handles the leftover cofactor.  The
cap's value is resolved here; ideals.ClassQuotient owns T and n's rule.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

from .errors import InputError

MAX_N = 2**63
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


def require_int(name: str, value) -> None:
    """Refuse anything but an int, bool and float included, as an InputError."""
    if type(value) is not int:
        raise InputError(f"{name} must be an integer, got {value!r}")


def factor(n: int) -> FactoredInteger:
    """Factor n into (prime, exponent) pairs; deterministic for a given n."""
    require_int("n", n)
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


def no_composite_in(start: int, end: int) -> InputError:
    """The error for a range that holds no composite n, so nothing to graph; stated here only."""
    return InputError(f"no composite n in [{start}, {end}]")


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
    require_int("vertex cap", max_t)
    if max_t < 1:
        raise InputError(f"vertex cap must be positive, got {max_t}")
    return max_t


def factor_range(limit: int):
    """Yield factor(n) for every n in [2, limit], ascending.

    factor_window(2, limit) as a generator: a limit at or above 2**63 is
    refused when the first item is asked for, before any n is factored.
    """
    require_int("limit", limit)
    if limit >= MAX_N:
        raise _n_out_of_range(limit)
    yield from factor_window(2, limit)


def factor_window(start: int, end: int):
    """factor(n) for every n in [max(start, 2), end], ascending, built lazily.

    Each n is factored on its own, so memory does not grow with end; an end
    at or above 2**63 is refused before any n is factored.
    """
    require_int("start", start)
    require_int("end", end)
    if end >= MAX_N:
        raise _n_out_of_range(end)
    return map(factor, range(max(start, 2), end + 1))
