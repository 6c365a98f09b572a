"""Seeded CLI inputs for the eigraph benchmark workloads.

A workload is a fixed list of ``eigraph`` argv lists built from a seed; the
program under test receives only these lists.  The generator factors by its
own trial division, so it does not depend on the code it measures.

Each workload keeps the input property its cost depends on fixed across
seeds and lets the seed choose everything else:

* ``verify-sweep``: one composite n <= SWEEP_CAP per exponent signature, so
  every seed carries the same mix of search-free and search-heavy n.  The
  cap stops below 2520 = 2^3*3^2*5*7, which alone takes about 40 s; it
  includes 1680 = 2^4*3*5*7 (product-over-blocks search) and 2310 (the
  all-singletons search), the only n of their signatures below the cap.
* ``large-t``: one n with LARGE_SIGNATURE (T = 1438) and MEDIUM_COUNT n
  with MEDIUM_SIGNATURE (T = 358).  The seed picks which small primes take
  which exponents; the graph is the same up to isomorphism.  T stays at
  1438, not 2878: on this benchmark's 2-core host a T = 2878 pass takes
  16-22 s, so its costliest calls run once or twice in a run and their
  figures follow the host's load; at 1438 each call runs several times.
* ``far-window``: two narrow windows far beyond the other workloads' n.
  The slot of each window is fixed, because the range sieve over [2, end]
  costs in proportion to the window's end; the seed moves the window
  inside its slot, which changes every n swept but the sieve's length by
  at most 3 %.  The slots sit near 2*10^5 and the windows are 50 n wide,
  where the sieve is still most of each call's time and a call takes
  under a second, so each of the four calls repeats about twenty times
  in a run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
WORKLOADS = ("verify-sweep", "large-t", "far-window")

SWEEP_CAP = 2400
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
LARGE_SIGNATURE = (4, 3, 2, 2, 1, 1, 1)
MEDIUM_SIGNATURE = (4, 2, 2, 1, 1, 1)
MEDIUM_COUNT = 5
LARGE_COMMANDS = (("graph",), ("aig",), ("classes",), ("zagreb",), ("dim",))
MEDIUM_COMMANDS = LARGE_COMMANDS + (
    ("graph", "--format", "json"),
    ("distances", "--format", "json"),
    ("dim", "--format", "json"),
)
WINDOW_WIDTH = 50
WINDOW_SLOTS = (200_000, 220_000)
WINDOW_JITTER = 5_000
FAR_CHECKS = "adjacency,distances,partition,join,zagreb,iso,bounds"
MAX_N = 2**63


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the range of n it asks about (lo == hi for one n)."""

    argv: tuple[str, ...]
    window: tuple[int, int]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n >= 2 by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            m = 0
            while n % p == 0:
                n //= p
                m += 1
            out.append((p, m))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def signature(n: int) -> tuple[int, ...]:
    """Exponents of n, largest first."""
    return tuple(sorted((m for _, m in factorize(n)), reverse=True))


def vertex_count(sig) -> int:
    """T = number of divisors minus 2 for an exponent signature."""
    t = 1
    for m in sig:
        t *= m + 1
    return t - 2


def _from_signature(rng: random.Random, sig) -> int:
    n = 1
    for p, m in zip(rng.sample(SMALL_PRIMES, len(sig)), sig):
        n *= p**m
    if n >= MAX_N:
        raise ValueError(f"generated n = {n} is not below 2**63")
    return n


def _verify_sweep(rng: random.Random) -> list[Call]:
    groups: dict[tuple[int, ...], list[int]] = {}
    for n in range(4, SWEEP_CAP + 1):
        sig = signature(n)
        if sig != (1,):
            groups.setdefault(sig, []).append(n)
    chosen = sorted(rng.choice(groups[sig]) for sig in sorted(groups))
    return [Call(("verify", str(n), str(n), "--format", "json"), (n, n)) for n in chosen]


def _single_n_calls(n: int, commands) -> list[Call]:
    return [Call((cmd[0], str(n)) + cmd[1:], (n, n)) for cmd in commands]


def _large_t(rng: random.Random) -> list[Call]:
    calls = _single_n_calls(_from_signature(rng, LARGE_SIGNATURE), LARGE_COMMANDS)
    medium: list[int] = []
    while len(medium) < MEDIUM_COUNT:
        n = _from_signature(rng, MEDIUM_SIGNATURE)
        if n not in medium:
            medium.append(n)
    for n in medium:
        calls.extend(_single_n_calls(n, MEDIUM_COMMANDS))
    return calls


def _far_window(rng: random.Random) -> list[Call]:
    calls = []
    for slot in WINDOW_SLOTS:
        start = slot + rng.randrange(WINDOW_JITTER)
        end = start + WINDOW_WIDTH - 1
        s, e = str(start), str(end)
        calls.append(Call(("zagreb", s, e, "--format", "csv"), (start, end)))
        calls.append(Call(("verify", s, e, "--checks", FAR_CHECKS), (start, end)))
    return calls


_BUILDERS = {
    "verify-sweep": _verify_sweep,
    "large-t": _large_t,
    "far-window": _far_window,
}


def generate(workload: str, seed: int) -> list[Call]:
    """The workload's fixed call list for this seed."""
    try:
        build = _BUILDERS[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}") from None
    return build(random.Random(seed))
