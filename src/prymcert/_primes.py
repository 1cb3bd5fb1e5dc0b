"""Primality testing and prime streams shared by the other modules."""

from __future__ import annotations

from collections.abc import Iterator

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the primes <= 41: exact for all n <
    3,317,044,064,679,887,385,961,981, a strong pseudoprime to each of them."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes(start: int = 2) -> Iterator[int]:
    """Yield primes >= start in increasing order (incremental sieve)."""
    composites: dict[int, list[int]] = {}
    q = 2
    while True:
        if q not in composites:
            if q >= start:
                yield q
            composites[q * q] = [q]
        else:
            for p in composites.pop(q):
                composites.setdefault(q + p, []).append(p)
        q += 1
