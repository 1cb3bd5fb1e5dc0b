"""Closed-form invariants of the trinomial curve family and its Prym variety.

For an odd prime p, an integer r >= 2 and m = pr - 1, n = 2m + 1, the degree-n
odd polynomial f defines a cyclic degree-p cover of the line with genus
(n-1)(p-1)/2 and an m(p-1)/2-dimensional Prym variety.  The order-p
automorphism acts on holomorphic differentials x^i dx/y^j with eigenvalue
zeta_p^(-j), and the order-2 automorphism with eigenvalue (-1)^(i+1-j); the
anti-invariant forms are exactly those with i and j of the same parity.  This
module tabulates the eigenvalue multiplicities on the anti-invariant part
(rj for even j, rj - 1 for odd j), evaluates the gcd/distinctness/inequality
facts consumed by the certificate engine, and the descent condition on
(p, r) that `scan` tabulates (condition_p_r).

All comparisons are exact: integers only, never floats.
"""

from __future__ import annotations

import math

from ._primes import is_prime
from ._record import Record


class FamilyParams(Record):
    """Parameter tuple (p, r, c) with derived m = pr - 1 and n = 2m + 1."""

    p: int
    r: int
    c: int = 1

    def __post_init__(self) -> None:
        if self.p == 2 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.r < 2:
            raise ValueError(f"r must be an integer >= 2, got {self.r}")
        if self.c == 0 or self.c % 2 == 0:
            raise ValueError(f"c must be an odd nonzero integer, got {self.c}")

    @property
    def m(self) -> int:
        return self.p * self.r - 1

    @property
    def n(self) -> int:
        return 2 * self.m + 1

    def to_json(self) -> dict:
        return {"p": self.p, "r": self.r, "m": self.m, "n": self.n, "c": self.c}


class MultiplicityTable(Record):
    """Multiplicity of the eigenvalue zeta_p^(-j) on the anti-invariant forms."""

    p: int
    r: int
    mult: dict[int, int]

    def values(self) -> tuple[int, ...]:
        return tuple(self.mult[j] for j in sorted(self.mult))

    def total(self) -> int:
        return sum(self.mult.values())

    def gcd(self) -> int:
        return math.gcd(*self.values())

    def to_json(self) -> dict:
        return {str(j): self.mult[j] for j in sorted(self.mult)}


def genus_curve(n: int, p: int) -> int:
    """Genus (n-1)(p-1)/2 of the smooth model of y^p = f(x), deg f = n."""
    if n < 4:
        raise ValueError(f"degree must be >= 4, got {n}")
    if n % p == 0:
        raise ValueError(f"p = {p} must not divide n = {n}")
    return (n - 1) * (p - 1) // 2


def dim_prym(p: int, m: int) -> int:
    """Dimension m(p-1)/2 of the Prym variety of the involution quotient."""
    return m * (p - 1) // 2


def multiplicity_table(p: int, r: int) -> MultiplicityTable:
    """Closed form: multiplicity rj for even j, rj - 1 for odd j."""
    mult = {j: r * j if j % 2 == 0 else r * j - 1 for j in range(1, p)}
    return MultiplicityTable(p, r, mult)


def multiplicities_coprime(p: int, r: int) -> bool:
    """Whether the eigenvalue multiplicities have gcd 1 (holds iff r is even)."""
    return multiplicity_table(p, r).gcd() == 1


def multiplicities_distinct(p: int, r: int) -> bool:
    """Whether the eigenvalue multiplicities are pairwise distinct."""
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    values = multiplicity_table(p, r).values()
    return len(set(values)) == len(values)


def non_jacobian_inequality(p: int, r: int) -> bool:
    """Exact check of r - 1 < (1/p)(2 dim Prym / (p-1)) - (p-2)/p.

    Both sides are multiplied by p(p-1) > 0, so the test is on integers:
    (r-1) p(p-1) < 2 dim Prym - (p-2)(p-1).  Algebraically this reduces to
    0 < 1/p, so it holds for every valid (p, r); it is still evaluated per
    instance because it is a leaf of the certificate.
    """
    d = dim_prym(p, p * r - 1)
    return (r - 1) * p * (p - 1) < 2 * d - (p - 2) * (p - 1)


class ConditionPR(Record):
    """Result of the (1 + 2^(r-2)) mod p test with its shortcut flags."""

    p: int
    r: int
    residue: int
    passed: bool
    shortcut_r_mod: bool  # r = 2 (mod p-1)
    shortcut_small: bool  # 2^(r-2) < p-1


def condition_p_r(p: int, r: int) -> ConditionPR:
    """Whether p does not divide 1 + 2^(r-2), with the two shortcut criteria.

    Shortcut (1): r = 2 (mod p-1) forces residue 2 by Fermat.  Shortcut (2):
    2^(r-2) < p - 1 keeps the value strictly between 1 and p.  Either
    shortcut implies a pass, which is asserted.
    """
    FamilyParams(p, r)  # validates p and r
    residue = (1 + pow(2, r - 2, p)) % p
    passed = residue != 0
    shortcut_r_mod = (r - 2) % (p - 1) == 0
    # r - 2 > bitlength(p) makes 2^(r-2) > p, so the power is never materialized
    shortcut_small = r - 2 <= p.bit_length() and 2 ** (r - 2) < p - 1
    assert not (shortcut_r_mod or shortcut_small) or passed
    return ConditionPR(p, r, residue, passed, shortcut_r_mod, shortcut_small)


# the names no command runs, defined in prymcert.reference and resolved from here (PEP 562)
_MOVED = {"BasisForm", "anti_invariant_partition", "omega_basis"}


def __getattr__(name):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import reference
    return getattr(reference, name)
