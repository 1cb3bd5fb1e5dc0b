"""Signed permutations of the labeled root set {0, +-b_1, ..., +-b_m}.

An element (eps, s) sends 0 to 0 and b_i to eps(i) * b_{s(i)}; the signed
labels are the integers +-1..+-m, so 2m points carry the action relevant to
an even polynomial of degree 2m and 2m+1 points the action for its odd
multiple by x.  The group of all such elements is 2^m.S_m; the kernel of the
sign forgetting projection kappa (eps, s) -> s is the sign group E_m = 2^m,
and the elements with sign product +1 form the index-2 subgroup W(D_m) of
order 2^(m-1) m!.

Groups are handled as descriptors plus generator sets.  Orbits,
transitivity and element lists (under an explicit budget) come from
generator closure; the census of a named kind counts classes and lists no
element.

Cycle types serialize as sorted integer lists, e.g. [2, 4]; descriptors as
{"kind": "WDm", "m": 5}.  A cycle of s lifts to labels by intpoly.sign_lift.
"""

from __future__ import annotations

import itertools
import math

from ._primes import is_prime
from ._record import Record
from .intpoly import CycleType, sign_lift

# census / element-enumeration budget: group order at most 2^7 * 8!
DEFAULT_ENUM_BUDGET = 2**7 * math.factorial(8)


class EnumerationBudgetError(ValueError):
    """Raised when a group's order exceeds the budget of elements or census.

    A ValueError, so a command that asks for such a census (sampling at large
    m) is refused as bad input before any prime is factored.
    """


class SignedPerm:
    """An element (eps, s): immutable, hashable, with the label action built in.

    s is a 0-based image tuple (s[i] is the image of i) and eps a tuple of
    +-1.  Products compose label maps: (g1 * g2) acts as g1 after g2.
    """

    __slots__ = ("s", "eps")

    def __init__(self, s, eps):
        s = tuple(s)
        eps = tuple(eps)
        if sorted(s) != list(range(len(s))):
            raise ValueError(f"not a permutation of 0..{len(s) - 1}: {s}")
        if len(eps) != len(s) or any(e not in (1, -1) for e in eps):
            raise ValueError("eps must be a vector of +-1 of matching length")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "eps", eps)

    def __setattr__(self, name, value):
        raise AttributeError("SignedPerm is immutable")

    @classmethod
    def identity(cls, m: int) -> SignedPerm:
        return cls(range(m), (1,) * m)

    @classmethod
    def transposition(cls, m: int, i: int, j: int) -> SignedPerm:
        """Swap i and j (1-based), all signs +1."""
        s = list(range(m))
        s[i - 1], s[j - 1] = s[j - 1], s[i - 1]
        return cls(s, (1,) * m)

    @classmethod
    def full_cycle(cls, m: int) -> SignedPerm:
        """The m-cycle 1 -> 2 -> ... -> m -> 1, all signs +1."""
        return cls(tuple((i + 1) % m for i in range(m)), (1,) * m)

    @classmethod
    def three_cycle(cls, m: int) -> SignedPerm:
        """The cycle 1 -> 2 -> 3 -> 1 for m >= 3, all signs +1."""
        s = list(range(m))
        s[0], s[1], s[2] = 1, 2, 0
        return cls(s, (1,) * m)

    @classmethod
    def sign_flip(cls, m: int, i: int) -> SignedPerm:
        """Flip the sign at position i (1-based), identity permutation."""
        eps = [1] * m
        eps[i - 1] = -1
        return cls(range(m), eps)

    @classmethod
    def random(cls, m: int, rng) -> SignedPerm:
        s = list(range(m))
        rng.shuffle(s)
        return cls(s, tuple(rng.choice((1, -1)) for _ in range(m)))

    @property
    def m(self) -> int:
        return len(self.s)

    @property
    def is_identity(self) -> bool:
        return self.s == tuple(range(self.m)) and all(e == 1 for e in self.eps)

    def __mul__(self, other: SignedPerm) -> SignedPerm:
        """Composition of label maps, other applied first."""
        if self.m != other.m:
            raise ValueError(f"mismatched sizes {self.m} and {other.m}")
        s1, e1 = self.s, self.eps
        s2, e2 = other.s, other.eps
        s = tuple(s1[s2[i]] for i in range(len(s1)))
        eps = tuple(e2[i] * e1[s2[i]] for i in range(len(s1)))
        return SignedPerm(s, eps)

    def inverse(self) -> SignedPerm:
        inv = [0] * self.m
        eps = [1] * self.m
        for i, img in enumerate(self.s):
            inv[img] = i
            eps[img] = self.eps[i]
        return SignedPerm(inv, eps)

    def act_label(self, label: int) -> int:
        """Action on the signed labels {0, +-1, ..., +-m}."""
        if label == 0:
            return 0
        i = abs(label) - 1
        image = self.eps[i] * (self.s[i] + 1)
        return image if label > 0 else -image

    def act_point(self, i: int) -> int:
        """Projected action on the base points {1, ..., m}."""
        return self.s[i - 1] + 1

    def sign_product(self) -> int:
        return math.prod(self.eps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignedPerm)
            and self.s == other.s
            and self.eps == other.eps
        )

    def __hash__(self) -> int:
        return hash((self.s, self.eps))

    def __repr__(self) -> str:
        s_one = tuple(v + 1 for v in self.s)
        return f"SignedPerm(s={s_one}, eps={self.eps})"

    def to_json(self) -> dict:
        return {"s": [v + 1 for v in self.s], "eps": list(self.eps)}


def _cycles_of(s: tuple[int, ...]) -> list[list[int]]:
    seen = [False] * len(s)
    cycles = []
    for start in range(len(s)):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = s[i]
        cycles.append(cyc)
    return cycles


def induced_cycle_type(g: SignedPerm) -> CycleType:
    """Cycle type of the action on the 2m nonzero labels, by intpoly.sign_lift."""
    return CycleType([
        n
        for cyc in _cycles_of(g.s)
        for n in sign_lift(len(cyc), math.prod(g.eps[i] for i in cyc))
    ])


# ---------------------------------------------------------------------------
# labeled root sets
# ---------------------------------------------------------------------------


class LabeledRoots(Record):
    """The label set R_f (2m+1 points), R_h (2m) or R_u (m points)."""

    m: int
    kind: str  # "R_f" | "R_h" | "R_u"

    def __post_init__(self):
        if self.kind not in ("R_f", "R_h", "R_u"):
            raise ValueError(f"unknown root-set kind {self.kind!r}")

    def labels(self) -> tuple[int, ...]:
        pm = [i for i in range(1, self.m + 1)] + [-i for i in range(1, self.m + 1)]
        if self.kind == "R_f":
            return tuple([0] + pm)
        if self.kind == "R_h":
            return tuple(pm)
        return tuple(range(1, self.m + 1))

    def act(self, g: SignedPerm, label: int) -> int:
        if self.kind == "R_u":
            return g.act_point(label)
        return g.act_label(label)


def roots_h(m: int) -> LabeledRoots:
    return LabeledRoots(m, "R_h")


def roots_u(m: int) -> LabeledRoots:
    return LabeledRoots(m, "R_u")


# ---------------------------------------------------------------------------
# group descriptors
# ---------------------------------------------------------------------------

# The named kinds, each as (permutations of the base points, sign vectors):
# the permutations are "all", "even" or "identity", the sign vectors "none"
# (all +1), "all" or "even" (product +1).  order() and census() read this
# table; generators() describes the same groups by hand, and elements()
# closes those generators, so each description is a check on the other.
_KINDS = {
    "Sm": ("all", "none"),
    "Am": ("even", "none"),
    "Em": ("identity", "all"),
    "Em0": ("identity", "even"),
    "WDm": ("all", "even"),
    "TwoM_Sm": ("all", "all"),
}


class GroupDescriptor(Record):
    """A named group of signed permutations, or one given by generators.

    The named kinds are the keys of _KINDS; "TwoM_G" is 2^m.<base gens> and
    "Generated" the group of explicit generators.
    """

    kind: str
    m: int
    gens: tuple[SignedPerm, ...] = ()

    @classmethod
    def symmetric(cls, m: int) -> GroupDescriptor:
        return cls("Sm", m)

    @classmethod
    def alternating(cls, m: int) -> GroupDescriptor:
        return cls("Am", m)

    @classmethod
    def sign_group(cls, m: int) -> GroupDescriptor:
        return cls("Em", m)

    @classmethod
    def even_sign_group(cls, m: int) -> GroupDescriptor:
        return cls("Em0", m)

    @classmethod
    def wdm(cls, m: int) -> GroupDescriptor:
        return cls("WDm", m)

    @classmethod
    def perm0(cls, m: int) -> GroupDescriptor:
        """The full group 2^m.S_m of all signed permutations."""
        return cls("TwoM_Sm", m)

    @classmethod
    def two_m(cls, base_gens: list[SignedPerm]) -> GroupDescriptor:
        """2^m.G for the group G generated by the given (sign-free) elements."""
        if not base_gens:
            raise ValueError("need at least one base generator")
        m = base_gens[0].m
        lifted = tuple(SignedPerm(g.s, (1,) * m) for g in base_gens)
        return cls("TwoM_G", m, lifted)

    @classmethod
    def generated(cls, gens: list[SignedPerm], m: int | None = None) -> GroupDescriptor:
        if gens:
            m = gens[0].m
        elif m is None:
            raise ValueError("m required for an empty generating set")
        return cls("Generated", m, tuple(gens))

    def generators(self) -> tuple[SignedPerm, ...]:
        m = self.m
        if self.kind == "Sm":
            if m == 1:
                return (SignedPerm.identity(1),)
            return (SignedPerm.transposition(m, 1, 2), SignedPerm.full_cycle(m))
        if self.kind == "Am":
            if m < 3:
                return (SignedPerm.identity(m),)
            if m == 3:
                return (SignedPerm.three_cycle(m),)
            if m % 2 == 1:
                return (SignedPerm.three_cycle(m), SignedPerm.full_cycle(m))
            # even m: the (m-1)-cycle fixing 1 is even
            s = [0] + [1 + (i % (m - 1)) for i in range(1, m)]
            return (SignedPerm.three_cycle(m), SignedPerm(s, (1,) * m))
        if self.kind == "Em":
            return tuple(SignedPerm.sign_flip(m, i) for i in range(1, m + 1))
        if self.kind == "Em0":
            return tuple(
                SignedPerm.sign_flip(m, i) * SignedPerm.sign_flip(m, i + 1)
                for i in range(1, m)
            )
        if self.kind == "WDm":
            # S_m and one sign pair, which the trivial group W(D_1) lacks
            pair = (SignedPerm.sign_flip(m, 1) * SignedPerm.sign_flip(m, 2),) if m > 1 else ()
            return GroupDescriptor.symmetric(m).generators() + pair
        if self.kind == "TwoM_Sm":
            return tuple(GroupDescriptor.symmetric(m).generators()) + (
                SignedPerm.sign_flip(m, 1),
            )
        if self.kind == "TwoM_G":
            return self.gens + tuple(
                SignedPerm.sign_flip(m, i) for i in range(1, m + 1)
            )
        return self.gens

    def _order_terms(self) -> tuple[bool, int] | None:
        """(f, t) with order m!^f 2^t, t >= -1, for the named kinds; None otherwise."""
        if self.kind not in _KINDS:
            return None
        perms, signs = _KINDS[self.kind]
        twos = {"none": 0, "all": self.m, "even": self.m - 1}[signs]
        return perms != "identity", twos - (perms == "even" and self.m >= 2)

    def order(self) -> int | None:
        """Group order from the kind table for the named kinds, None otherwise."""
        if (terms := self._order_terms()) is None:
            return None
        n = math.factorial(self.m) if terms[0] else 1
        return n << terms[1] if terms[1] >= 0 else n >> 1

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "m": self.m}
        if self.gens:
            doc["gens"] = [g.to_json() for g in self.gens]
        return doc


def _decimal_digits(n: int) -> int:
    """The number of decimal digits of n >= 1, found without printing n.

    n has the digits of 2^(b-1), b its bit length, or one more.  The float
    floor is exact for b <= 5e7: (b-1) log10 2 stays at least 1.4e-8 from an
    integer there (by the convergents of log10 2), beyond the float's error.
    """
    digits = int((n.bit_length() - 1) * math.log10(2)) + 1
    return digits + (n >= 10**digits)


def _order_digits(desc: GroupDescriptor) -> int | None:
    """Decimal digits of a named kind's order from lgamma; None for other kinds."""
    if (terms := desc._order_terms()) is None:
        return None
    log10 = terms[0] * math.lgamma(desc.m + 1) / math.log(10) + terms[1] * math.log10(2)
    # off by a few units in its last place: near an integer, the exact order decides
    if abs(log10 - round(log10)) < max(1e-6, 1e-13 * log10):
        return _decimal_digits(desc.order())
    return int(log10) + 1


def _check_budget(desc: GroupDescriptor, budget: int) -> None:
    digits = _order_digits(desc)
    if digits is None or digits <= max(4300, _decimal_digits(budget)):
        known = desc.order()  # it may fit the budget, or be short enough to print
        if known is None or known <= budget:
            return
    if digits > 4300:  # the default int-to-str limit: a longer order is named by its length
        order = f"with {digits} decimal digits"
    else:  # Decimal is exact and not bound by any int-to-str limit
        from decimal import Decimal  # off every path but this error

        order = str(Decimal(known))
    raise EnumerationBudgetError(f"group of order {order} exceeds enumeration budget {budget}")


def _closure(start, images, budget: int | None = None) -> set:
    """Everything reachable from start by repeated images(x), breadth first.

    With a budget, raises EnumerationBudgetError instead of reaching more
    than `budget` points.
    """
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in images(x):
                if y not in seen:
                    if budget is not None and len(seen) >= budget:
                        raise EnumerationBudgetError(
                            f"generated group exceeds enumeration budget {budget}"
                        )
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def elements(desc: GroupDescriptor, budget: int = DEFAULT_ENUM_BUDGET) -> list[SignedPerm]:
    """All elements by generator closure, sorted by (s, eps).

    Refuses beyond the budget: a named kind by its order before any element
    is built, any other group once the closure outgrows it.  It shares no
    logic with census, which makes it census's raw-enumeration oracle.
    """
    _check_budget(desc, budget)
    gens = desc.generators()
    group = _closure(SignedPerm.identity(desc.m), lambda g: [gen * g for gen in gens], budget)
    return sorted(group, key=lambda g: (g.s, g.eps))


def _partitions(m: int, largest: int | None = None):
    """The partitions of m into parts of at most `largest`, as non-increasing tuples."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest or m), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def _class_size(lens: tuple[int, ...]) -> int:
    """Number of permutations of sum(lens) points with these cycle lengths: m!/z."""
    z = 1
    for L in set(lens):
        a = lens.count(L)
        z *= L**a * math.factorial(a)
    return math.factorial(sum(lens)) // z


def census(desc: GroupDescriptor, budget: int = DEFAULT_ENUM_BUDGET) -> dict[CycleType, int]:
    """Exact count of every induced cycle type on the 2m nonzero labels.

    Exhaustive: the counts sum to the group order.  A named kind is counted
    by classes, never by elements, in one pass over the permutation cycle
    types that its permutation part admits and the per-cycle sign products
    that its sign part admits.  Each pair stands for the m!/z permutations
    of that cycle type times the 2^(m - #cycles) sign vectors with those
    cycle products (one vector when every sign is +1).  Any other group is
    counted over elements(), under the same budget.
    """
    _check_budget(desc, budget)
    counts: dict[CycleType, int] = {}
    if desc.kind not in _KINDS:
        for g in elements(desc, budget):
            ct = induced_cycle_type(g)
            counts[ct] = counts.get(ct, 0) + 1
        return counts
    perms, signs = _KINDS[desc.kind]
    m = desc.m
    for lens in _partitions(m):
        k = len(lens)
        if (perms == "identity" and k < m) or (perms == "even" and (m - k) % 2):
            continue
        sigmas = [(1,) * k] if signs == "none" else itertools.product((1, -1), repeat=k)
        weight = _class_size(lens) * (1 if signs == "none" else 2 ** (m - k))
        for sigma in sigmas:
            if signs == "even" and math.prod(sigma) != 1:
                continue
            ct = CycleType([n for L, sg in zip(lens, sigma) for n in sign_lift(L, sg)])
            counts[ct] = counts.get(ct, 0) + weight
    return counts


# ---------------------------------------------------------------------------
# orbits and transitivity
# ---------------------------------------------------------------------------


def _as_generators(group) -> tuple[SignedPerm, ...]:
    if isinstance(group, GroupDescriptor):
        return group.generators()
    return tuple(group)


def orbits(group, roots: LabeledRoots) -> list[tuple[int, ...]]:
    """Partition of the label set under the generated group (generator closure)."""
    gens = _as_generators(group)
    seen: set[int] = set()
    out = []
    for start in roots.labels():
        if start in seen:
            continue
        orb = _closure(start, lambda lbl: [roots.act(g, lbl) for g in gens])
        seen |= orb
        out.append(tuple(sorted(orb)))
    return out


def transitivity_degree(group, roots: LabeledRoots) -> int:
    """Largest k <= 2 such that the action is k-transitive (0 if intransitive).

    Checked by orbit closure on points and then on ordered pairs of distinct
    points; degrees beyond 2 are never needed and are reported as 2.
    """
    labels = roots.labels()
    if len(orbits(group, roots)) != 1:
        return 0
    if len(labels) < 2:
        return 1
    maps = [{x: roots.act(g, x) for x in labels} for g in _as_generators(group)]
    orb = _closure(
        (labels[0], labels[1]), lambda pair: [(mp[pair[0]], mp[pair[1]]) for mp in maps]
    )
    n = len(labels)
    return 2 if len(orb) == n * (n - 1) else 1


# ---------------------------------------------------------------------------
# symmetric-group certification
# ---------------------------------------------------------------------------


def sm_normal_index_condition(m: int) -> bool:
    """Whether S_m has no proper normal subgroup of index dividing m.

    For m >= 5 the normal subgroups are 1, A_m, S_m with indices m!, 2, 1;
    m! > m always, so the condition is exactly that 2 does not divide m.
    """
    if m < 5:
        raise ValueError(f"classification argument requires m >= 5, got {m}")
    return m % 2 == 1


class IsSm(Record):
    """Certified: the Galois group is all of S_m (sound, never a guess)."""

    cycle_length: int
    witness_type: CycleType


class SmInconclusive(Record):
    reason: str


def sm_certificate(types, disc_is_square: bool, irreducible: bool, m: int):
    """One-sided S_m certificate from Frobenius cycle types.

    IsSm when the polynomial is irreducible (hence the group transitive), the
    discriminant is not a square (hence the group is not inside A_m), and some
    observed type contains a cycle of prime length q with m/2 < q < m - 2:
    such a cycle power is a q-cycle, q > m/2 forces primitivity, and a
    primitive group with a prime cycle of length at most m - 3 contains A_m
    (Jordan).  Anything less returns SmInconclusive; there are no false
    positives, and callers respond to Inconclusive by sampling more primes.
    """
    if not irreducible:
        return SmInconclusive("polynomial not certified irreducible")
    if disc_is_square:
        return SmInconclusive("discriminant is a square: group may lie inside A_m")
    for t in types:
        for length in set(t):
            if 2 * length > m and length < m - 2 and is_prime(length):
                return IsSm(length, CycleType(t))
    return SmInconclusive("no prime-length cycle q with m/2 < q < m-2 observed")


# the names no command runs, defined in prymcert.reference and resolved from here (PEP 562)
_MOVED = {"compose", "cycle_type_from_label_action", "in_wdm", "kappa_u", "roots_f",
          "stabilizer_generators", "stabilizer_orbit_count"}


def __getattr__(name):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import reference
    return getattr(reference, name)
