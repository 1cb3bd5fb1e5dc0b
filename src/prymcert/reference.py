"""Reference code that no prymcert command runs: test oracles and library helpers.

The checked entry points that the one prime walk replaced (factor degrees
mod q, irreducibility over Q), brute-force and Schreier oracles, the
function spaces other than the odd one, and the differential basis.  Each
name keeps its old module (intpoly, signedperm, fpmodule or prymcalc),
whose `_MOVED` names the package's one resolver reads from here on first
access (PEP 562); this module imports only what stays there, so no command
compiles it.
"""

from __future__ import annotations

import math

from . import PRIME_BUDGET, intpoly  # its kernel is called through it, where tests patch it
from ._primes import is_prime
from ._record import Record
from .fpmodule import FpMatrix, FpSpace, _heart_is_irreducible, _space, action_matrix
from .intpoly import (CycleType, Inconclusive, IntPoly, Irreducible, _composite_rule, _fq_gcd,
                      _fq_monic, compose_x2, disc_of_even_composite, discriminant, poly_gcd,
                      trinomial, trinomial_disc, unramified_factor_degrees)
from .prymcalc import FamilyParams, dim_prym, genus_curve
from .signedperm import LabeledRoots, SignedPerm, _as_generators, orbits, roots_h


# -- from intpoly: checked factor degrees, irreducibility over Q, the family --


class _RamifiedType:
    """Sentinel for a reduction mod q with a repeated factor."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Ramified"


RAMIFIED = _RamifiedType()


class DiscPair(Record):
    """Discriminants of u and of u(x^2) for one member of the family."""

    delta_u: int
    delta_h: int


def build_family(p: int, r: int, c: int = 1):
    """Construct (u, h, f, params) with u = x^m - x - c, h = u(x^2), f = x h.

    m = pr - 1 and n = 2m + 1.  Rejects p = 2 or non-prime p, r < 2, and even
    or zero c.  For c = 1 the odd polynomial is f = x^(2m+1) - x^3 - x.
    """
    params = FamilyParams(p, r, c)
    u = trinomial(params.m, c)
    h = compose_x2(u)
    f = IntPoly.x() * h
    return u, h, f, params


def family_disc_pair(m: int, c: int) -> DiscPair:
    """Both closed-form discriminants for the family member (m, c)."""
    return DiscPair(trinomial_disc(m, c), disc_of_even_composite(m, c))


def reduce_and_factor_degrees(f: IntPoly, q: int):
    """Degrees of the irreducible factors of f mod q, or RAMIFIED.

    Returns a CycleType (multiset of factor degrees, with multiplicity,
    summing to deg f) when f mod q is squarefree; returns RAMIFIED when it
    has a repeated factor (equivalently, q divides disc f).  Only degrees are
    computed: distinct-degree factorization without equal-degree splitting.
    An even f(x) = g(x^2) with q odd is factored at half its degree, in
    F_q[y]/(g) with y = x^2; it is squarefree iff g is and g(0) != 0.  The
    checks done, the degrees come from the prime walk's kernel,
    intpoly._factor_degrees, on a batch of one prime.
    """
    if f.degree < 1:
        raise ValueError("factor degrees require a nonconstant polynomial")
    if not isinstance(q, int) or not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if f.lc % q == 0:
        raise ValueError(f"q = {q} divides the leading coefficient")
    # y = x^s: s = 2 when f(x) = g(x^2) and q is odd, and then work mod g
    s = 2 if q > 2 and not any(f.coeffs[1::2]) else 1
    g = _fq_monic(f.coeffs[::s], q)
    if (s == 2 and not g[0]) or len(_fq_gcd(g, [i * c for i, c in enumerate(g)][1:], q)) > 1:
        return RAMIFIED
    return intpoly._factor_degrees(g, q, s)


class Reducible(Record):
    """A genuine nonconstant proper factor was found."""

    factor: IntPoly


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def _rational_root_factor(f: IntPoly):
    """A linear factor sx - p from a rational root p/s, or None."""
    a0 = f.coeff(0)
    if a0 == 0:
        return IntPoly.x()
    for s in _divisors(f.lc):
        for p_abs in _divisors(a0):
            for p in (p_abs, -p_abs):
                if math.gcd(p, s) != 1:
                    continue
                # f(p/s) * s^deg = sum a_i p^i s^(deg-i)
                d = f.degree
                val = sum(f.coeff(i) * p**i * s ** (d - i) for i in range(d + 1))
                if val == 0:
                    return IntPoly((-p, s))
    return None


def irreducible_over_Q(f: IntPoly, prime_budget: int = PRIME_BUDGET):
    """Three-valued irreducibility verdict over Q; never guesses.

    Irreducible(q) when f mod q is irreducible for some prime q <= budget
    (q skipping divisors of disc(f) and lc(f), increasing order); Reducible
    with an actual factor when a rational root exists or f has a repeated
    factor; Inconclusive otherwise.  Full factorization is out of scope.
    """
    if f.degree < 1:
        raise ValueError("irreducibility test requires a nonconstant polynomial")
    if f.content != 1:
        raise ValueError("polynomial must be primitive")
    if f.degree > 1:
        linear = _rational_root_factor(f)
        if linear is not None:
            return Reducible(linear)
    disc = discriminant(f)
    if disc == 0:
        g = poly_gcd(f, f.derivative())
        return Reducible(g)
    for q, ct in unramified_factor_degrees(f, disc, prime_budget):
        if ct == CycleType([f.degree]):
            return Irreducible(witness=q)
    return Inconclusive()


def irreducible_composite_rule(u: IntPoly, prime_budget: int = PRIME_BUDGET):
    """Certify that u(x^2) is irreducible over Q from the shape of u.

    Premises: deg u = m odd >= 3, u monic, u irreducible over Q, coefficient
    of x^2 zero, coefficient of x equal to -1, and constant term -c with c a
    nonzero integer.  Returns Certified with the recorded premises, or
    NotApplicable naming the first failed premise.
    """
    return _composite_rule(u, lambda: irreducible_over_Q(u, prime_budget))


# -- from signedperm: projections, oracles, stabilizers -----------------------


def compose(g1: SignedPerm, g2: SignedPerm) -> SignedPerm:
    """Group composition matching composition of the induced label maps."""
    return g1 * g2


def in_wdm(g: SignedPerm) -> bool:
    """Whether the product of signs is +1."""
    return g.sign_product() == 1


def kappa_u(g: SignedPerm) -> tuple[int, ...]:
    """The projection (eps, s) -> s, as a 1-based image tuple.

    A group homomorphism onto permutations of the base points; its kernel on
    any group of signed permutations lies in the sign group E_m.
    """
    return tuple(v + 1 for v in g.s)


def cycle_type_from_label_action(g: SignedPerm) -> CycleType:
    """Brute-force oracle: walk the orbits of the label action directly."""
    labels = [i for i in range(1, g.m + 1)] + [-i for i in range(1, g.m + 1)]
    seen: set[int] = set()
    lengths = []
    for start in labels:
        if start in seen:
            continue
        n = 0
        x = start
        while x not in seen:
            seen.add(x)
            n += 1
            x = g.act_label(x)
        lengths.append(n)
    return CycleType(lengths)


def roots_f(m: int) -> LabeledRoots:
    return LabeledRoots(m, "R_f")


def stabilizer_generators(group, label: int, roots: LabeledRoots) -> list[SignedPerm]:
    """Schreier generators of the stabilizer of one label.

    Standard orbit/transversal construction: for each generator g and each
    transversal element t_x, the element t_{g(x)}^(-1) g t_x fixes the label,
    and by Schreier's lemma these generate the full stabilizer.
    """
    gens = _as_generators(group)
    m = roots.m
    ident = SignedPerm.identity(m)
    transversal = {label: ident}
    frontier = [label]
    schreier: list[SignedPerm] = []
    seen: set[SignedPerm] = set()
    while frontier:
        nxt = []
        for x in frontier:
            tx = transversal[x]
            for g in gens:
                y = roots.act(g, x)
                if y not in transversal:
                    transversal[y] = g * tx
                    nxt.append(y)
                else:
                    s = transversal[y].inverse() * g * tx
                    if not s.is_identity and s not in seen:
                        seen.add(s)
                        schreier.append(s)
        frontier = nxt
    return schreier


def stabilizer_orbit_count(group, roots: LabeledRoots, label: int | None = None) -> int:
    """Number of orbits on the label set of the stabilizer of one label."""
    labels = roots.labels()
    if label is None:
        label = labels[0]
    stab = stabilizer_generators(group, label, roots)
    return len(orbits(stab, roots))


# -- from fpmodule: function spaces and cross-checks --------------------------


def function_space_on_roots(m: int, p: int) -> FpSpace:
    """The full function space F_p^(R_h), delta-function basis, dim 2m."""
    roots = roots_h(m)
    return _space(p, roots, [{lbl: 1} for lbl in roots.labels()], "F_p^R_h")


def even_space(m: int, p: int) -> FpSpace:
    """Even functions on the nonzero labels: basis delta(+i) + delta(-i)."""
    return _space(p, roots_h(m), [{i: 1, -i: 1} for i in range(1, m + 1)], "W_h^+")


def even_zero_space(m: int, p: int) -> FpSpace:
    """Even functions with zero value sum; dim m - 1."""
    columns = [{i: 1, -i: 1, i + 1: -1, -i - 1: -1} for i in range(1, m)]
    return _space(p, roots_h(m), columns, "W_h^+,0")


def constant_space(m: int, p: int) -> FpSpace:
    """The constants F_p . 1 on the nonzero labels."""
    roots = roots_h(m)
    return _space(p, roots, [dict.fromkeys(roots.labels(), 1)], "F_p.1")


def vf_space(m: int, p: int) -> FpSpace:
    """Sum-zero functions on all 2m+1 labels; dim 2m."""
    roots = roots_f(m)
    return _space(p, roots, [{lbl: 1, 0: -1} for lbl in roots.labels() if lbl], "V_f")


def vf_plus_space(m: int, p: int) -> FpSpace:
    """Even sum-zero functions on all labels: delta(+i) + delta(-i) - 2 delta(0)."""
    columns = [{i: 1, -i: 1, 0: -2} for i in range(1, m + 1)]
    return _space(p, roots_f(m), columns, "V_f^+")


def d2_matrix(space: FpSpace) -> FpMatrix:
    """Matrix of the involution phi(alpha) -> phi(-alpha) on the space."""
    return action_matrix(SignedPerm(range(space.m), (-1,) * space.m), space)


def orbit_count_formula(generators, m: int, label: int = 1) -> int:
    """Orbit count on the nonzero labels of the stabilizer of one root.

    For a transitive permutation module this equals the dimension of the
    endomorphism algebra of the full function space; both sides are computed
    independently so the identity is a cross-check, not an assumption.
    """
    return stabilizer_orbit_count(generators, roots_h(m), label)


def heart_f2_irreducible(m: int, group: str = "A_m") -> bool:
    """Irreducibility of the sum-zero subspace of F_2^m under A_m or S_m.

    For odd m the heart of the natural permutation module over F_2 is the
    even-weight (sum-zero) subspace, of dimension m - 1.  An S_m-submodule
    is an A_m-submodule, so `_heart_is_irreducible` (which the pipeline calls
    for every m) decides both.  The range 3 <= m <= 13 is a kept contract,
    not a cost limit.
    """
    if m % 2 == 0:
        raise ValueError("even m puts the all-ones vector in the sum-zero space")
    if not 3 <= m <= 13:
        raise ValueError(f"heart_f2_irreducible covers 3 <= m <= 13, got {m}")
    if group not in ("A_m", "S_m"):
        raise ValueError(f"group must be 'A_m' or 'S_m', got {group!r}")
    return _heart_is_irreducible(m)


def lambda_rank_check(p: int, m: int) -> bool:
    """Consistency of the torsion rank: 2 (m(p-1)/2) / (p-1) equals m."""
    d = dim_prym(p, m)
    if (2 * d) % (p - 1) != 0:
        return False
    return (2 * d) // (p - 1) == m


# -- from prymcalc: the differential basis ------------------------------------


class BasisForm(Record):
    """The differential x^i dx/y^j together with its eigenvalue data."""

    i: int
    j: int

    @property
    def delta_p_exponent(self) -> int:
        """Exponent e such that the order-p automorphism scales by zeta_p^e."""
        return -self.j

    @property
    def delta_2_sign(self) -> int:
        """Eigenvalue (-1)^(i+1-j) of the involution."""
        return -1 if (self.i + 1 - self.j) % 2 else 1


def omega_basis(n: int, p: int) -> list[BasisForm]:
    """The differential basis x^i dx/y^j, 1 <= j <= p-1, 0 <= i <= [nj/p]-1.

    The list has exactly genus_curve(n, p) entries.
    """
    genus_curve(n, p)  # validates n, p
    forms = []
    for j in range(1, p):
        for i in range(n * j // p):
            forms.append(BasisForm(i, j))
    return forms


def anti_invariant_partition(p: int, r: int) -> dict[int, tuple[int, ...]]:
    """Exponents i of the involution-anti-invariant forms, grouped by j.

    Derived by enumerating omega_basis for n = 2pr - 1 and keeping the forms
    with delta_2_sign == -1; multiplicity_table gives the closed-form sizes.
    """
    n = 2 * p * r - 1
    parts: dict[int, list[int]] = {j: [] for j in range(1, p)}
    for form in omega_basis(n, p):
        if form.delta_2_sign == -1:
            parts[form.j].append(form.i)
    return {j: tuple(sorted(parts[j])) for j in parts}
