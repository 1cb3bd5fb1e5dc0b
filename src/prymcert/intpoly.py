"""Exact univariate polynomial arithmetic over Z and over prime fields.

Polynomials are dense coefficient tuples of arbitrary-precision integers
(index = degree of the monomial), so nothing in this module ever rounds.
Resultants and discriminants are computed by the subresultant polynomial
remainder sequence: no fraction-field arithmetic, exact at every step, and
fast at the degrees (up to 122 for m = 61) the certificate pipeline needs.
Factorization data mod q is limited to distinct-degree factorization, since
the Frobenius machinery downstream only consumes the multiset of
irreducible-factor degrees, never the factors themselves.

Distinct-degree factorization goes through the Frobenius map (von zur
Gathen and Shoup, "Computing Frobenius maps and factoring polynomials",
1992).  X = x^q mod f is computed once by left-to-right squaring, then the
rows X^i mod f of the Berlekamp Q-matrix; since w(x)^q = w(X) over F_q,
each further x^(q^d) is one vector-matrix product.  Work stays mod the
original f: the factors of degree d are gcd(x^(q^d) - x, v) against the
cofactor v, which divides f.  Products are exact Python ints packed by
Kronecker substitution, reduced mod q once per output coefficient, and
reduced mod f through f's nonzero coefficients only (three for the
family's trinomials).  unramified_factor_degrees is the one walk over the
primes: every scan of a polynomial's Frobenius types (irreducibility
witnesses, the Jordan cycle, Chebotarev samples) reads it, so a chain
factors each (f, q) once.

Text format (parse_poly / format_poly): signed integer-coefficient
expressions in one variable, e.g. ``x^10 - x^2 - 1``; arbitrary whitespace,
caret exponents, implicit coefficient 1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from ._primes import is_prime, primes
from .prymcalc import FamilyParams

__all__ = [
    "IntPoly",
    "CycleType",
    "DiscPair",
    "RAMIFIED",
    "parse_poly",
    "format_poly",
    "compose_x2",
    "build_family",
    "resultant",
    "discriminant",
    "poly_gcd",
    "trinomial_disc",
    "disc_of_even_composite",
    "family_disc_pair",
    "reduce_and_factor_degrees",
    "unramified_factor_degrees",
    "irreducible_over_Q",
    "Irreducible",
    "Reducible",
    "Inconclusive",
    "irreducible_composite_rule",
    "Certified",
    "NotApplicable",
    "condition_p_r",
    "ConditionPR",
    "is_square",
    "is_prime",
    "primes",
]


class IntPoly:
    """Immutable dense polynomial with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> IntPoly:
        return cls(())

    @classmethod
    def one(cls) -> IntPoly:
        return cls((1,))

    @classmethod
    def x(cls) -> IntPoly:
        return cls((0, 1))

    @classmethod
    def monomial(cls, deg: int, coeff: int = 1) -> IntPoly:
        return cls((0,) * deg + (coeff,))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    @property
    def content(self) -> int:
        """gcd of the coefficients, positive; 0 for the zero polynomial."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return self.lc == 1

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: IntPoly) -> IntPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + (-other)

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(other * c for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> IntPoly:
        if e < 0:
            raise ValueError("negative exponent")
        result = IntPoly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x):
        """Evaluate by Horner; works for int, Fraction, float, complex."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> IntPoly:
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def exact_div(self, k: int) -> IntPoly:
        """Divide every coefficient by the integer k; raises if not exact."""
        out = []
        for c in self.coeffs:
            q, rem = divmod(c, k)
            if rem:
                raise ValueError(f"coefficient {c} not divisible by {k}")
            out.append(q)
        return IntPoly(out)

    def primitive_part(self) -> IntPoly:
        """self divided by its content (zero stays zero; sign of lc kept)."""
        if self.is_zero:
            return self
        return self.exact_div(self.content)

    # -- comparisons / display ----------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


class CycleType(tuple):
    """Sorted multiset of cycle lengths / irreducible-factor degrees."""

    def __new__(cls, lengths):
        lengths = tuple(sorted(int(v) for v in lengths))
        if any(v < 1 for v in lengths):
            raise ValueError("cycle lengths must be positive")
        return super().__new__(cls, lengths)

    @property
    def total(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"CycleType({list(self)})"


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


@dataclass(frozen=True)
class DiscPair:
    """Discriminants of u and of u(x^2) for one member of the family."""

    delta_u: int
    delta_h: int


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"([+-])\s*(\d+)?\s*(\*?\s*x(?:\s*\^\s*(\d+))?)?\s*")


def parse_poly(text: str) -> IntPoly:
    """Parse e.g. ``x^10 - x^2 - 1`` or ``-3x^2 + 5``."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial expression")
    if s[0] not in "+-":
        s = "+" + s
    coeffs: dict[int, int] = {}
    pos = 0
    while pos < len(s):
        mo = _TERM_RE.match(s, pos)
        if not mo or mo.end() == pos or (mo.group(2) is None and mo.group(3) is None):
            raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
        sign = -1 if mo.group(1) == "-" else 1
        coeff = int(mo.group(2)) if mo.group(2) is not None else 1
        if mo.group(3) is not None:
            deg = int(mo.group(4)) if mo.group(4) is not None else 1
        else:
            deg = 0
        coeffs[deg] = coeffs.get(deg, 0) + sign * coeff
        pos = mo.end()
    out = [0] * (max(coeffs) + 1)
    for deg, c in coeffs.items():
        out[deg] = c
    return IntPoly(out)


def format_poly(p: IntPoly) -> str:
    """Inverse of parse_poly, highest degree first."""
    if p.is_zero:
        return "0"
    parts = []
    for deg in range(p.degree, -1, -1):
        c = p.coeff(deg)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if deg == 0:
            body = str(mag)
        else:
            var = "x" if deg == 1 else f"x^{deg}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------


def compose_x2(u: IntPoly) -> IntPoly:
    """Return h with h(x) = u(x^2); deg h = 2 deg u and h(0) = u(0)."""
    out = [0] * (2 * len(u.coeffs))
    for i, c in enumerate(u.coeffs):
        out[2 * i] = c
    return IntPoly(out)


def trinomial(m: int, c: int) -> IntPoly:
    """The trinomial x^m - x - c (m >= 2)."""
    if m < 2:
        raise ValueError(f"degree must be >= 2, got {m}")
    coeffs = [0] * (m + 1)
    coeffs[0] = -c
    coeffs[1] = -1
    coeffs[m] += 1
    return IntPoly(coeffs)


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


# ---------------------------------------------------------------------------
# resultants and discriminants (subresultant PRS)
# ---------------------------------------------------------------------------


def _prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a = q*b + R, deg R < deg b."""
    da, db = a.degree, b.degree
    if da < db:
        raise ValueError("pseudo-division requires deg a >= deg b")
    lb = b.lc
    r = list(a.coeffs)
    e = da - db + 1
    dr = da
    while dr >= db and any(r):
        c = r[dr]
        r = [lb * v for v in r]
        shift = dr - db
        for i, bc in enumerate(b.coeffs):
            r[i + shift] -= c * bc
        del r[dr:]
        e -= 1
        dr = len(r) - 1
        while dr >= 0 and r[dr] == 0:
            dr -= 1
        del r[dr + 1:]
    scale = lb**e
    return IntPoly(tuple(scale * v for v in r))


def resultant(a: IntPoly, b: IntPoly) -> int:
    """Exact resultant via the subresultant polynomial remainder sequence.

    Sign convention: resultant(a, b) = lc(a)^deg(b) * prod b(alpha) over the
    roots alpha of a, so resultant(a, b) = (-1)^(deg a * deg b) resultant(b, a)
    and resultant(a, b*c) = resultant(a, b) * resultant(a, c).
    """
    if a.is_zero or b.is_zero:
        raise ValueError("resultant of the zero polynomial is undefined")
    da, db = a.degree, b.degree
    if da == 0 and db == 0:
        return 1
    if da == 0:
        return a.lc**db
    if db == 0:
        return b.lc**da
    sign = 1
    if db > da:
        a, b = b, a
        da, db = db, da
        if da % 2 == 1 and db % 2 == 1:
            sign = -1
    ca, cb = a.content, b.content
    A = a.exact_div(ca)
    B = b.exact_div(cb)
    t = ca**db * cb**da
    g = h = 1
    while True:
        dA, dB = A.degree, B.degree
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            sign = -sign
        R = _prem(A, B)
        if R.is_zero:
            return 0
        A = B
        B = R.exact_div(g * h**delta)
        g = A.lc
        if delta == 1:
            h = g
        elif delta > 1:
            num, rem = divmod(g**delta, h ** (delta - 1))
            assert rem == 0, "subresultant invariant violated"
            h = num
        if B.degree == 0:
            break
    dA = A.degree
    num, rem = divmod(B.lc**dA, h ** (dA - 1))
    assert rem == 0, "subresultant invariant violated"
    return sign * t * num


def discriminant(f: IntPoly) -> int:
    """(-1)^(d(d-1)/2) resultant(f, f') / lc(f); zero iff f has a repeated root."""
    d = f.degree
    if d < 1:
        raise ValueError("discriminant requires degree >= 1")
    res = resultant(f, f.derivative())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    q, rem = divmod(sign * res, f.lc)
    assert rem == 0, "resultant not divisible by leading coefficient"
    return q


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """gcd in Z[x] (primitive PRS), normalized to positive leading coefficient."""
    if a.is_zero and b.is_zero:
        return IntPoly.zero()
    if a.is_zero or b.is_zero:
        g = (a if b.is_zero else b).primitive_part()
        return -g if g.lc < 0 else g
    cont = math.gcd(a.content, b.content)
    A, B = a.primitive_part(), b.primitive_part()
    if A.degree < B.degree:
        A, B = B, A
    while not B.is_zero:
        R = _prem(A, B)
        A, B = B, R.primitive_part()
    g = A.primitive_part() * cont
    return -g if g.lc < 0 else g


# ---------------------------------------------------------------------------
# trinomial closed forms
# ---------------------------------------------------------------------------


def _validate_odd(m: int, c: int) -> None:
    if m < 3 or m % 2 == 0:
        raise ValueError(f"m must be odd and >= 3, got {m}")
    if c == 0 or c % 2 == 0:
        raise ValueError(f"c must be odd and nonzero, got {c}")


def trinomial_disc(m: int, c: int) -> int:
    """Discriminant of x^m - x - c in closed form, for odd m >= 3 and odd c.

    The value is (-1)^(m(m-1)/2) (m^m c^(m-1) - (m-1)^(m-1)), always an odd
    integer.  Beware the simplification +-(c^(m-1) + (m-1)^(m-1)) that is
    sometimes quoted for this trinomial: it drops the m^m factor and is wrong
    (for m = 3, c = 1 it gives +-5 while the discriminant of x^3 - x - 1 is
    -23).  The closed form here agrees with discriminant() on every tested
    (m, c).
    """
    _validate_odd(m, c)
    sign = -1 if (m * (m - 1) // 2) % 2 else 1
    return sign * (m**m * c ** (m - 1) - (m - 1) ** (m - 1))


def disc_of_even_composite(m: int, c: int) -> int:
    """Discriminant of u(x^2) for u = x^m - x - c: 4^m * c * disc(u)^2.

    For c = 1 this is the perfect square (2^m disc(u))^2, which matches the
    fact that the Galois group of u(x^2) sits inside an even-signed
    permutation group.  The form -2^m disc(u)^2 sometimes quoted for this
    composite has the wrong sign and power of 2; the subresultant oracle
    validates the version used here.
    """
    _validate_odd(m, c)
    d = trinomial_disc(m, c)
    return 4**m * c * d * d


def family_disc_pair(m: int, c: int) -> DiscPair:
    """Both closed-form discriminants for the family member (m, c)."""
    return DiscPair(trinomial_disc(m, c), disc_of_even_composite(m, c))


def is_square(n: int) -> bool:
    """Whether n is the square of an integer."""
    return n >= 0 and math.isqrt(n) ** 2 == n


# ---------------------------------------------------------------------------
# factorization degrees over F_q (distinct-degree factorization)
# ---------------------------------------------------------------------------

def _fq_monic(a: list[int], q: int) -> list[int]:
    """a mod q, scaled to leading coefficient 1; [] when a is 0 mod q."""
    top = len(a) - 1
    while top >= 0 and a[top] % q == 0:
        top -= 1
    if top < 0:
        return []
    inv = pow(a[top], -1, q)
    return [c * inv % q for c in a[:top + 1]]


def _fq_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    """Monic gcd over F_q; the inputs may hold any integers."""
    a, b = _fq_monic(a, q), _fq_monic(b, q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        # a, b monic with deg a >= deg b; the remainder is reduced by _fq_monic
        db = len(b) - 1
        r = list(a)
        for i in range(len(r) - 1, db - 1, -1):
            c = r[i] % q
            if c:
                r[i - db:i] = [x - c * y for x, y in zip(r[i - db:i], b)]
        a, b = b, _fq_monic(r[:db], q)
    return a


def _fq_divexact(a: list[int], b: list[int], q: int) -> list[int]:
    """a // b over F_q when b | a (b monic)."""
    a = list(a)
    db = len(b) - 1
    quot = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % q
        if c:
            quot[i - db] = c
            a[i - db:i] = [x - c * y for x, y in zip(a[i - db:i], b)]
    assert not any(c % q for c in a[:db]), "inexact polynomial division"
    return quot


def _pack(coeffs: list[int], bits: int) -> int:
    """Kronecker substitution: nonnegative coefficients below 2^bits as one integer."""
    packed = 0
    for c in reversed(coeffs):
        packed = packed << bits | c
    return packed


def _unpack(packed: int, count: int, bits: int) -> list[int]:
    mask = (1 << bits) - 1
    return [packed >> shift & mask for shift in range(0, count * bits, bits)]


def reduce_and_factor_degrees(f: IntPoly, q: int):
    """Degrees of the irreducible factors of f mod q, or RAMIFIED.

    Returns a CycleType (multiset of factor degrees, with multiplicity,
    summing to deg f) when f mod q is squarefree; returns RAMIFIED when it
    has a repeated factor (equivalently, q divides disc f).  Only degrees are
    computed: distinct-degree factorization without equal-degree splitting.

    The Frobenius map is computed once: X = x^q mod f, then the rows X^i mod
    f of the Berlekamp Q-matrix.  Since w(x)^q = w(x^q) over F_q, each
    further x^(q^d) = w(X) is one product of the coefficient vector w with
    that matrix.  Everything stays mod the original f; the factors of degree
    d are gcd(x^(q^d) - x, v) for the cofactor v of the factors found so
    far, which is valid because v divides f.
    """
    if f.degree < 1:
        raise ValueError("factor degrees require a nonconstant polynomial")
    if not isinstance(q, int) or not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if f.lc % q == 0:
        raise ValueError(f"q = {q} divides the leading coefficient")
    f = _fq_monic(list(f.coeffs), q)
    if len(_fq_gcd(f, [i * c for i, c in enumerate(f)][1:], q)) > 1:
        return RAMIFIED
    n = len(f) - 1
    tail = [(k, c) for k, c in enumerate(f[:n]) if c]  # f's nonzero lower terms
    # a slot holds a sum of at most n products of residues
    bits = (n * (q - 1) ** 2).bit_length()

    def reduce(a):
        """a mod f over F_q as n coefficients; a holds exact ints."""
        for i in range(len(a) - 1, n - 1, -1):
            c = a[i] % q
            if c:
                for k, fk in tail:
                    a[i - n + k] -= c * fk
        a = [c % q for c in a[:n]]
        return a + [0] * (n - len(a))

    def mulmod(a_packed, b_packed):
        return reduce(_unpack(a_packed * b_packed, 2 * n - 1, bits))

    x = reduce([0, 1])
    X = x  # X = x^q mod f, left to right; "times x" is a shift and one reduction step
    for bit in bin(q)[3:]:
        X_packed = _pack(X, bits)
        X = mulmod(X_packed, X_packed)
        if bit == "1":
            X = reduce([0] + X)
    # the rows X^i mod f of the Berlekamp Q-matrix, packed: w(x)^q = w(X) = sum w_i X^i
    X_packed = _pack(X, bits)
    rows = [_pack(reduce([1]), bits)]
    while len(rows) < n:
        rows.append(_pack(mulmod(rows[-1], X_packed), bits))

    degrees: list[int] = []
    v = f  # the cofactor of the factors found so far; it divides f, so w stays mod f
    w = x  # x^(q^d) mod f
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        w = [c % q for c in _unpack(sum(c * r for c, r in zip(w, rows) if c), n, bits)]
        g = _fq_gcd([w[0], w[1] - 1] + w[2:], v, q)
        if len(g) > 1:
            degrees.extend([d] * ((len(g) - 1) // d))
            v = _fq_divexact(v, g, q)
    if len(v) > 1:
        degrees.append(len(v) - 1)
    return CycleType(degrees)


def unramified_factor_degrees(f: IntPoly, disc: int):
    """Yield (q, factor degrees of f mod q) over the unramified primes q.

    disc is the discriminant of f, which must be nonzero.  The primes are
    those dividing neither lc(f) nor disc, in increasing order, so f mod q is
    squarefree of degree deg f and every yielded value is a CycleType.  The
    stream is endless; callers stop it at their prime budget or sample count.
    """
    if disc == 0:
        raise ValueError("a polynomial with a repeated factor has no unramified prime")
    for q in primes():
        if f.lc % q and disc % q:
            yield q, reduce_and_factor_degrees(f, q)


# ---------------------------------------------------------------------------
# irreducibility over Q
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Irreducible:
    """Certified irreducible: f mod witness is irreducible over F_witness."""

    witness: int


@dataclass(frozen=True)
class Reducible:
    """A genuine nonconstant proper factor was found."""

    factor: IntPoly


@dataclass(frozen=True)
class Inconclusive:
    """No witness prime within budget and no factor found; no verdict."""


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


def irreducible_over_Q(f: IntPoly, prime_budget: int = 500):
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
    for q, ct in unramified_factor_degrees(f, disc):
        if q > prime_budget:
            break
        if ct == CycleType([f.degree]):
            return Irreducible(witness=q)
    return Inconclusive()


@dataclass(frozen=True)
class Certified:
    """All premises of the even-composite irreducibility rule hold."""

    premises: tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class NotApplicable:
    failed: str


def irreducible_composite_rule(u: IntPoly, prime_budget: int = 500):
    """Certify that u(x^2) is irreducible over Q from the shape of u.

    Premises: deg u = m odd >= 3, u monic, u irreducible over Q, coefficient
    of x^2 zero, coefficient of x equal to -1, and constant term -c with c a
    nonzero integer.  Returns Certified with the recorded premises, or
    NotApplicable naming the first failed premise.
    """
    return _composite_rule(u, lambda: irreducible_over_Q(u, prime_budget))


def _composite_rule(u: IntPoly, irreducibility):
    """irreducible_composite_rule with u's irreducibility verdict supplied.

    irreducibility() returns the verdict; it is called only once the shape
    premises hold, so a caller that already holds a witness pays nothing.
    """
    m = u.degree
    if m < 3 or m % 2 == 0:
        return NotApplicable(f"degree must be odd and >= 3, got {m}")
    if not u.is_monic:
        return NotApplicable(f"leading coefficient must be 1, got {u.lc}")
    if u.coeff(2) != 0:
        return NotApplicable(f"coefficient of x^2 must be 0, got {u.coeff(2)}")
    if u.coeff(1) != -1:
        return NotApplicable(f"coefficient of x must be -1, got {u.coeff(1)}")
    if u.coeff(0) == 0:
        return NotApplicable("constant term must be nonzero")
    verdict = irreducibility()
    if not isinstance(verdict, Irreducible):
        return NotApplicable("u was not certified irreducible over Q")
    premises = (
        ("deg u odd and >= 3", m),
        ("u monic", True),
        ("coefficient of x^2 is 0", True),
        ("coefficient of x is -1", True),
        ("constant term -c, c nonzero", -u.coeff(0)),
        ("u irreducible over Q (witness prime)", verdict.witness),
    )
    return Certified(premises)


# ---------------------------------------------------------------------------
# the descent condition on (p, r)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionPR:
    """Result of the (1 + 2^(r-2)) mod p test with its shortcut flags."""

    p: int
    r: int
    residue: int
    passed: bool
    shortcut_r_mod: bool  # r = 2 (mod p-1)
    shortcut_small: bool  # 2^(r-2) < p-1

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "residue": self.residue,
            "passed": self.passed,
            "shortcut_r_mod": self.shortcut_r_mod,
            "shortcut_small": self.shortcut_small,
        }


def condition_p_r(p: int, r: int) -> ConditionPR:
    """Whether p does not divide 1 + 2^(r-2), with the two shortcut criteria.

    Shortcut (1): r = 2 (mod p-1) forces residue 2 by Fermat.  Shortcut (2):
    2^(r-2) < p - 1 keeps the value strictly between 1 and p.  Either
    shortcut implies a pass, which is asserted.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    residue = (1 + pow(2, r - 2, p)) % p
    passed = residue != 0
    shortcut_r_mod = (r - 2) % (p - 1) == 0
    # r - 2 > bitlength(p) makes 2^(r-2) > p, so the power is never materialized
    shortcut_small = r - 2 <= p.bit_length() and 2 ** (r - 2) < p - 1
    assert not (shortcut_r_mod or shortcut_small) or passed
    return ConditionPR(p, r, residue, passed, shortcut_r_mod, shortcut_small)
