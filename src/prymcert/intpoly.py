"""Exact univariate polynomial arithmetic over Z and over prime fields.

Polynomials are dense coefficient tuples of arbitrary-precision integers
(index = degree of the monomial), so nothing in this module ever rounds.
Resultants and discriminants are computed by the subresultant polynomial
remainder sequence: no fraction-field arithmetic, exact at every step, and
fast at the degrees the pipeline needs (up to 238, at m = 119).
Factorization data mod q is limited to distinct-degree factorization, since
the Frobenius machinery downstream only consumes the multiset of
irreducible-factor degrees, never the factors themselves.

Distinct-degree factorization goes through the Frobenius map (von zur
Gathen and Shoup, "Computing Frobenius maps and factoring polynomials",
1992), once per batch of consecutive primes: mod M, their product,
(Z/M)[x]/(f) is the product of the F_q[x]/(f) (CRT).  One left-to-right
squaring mod M, stepped by "times x" to each prime's exponent and glued by
CRT idempotents, gives X = x^q mod f at every prime, and one set of
Q-matrix rows X^i mod f serves the batch; since w(x)^q = w(X) over F_q,
each x^(q^d) is one vector-matrix product.  Each prime reads these mod q
and runs only the gcds, which stay mod the original f: they are taken
against the cofactor v, which divides f.  They are interval gcds (the same
paper; Shoup, J. Symb. Comp. 20, 1995): one gcd of v with the product of
x^(q^d) - x over a block of about sqrt(n / 2) consecutive degrees (n the
degree factored), refined degree by degree only when it is nontrivial.
Products are exact Python ints packed by Kronecker substitution, reduced
mod q (or M) once per output coefficient, and reduced mod f through f's
nonzero coefficients only (three for the family's trinomials).

An even f(x) = g(x^2) mod an odd q, such as the composite h = u(x^2) that
Chebotarev sampling factors, is factored through g at half the degree.  A
Frobenius cycle of length L on the roots of g either splits into two
L-cycles on the roots of f or becomes one 2L-cycle, according to whether
its root b is a square in F_(q^L).  The factors of g of one degree d,
found as one product, are split by one gcd with y^((q^d-1)/2) - 1, whose
roots are the squares, and a lone factor v by the Legendre symbol of its
root's norm (-1)^d v(0).  The route is exact, with no equal-degree
splitting and no randomness.  sign_lift states this lift for signedperm too.

unramified_factor_degrees is the one walk over the primes: every scan of a
polynomial's Frobenius types (irreducibility witnesses, the Jordan cycle,
Chebotarev samples) reads it, so a chain factors each (f, q) once.

For n = deg g <= 12, a prime q > 2n is typed with no gcd, from traces of
the batch's Frobenius map Q: w -> w^q on F_q[y]/(g) (Berlekamp, "Factoring
polynomials over finite fields", Bell Syst. Tech. J. 46, 1967).  Tr(Q^k) =
sum over d | k of d c_d, the number of roots of g in F_(q^k), c_d counting
the factors of degree d.  For f = g(x^2) and B_k = y^((q^k-1)/2),
Tr(B_k Q^k) = sum over d | k of d sum_j e_j^(k/d) over those factors, with
e_j = +1 when one gives two d-cycles of f and -1 when it gives one 2d-cycle.
k = 1..n // 2 fix the factors of degree <= n/2; the one factor left takes
the sign that makes the product of all the Legendre symbol of (-1)^n g(0),
g monic.  The traces lie in [-n, n], so their residues mod q > 2n are exact,
and a table of the signed cycle types of degree n decodes them.  The DDF
kernel serves q <= 2n and n > 12 (_TRACE_MAX_N).  Over 120-prime walks of
y^n - y - 1 and its g(x^2) (trace table built), the traces took 0.75 and
1.04 of the DDF walk's time at n = 12, 0.80 and 1.20 at n = 13, 2.7 and 39
at n = 29.

Text format (parse_poly / format_poly): signed integer-coefficient
expressions in one variable, e.g. ``x^10 - x^2 - 1``; arbitrary whitespace,
caret exponents, implicit coefficient 1.
"""

from __future__ import annotations

import math
import re
from functools import cache
from itertools import islice, takewhile

from . import _resolver
from ._primes import is_prime, primes
from ._record import Record
from .prymcalc import condition_p_r  # re-exported; its home is prymcalc


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
        if not isinstance(other, IntPoly):
            return NotImplemented
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
        if not isinstance(other, IntPoly):
            return NotImplemented
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


def sign_lift(length: int, sign: int) -> tuple[int, ...]:
    """The cycles over one cycle of this length and sign: (L, L) for +1, (2L,) for -1."""
    return (length, length) if sign == 1 else (2 * length,)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

# ASCII only: Unicode \d would let int() read other scripts' digits
_TERM_RE = re.compile(r"([+-])\s*(\d+)?\s*(\*?\s*x(?:\s*\^\s*(\d+))?)?\s*", re.ASCII)


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


def _ring(f: list[int], modulus: int):
    """(reduce, mulmod, slot bits) of (Z/modulus)[y]/(f), for f monic mod modulus."""
    n = len(f) - 1
    tail = [(k, c) for k, c in enumerate(f[:n]) if c]  # f's nonzero lower terms
    # a slot holds a sum of at most n products of residues
    bits = (n * (modulus - 1) ** 2).bit_length()

    def reduce(a):
        """a mod f as n residues; a holds exact ints."""
        for i in range(len(a) - 1, n - 1, -1):
            c = a[i] % modulus
            if c:
                for k, fk in tail:
                    a[i - n + k] -= c * fk
        a = [c % modulus for c in a[:n]]
        return a + [0] * (n - len(a))

    def mulmod(a, b, times_y=0):
        """a b y^times_y mod f, for times_y in (0, 1); "times y" shifts by one slot."""
        a_packed = _pack(a, bits)
        b_packed = a_packed if b is a else _pack(b, bits)
        return reduce(_unpack(a_packed * b_packed << times_y * bits, 2 * n - 1 + times_y, bits))

    return reduce, mulmod, bits


class _Frobenius:
    """The Frobenius map of F_q[y]/(f) for every prime q of a batch, mod M = prod q.

    y^N, N the first prime's exponent, is stepped by "times y" to each
    prime's q // s and glued by CRT idempotents (1 mod that prime, 0 mod the
    others) into A: y^((q-1)/2) mod every q when s = 2, y^q when s = 1.
    X = y A^2 (s = 2) or A; the rows X^i of one Q-matrix give the iterates
    y^(q^d) of the whole batch.  Each prime reads its values mod q.
    """

    def __init__(self, f: list[int], batch: list[int], s: int):
        self.modulus = modulus = math.prod(batch)
        self.f = f = _fq_monic(f, modulus)
        self.n = n = len(f) - 1
        reduce, mulmod, self.bits = _ring(f, modulus)
        self.s, self.mulmod = s, mulmod
        y = reduce([0, 1])
        e = batch[0] // s
        power = y  # y^e mod f, left to right
        for i in range(e.bit_length() - 2, -1, -1):
            power = mulmod(power, power, e >> i & 1)
        A = [0] * n
        for q in batch:
            power = reduce([0] * (q // s - e) + power)  # times y^(q // s - e)
            e = q // s
            idempotent = modulus // q * pow(modulus // q, -1, q)
            A = [a + idempotent * c for a, c in zip(A, power)]
        self.A = A = [a % modulus for a in A]
        X = mulmod(A, A, 1) if s == 2 else A
        rows = [reduce([1])]
        while len(rows) < n:
            rows.append(mulmod(rows[-1], X))
        self.rows = [_pack(row, self.bits) for row in rows]
        self.iterates = [y]  # y^(q^d) mod f, d = 0, 1, ...
        self.halves = [A]  # B_d = y^((q^d-1)/2) mod f, d = 1, 2, ..., when s = 2

    def __call__(self, w: list[int]) -> list[int]:
        """w(X) as n unreduced slots, for w with coefficients in [0, M); w^q mod each q."""
        return _unpack(sum(c * r for c, r in zip(w, self.rows) if c), self.n, self.bits)

    def iterate(self, d: int) -> list[int]:
        """y^(q^d) mod f, mod M."""
        while len(self.iterates) <= d:
            self.iterates.append([c % self.modulus for c in self(self.iterates[-1])])
        return self.iterates[d]

    def half(self, d: int) -> list[int]:
        """B_d = y^((q^d-1)/2) mod f, mod M, stepped as B_(k+1) = B_k^q A (s = 2)."""
        while len(self.halves) < d:
            power = [c % self.modulus for c in self(self.halves[-1])]
            self.halves.append(self.mulmod(power, self.A))
        return self.halves[d - 1]

    def traces(self, count: int) -> list[int]:
        """Tr(Q^k) for k = 1..count, then Tr(B_k Q^k) when s = 2, mod M.

        Q^k maps y^i to X_k^i, X_k = y^(q^k); B_k is half(k).  A linear map L
        of F_q[y]/(f) has trace the coefficient of y^(n-1) in sum_i b_i L(y^i),
        f(Y) / (Y - y) = sum_i b_i Y^i: the b_i / f'(y) are the dual basis of
        the y^i under the trace form, which takes z / f'(y) to that coefficient
        of z (Euler).
        """
        n, mulmod, modulus = self.n, self.mulmod, self.modulus
        b = [[1] + [0] * (n - 1)]  # b_(n-1), ..., b_0: b_(n-1) = 1, b_i = y b_(i+1) + f_(i+1)
        for i in range(n - 2, -1, -1):
            b.append([self.f[i + 1]] + b[-1][:-1])
        sums = []
        for k in range(1, count + 1):
            x = self.iterate(k)
            total = b[0]
            for j, b_i in enumerate(b[1:]):
                # the chain starts at X_k + b_(n-2): b_(n-1) X_k = X_k needs no product
                total = [(c + d) % modulus for c, d in zip(mulmod(total, x) if j else x, b_i)]
            sums.append(total)
        traces = [total[n - 1] for total in sums]
        if self.s == 2:
            traces += [mulmod(self.half(k), total)[n - 1] for k, total in enumerate(sums, 1)]
        return traces


class _Residues(list):
    """f mod q as a list of residues, whose attribute frobenius is q's batch's _Frobenius."""


def _factor_degrees(f: list[int], q: int, s: int) -> CycleType:
    """The DDF kernel: factor degrees of F(x) = f(x^s) mod q, without checks.

    f is a list of residues mod q, monic and squarefree, with f(0) != 0 when
    s = 2 (so q is odd).  A _Residues f brings its batch's _Frobenius; any
    other list is a batch of one (M = q).  The walk runs it for its primes
    q <= 2n, and for all of them when n > _TRACE_MAX_N, n = deg f.

    Every gcd is taken against the cofactor v of the factors found so far,
    which is valid because v divides f.  The degrees go in blocks of L =
    max(1, isqrt(n // 2)) consecutive d, so L = 1 for n <= 7.  One gcd G of
    v with the product of the t_d = y^(q^d) - y of the block, mod f, finds
    every factor whose degree lies in the block.  A nontrivial G is refined
    by gcd(t_d, G) in increasing d, removing each part found, and a
    remainder of degree < 2d is one factor and needs no gcd.  The loop runs
    while deg v >= 2(d + 1); what is left then is one factor.

    When s = 2 the powering goes through A = y^((q-1)/2) to y A^2 = y^q (y
    does not divide f).  An irreducible factor v of f of degree e with root
    b gives two factors of F of degree e when b is a square in F_(q^e), else
    one of degree 2e.  A lone v is typed by whether its norm (-1)^e v(0) is
    a square mod q; a part of several factors of degree d <= n // 2 by
    gcd(B_d - 1, part), B_d = y^((q^d-1)/2) = B_(d-1)^q A (B_1 = A), whose
    roots are the squares.
    """
    frobenius_map = getattr(f, "frobenius", None) or _Frobenius(f, [q], s)
    _, mulmod, _ = _ring(f, q)

    def record(part, d):
        """Append the factors of F over part, a product of factors of f of degree d."""
        e = len(part) - 1
        if s == 1:
            degrees.extend([d] * (e // d))
        elif e == d:  # one factor: its root is a square iff its norm (-1)^d part(0) is
            degrees.extend(sign_lift(d, 1 if pow((-1) ** d * part[0], q // 2, q) == 1 else -1))
        else:
            # a root of part lies in F_(q^d), and is a square there iff
            # B_d = y^((q^d-1)/2) is 1 at it
            b = [c % q for c in frobenius_map.half(d)]
            squares = (len(_fq_gcd([b[0] - 1] + b[1:], part, q)) - 1) // d  # factors of sign +1
            degrees.extend(sign_lift(d, 1) * squares + sign_lift(d, -1) * (e // d - squares))

    degrees: list[int] = []
    v = f  # the cofactor of the factors found so far; it divides f, so t stays mod f
    length = max(1, math.isqrt((len(f) - 1) // 2))  # degrees per block
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        # one gcd against the product of t_d = y^(q^d) - y over a block of degrees
        block = []
        product = None
        for _ in range(min(length, (len(v) - 1) // 2 - d)):
            d += 1
            t = [c % q for c in frobenius_map.iterate(d)]
            t[1] = (t[1] - 1) % q
            block.append((d, t))
            product = t if product is None else mulmod(product, t)
        g = _fq_gcd(product, v, q)
        if len(g) == 1:
            continue
        v = _fq_divexact(v, g, q)
        # refine: g's factors have degrees in the block, so take them in increasing d
        for i, (d_i, t) in enumerate(block):
            if len(g) - 1 < 2 * d_i:  # at most one factor left, of degree deg g
                if len(g) > 1:
                    record(g, len(g) - 1)
                break
            part = g if i == len(block) - 1 else _fq_gcd(t, g, q)
            if len(part) > 1:
                record(part, d_i)
                g = _fq_divexact(g, part, q)
    if len(v) > 1:  # one factor, of degree deg v, since all of degree <= deg v / 2 are out
        record(v, len(v) - 1)
    return CycleType(degrees)


_BATCH_CAP = 16  # batches of 1, 2, 4, ... primes up to this; larger M costs more than it shares
_TRACE_MAX_N = 12  # the trace route serves deg g <= this; see unramified_factor_degrees


@cache
def _trace_table(n: int, s: int) -> dict[tuple[int, ...], CycleType]:
    """Factor degrees of f(x) = g(x^s), deg g = n, keyed by the traces of g's Frobenius.

    Factors of g of degree d and sign e give the key N_k = sum of d over d | k
    and, when s = 2, T_k = sum of d e^(k/d) over d | k, for k = 1..n // 2,
    then the product of the e (1 when s = 1); and factors [d] of f when s = 1,
    else sign_lift(d, e): [d, d] for e = +1 and [2d] for e = -1.
    """
    ks = range(1, n // 2 + 1)
    states = [(0, [0] * (len(ks) * s), 1, ())]  # (degree of g, traces, sign, factors of f)
    for d in range(1, n + 1):
        for e in (1, -1)[:s]:
            # what the factor adds to N_1.., then (t = 1) to T_1..
            terms = [d * e ** (k // d * t) if k % d == 0 else 0 for t in range(s) for k in ks]
            factors = (d,) if s == 1 else sign_lift(d, e)
            for degree, traces, sign, degrees in states:  # and the states it appends
                if degree + d <= n:
                    traces = [a + b for a, b in zip(traces, terms)]
                    states.append((degree + d, traces, sign * e, degrees + factors))
    return {(*key, sign): CycleType(degrees) for deg, key, sign, degrees in states if deg == n}


def unramified_factor_degrees(f: IntPoly, disc: int, prime_budget: int | None = None):
    """Yield (q, factor degrees of f mod q) over the unramified primes q.

    disc is the discriminant of f; when it is 0 (no unramified prime), the
    first prime requested raises a ValueError naming f's repeated factor.
    The primes are those dividing neither lc(f) nor disc, in increasing
    order, so f mod q is squarefree of degree deg f and every yielded value
    is a CycleType; the kernel runs without checks, which these primes pass.
    The stream ends after the last prime <= prime_budget, or never when
    there is no budget.  It goes in batches of 1, 2, 4, ... up to _BATCH_CAP
    consecutive primes, one _Frobenius mod their product each, computed on
    reaching the batch, so a walk that stops early powers about what it
    yields; no batch holds a prime past the budget.

    For n = deg g <= _TRACE_MAX_N, f = g(x^s), a prime q > 2n takes its type
    from the batch's _Frobenius.traces(n // 2): Tr(Q^k) = sum over d | k of
    d c_d and, when s = 2, Tr(B_k Q^k) = sum over d | k of d sum_j e_j^(k/d)
    (see the module docstring).  Their residues mod q, read in [-n, n], and
    the Legendre symbol of (-1)^n g(0), g monic, key it in _trace_table(n, s);
    a key not in the table raises ArithmeticError.  The DDF kernel runs for
    q <= 2n and for n > _TRACE_MAX_N, where the n // 2 Horner chains of n
    products mod M per batch cost more than the gcds they replace (the module
    docstring gives the timings).
    """
    if disc == 0:
        raise ValueError(f"{format_poly(f)} is not squarefree: it shares the factor "
                         f"{format_poly(poly_gcd(f, f.derivative()))} with its derivative, "
                         "so every prime is ramified")
    # f(x) = g(x^2) is factored at half the degree; it is a square mod 2
    # (g(x^2) = g(x)^2 over F_2), so 2 divides disc or lc(f) and every q is odd
    s = 1 if any(f.coeffs[1::2]) else 2
    walk = primes() if prime_budget is None else takewhile(lambda q: q <= prime_budget, primes())
    unramified = (q for q in walk if f.lc % q and disc % q)
    n = f.degree // s
    size = 1
    while batch := list(islice(unramified, size)):
        frobenius = _Frobenius(f.coeffs[::s], batch, s)
        traces = None
        for q in batch:
            if n > _TRACE_MAX_N or q <= 2 * n:
                residues = _Residues(c % q for c in frobenius.f)
                residues.frobenius = frobenius
                yield q, _factor_degrees(residues, q, s)
                continue
            if traces is None:
                traces = frobenius.traces(n // 2)
            legendre = pow((-1) ** n * frobenius.f[0], (q - 1) // 2, q) if s == 2 else 1
            key = [t % q for t in traces] + [legendre]
            key = tuple(k if k <= q // 2 else k - q for k in key)
            table = _trace_table(n, s)
            if key not in table:
                raise ArithmeticError(f"trace key {key} at q = {q} is no cycle type of degree {n}")
            yield q, table[key]
        size = min(2 * size, _BATCH_CAP)


# ---------------------------------------------------------------------------
# irreducibility over Q
# ---------------------------------------------------------------------------


class Irreducible(Record):
    """Certified irreducible: f mod witness is irreducible over F_witness."""

    witness: int


class Inconclusive(Record):
    """No witness prime within budget and no factor found; no verdict."""


class Certified(Record):
    """All premises of the even-composite irreducibility rule hold (the oracle's verdict)."""

    premises: tuple[tuple[str, object], ...]


class NotApplicable(Record):
    failed: str


# the names no command runs, defined in prymcert.reference and resolved from here (PEP 562)
_MOVED = {"DiscPair", "RAMIFIED", "Reducible", "_RamifiedType", "_divisors",
          "_rational_root_factor", "build_family", "family_disc_pair",
          "irreducible_composite_rule", "irreducible_over_Q", "reduce_and_factor_degrees"}

__getattr__ = _resolver(__name__, dict.fromkeys(_MOVED, "reference"))
