"""Exact polynomial arithmetic: oracles first, closed forms second."""

import collections
import itertools
import math
import random

import numpy as np
import pytest

from prymcert.intpoly import (
    RAMIFIED,
    Certified,
    CycleType,
    Inconclusive,
    IntPoly,
    Irreducible,
    NotApplicable,
    Reducible,
    build_family,
    compose_x2,
    condition_p_r,
    disc_of_even_composite,
    discriminant,
    family_disc_pair,
    format_poly,
    irreducible_composite_rule,
    irreducible_over_Q,
    is_square,
    parse_poly,
    poly_gcd,
    primes,
    reduce_and_factor_degrees,
    resultant,
    trinomial,
    trinomial_disc,
    unramified_factor_degrees,
)


def _random_poly(rng, deg, monic=True):
    coeffs = [rng.randint(-9, 9) for _ in range(deg)]
    coeffs.append(1 if monic else rng.randint(1, 9))
    return IntPoly(coeffs)


# ---------------------------------------------------------------------------
# representation and text format
# ---------------------------------------------------------------------------


def test_normalization_and_basics():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly(()).is_zero and IntPoly(()).degree == -1
    p = parse_poly("x^3 - x - 1")
    assert p.degree == 3 and p.lc == 1 and p.coeff(0) == -1
    assert p(2) == 5
    assert p.derivative() == IntPoly((-1, 0, 3))


def test_parse_format_round_trip():
    for text in ("x^10 - x^2 - 1", "x^5 - x - 1", "-3x^2 + 5", "x", "7", "-x"):
        assert format_poly(parse_poly(text)) == text
    assert parse_poly("  x ^ 2   +  2 x -1 ") == IntPoly((-1, 2, 1))
    assert parse_poly("3*x^2 - 1") == IntPoly((-1, 0, 3))
    assert parse_poly("x + x") == IntPoly((0, 2))
    assert parse_poly("0").is_zero
    with pytest.raises(ValueError):
        parse_poly("x + + 1")
    with pytest.raises(ValueError):
        parse_poly("y^2")
    with pytest.raises(ValueError):
        parse_poly("")


def test_parse_poly_reads_only_ascii_digits():
    # int() reads the decimal digits of every script; the parser does not
    for text in ("x^\u0661\u0660 - x^\u0662 - \u0661", "x^2 + \U0001d7d9", "x^2 + \uff13"):
        with pytest.raises(ValueError, match="cannot parse polynomial near"):
            parse_poly(text)
    assert parse_poly("x^10 - x^2 - 1") == compose_x2(trinomial(5, 1))
    assert parse_poly("\tx^2\n+ 3") == IntPoly((3, 0, 1))


# ---------------------------------------------------------------------------
# compose_x2 and family construction
# ---------------------------------------------------------------------------


def test_compose_x2():
    assert compose_x2(parse_poly("x - 1")) == parse_poly("x^2 - 1")
    assert compose_x2(parse_poly("x^5 - x - 1")) == parse_poly("x^10 - x^2 - 1")
    assert compose_x2(IntPoly.zero()).is_zero
    u = parse_poly("x^3 + 2x^2 - 5")
    h = compose_x2(u)
    assert h.degree == 2 * u.degree and h.coeff(0) == u.coeff(0)


def test_build_family():
    u, h, f, params = build_family(3, 2, 1)
    assert params.m == 5 and params.n == 11
    assert format_poly(f) == "x^11 - x^3 - x"
    assert format_poly(h) == "x^10 - x^2 - 1"
    assert format_poly(u) == "x^5 - x - 1"
    _, _, f2, params2 = build_family(3, 4, 1)
    assert params2.m == 11 and format_poly(f2) == "x^23 - x^3 - x"
    with pytest.raises(ValueError):
        build_family(3, 2, 2)
    with pytest.raises(ValueError):
        build_family(2, 2, 1)
    with pytest.raises(ValueError):
        build_family(9, 2, 1)
    with pytest.raises(ValueError):
        build_family(3, 1, 1)


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def test_resultant_known_values():
    assert resultant(parse_poly("x^2 + 1"), parse_poly("x - 1")) == 2
    # res(x - a, x - b) = a - b
    assert resultant(parse_poly("x - 3"), parse_poly("x - 5")) == -2
    with pytest.raises(ValueError):
        resultant(IntPoly.zero(), parse_poly("x"))


def test_resultant_numeric_root_product_oracle():
    # res(a, b) = lc(a)^deg(b) * prod over roots alpha of a of b(alpha)
    cases = [
        ("x^3 - x - 1", "3x^2 - 1"),
        ("x^5 - x - 1", "x^2 + 2x + 3"),
        ("2x^4 + x - 3", "x^3 - 2"),
    ]
    for sa, sb in cases:
        a, b = parse_poly(sa), parse_poly(sb)
        roots = np.roots(list(reversed(a.coeffs)))
        prod = np.prod([b(r) for r in roots]) * a.lc ** b.degree
        exact = resultant(a, b)
        assert abs(prod.real - exact) / max(1.0, abs(exact)) < 1e-6


def test_resultant_swap_and_multiplicativity():
    rng = random.Random(20240)
    for _ in range(60):
        a = _random_poly(rng, rng.randint(1, 6))
        b = _random_poly(rng, rng.randint(1, 6))
        c = _random_poly(rng, rng.randint(1, 4))
        sign = -1 if (a.degree % 2 and b.degree % 2) else 1
        assert resultant(a, b) == sign * resultant(b, a)
        assert resultant(a, b * c) == resultant(a, b) * resultant(a, c)


# ---------------------------------------------------------------------------
# discriminants
# ---------------------------------------------------------------------------


def test_discriminant_cubic_formula_oracle():
    # disc(x^3 + px + q) = -4p^3 - 27q^2
    rng = random.Random(7)
    for _ in range(40):
        p, q = rng.randint(-9, 9), rng.randint(-9, 9)
        f = IntPoly((q, p, 0, 1))
        assert discriminant(f) == -4 * p**3 - 27 * q**2
    assert discriminant(parse_poly("x^3 - x - 1")) == -23


def test_discriminant_quintic_formula_oracle():
    # disc(x^5 + ax + b) = 4^4 a^5 + 5^5 b^4
    rng = random.Random(8)
    for _ in range(40):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        f = IntPoly((b, a, 0, 0, 0, 1))
        assert discriminant(f) == 256 * a**5 + 3125 * b**4
    assert discriminant(parse_poly("x^5 - x - 1")) == 2869


def test_discriminant_misc():
    assert discriminant(parse_poly("x^2 - 1")) == 4
    with pytest.raises(ValueError):
        discriminant(parse_poly("5"))


def test_discriminant_zero_iff_repeated_factor():
    rng = random.Random(9)
    for trial in range(80):
        if trial % 2:
            g = _random_poly(rng, rng.randint(1, 3))
            h = _random_poly(rng, rng.randint(1, 2))
            f = g * g * h
        else:
            f = _random_poly(rng, rng.randint(1, 8))
        nonconstant_gcd = poly_gcd(f, f.derivative()).degree >= 1
        assert (discriminant(f) == 0) == nonconstant_gcd


# ---------------------------------------------------------------------------
# trinomial closed forms against the subresultant oracle
# ---------------------------------------------------------------------------


def test_trinomial_disc_matches_oracle():
    for m in range(3, 16, 2):
        for c in range(-9, 10, 2):
            assert trinomial_disc(m, c) == discriminant(trinomial(m, c))
            assert trinomial_disc(m, c) % 2 != 0  # always odd


def test_trinomial_disc_values():
    assert trinomial_disc(3, 1) == -23
    assert trinomial_disc(5, 1) == 2869
    assert trinomial_disc(3, 3) == -239  # (-1)^3 (27*9 - 4)


def test_trinomial_disc_rejects_bad_input():
    with pytest.raises(ValueError):
        trinomial_disc(4, 1)
    with pytest.raises(ValueError):
        trinomial_disc(5, 2)
    with pytest.raises(ValueError):
        trinomial_disc(5, 0)


def test_simplified_form_without_leading_power_is_wrong():
    # dropping the m^m factor gives +-(c^(m-1) + (m-1)^(m-1)) = +-5 at (3, 1),
    # which no sign choice reconciles with the true discriminant -23
    m, c = 3, 1
    simplified = c ** (m - 1) + (m - 1) ** (m - 1)
    assert simplified == 5
    assert trinomial_disc(m, c) == -23
    assert -23 not in (simplified, -simplified)


def test_disc_of_even_composite_matches_oracle():
    for m in range(3, 12, 2):
        for c in range(-5, 6, 2):
            expected = discriminant(compose_x2(trinomial(m, c)))
            assert disc_of_even_composite(m, c) == expected


def test_disc_of_even_composite_square_for_unit_c():
    for m in range(3, 12, 2):
        d = disc_of_even_composite(m, 1)
        assert is_square(d)
        assert d == (2**m * trinomial_disc(m, 1)) ** 2
    assert disc_of_even_composite(3, 1) == 33856 == 184**2
    pair = family_disc_pair(3, 1)
    assert pair.delta_u == -23 and pair.delta_h == 33856


def test_p_divides_disc_iff_condition_fails():
    # even r only: for odd r the trinomial has even degree (rejected by the
    # closed forms) and the equivalence itself fails, e.g. at (p, r) = (3, 3)
    # where 3 | 1 + 2^(r-2) = 3 but disc(x^8 - x - 1) = -17600759 = 1 mod 3
    for p in (3, 5, 7, 11, 13):
        for r in range(2, 9, 2):
            m = p * r - 1
            cond = condition_p_r(p, r)
            assert (trinomial_disc(m, 1) % p == 0) == (not cond.passed), (p, r)
            assert (disc_of_even_composite(m, 1) % p == 0) == (not cond.passed)
    assert discriminant(trinomial(8, 1)) % 3 == 1
    assert not condition_p_r(3, 3).passed


# ---------------------------------------------------------------------------
# factor degrees mod q
# ---------------------------------------------------------------------------


def test_factor_degrees_known():
    assert reduce_and_factor_degrees(parse_poly("x^2 + 1"), 5) == CycleType([1, 1])
    assert reduce_and_factor_degrees(parse_poly("x^2 + 1"), 3) == CycleType([2])
    assert reduce_and_factor_degrees(parse_poly("x^3 - x - 1"), 23) is RAMIFIED
    with pytest.raises(ValueError):
        reduce_and_factor_degrees(parse_poly("3x^2 + 1"), 3)
    with pytest.raises(ValueError):
        reduce_and_factor_degrees(parse_poly("x^2 + 1"), 4)


def test_factor_degrees_sum_to_degree():
    rng = random.Random(31)
    qs = [q for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 53, 71, 97)]
    for _ in range(120):
        f = _random_poly(rng, rng.randint(1, 9))
        q = rng.choice(qs)
        if f.lc % q == 0:
            continue
        ct = reduce_and_factor_degrees(f, q)
        if ct is not RAMIFIED:
            assert ct.total == f.degree


def test_factor_degrees_match_cycle_type_of_known_splitting():
    # x^4 + 1 has degree pattern {2,2} at every odd prime (its group is 2x2)
    f = parse_poly("x^4 + 1")
    for q in (3, 5, 7, 11, 13):
        ct = reduce_and_factor_degrees(f, q)
        assert ct in (CycleType([1, 1, 1, 1]), CycleType([2, 2])), (q, ct)


def _sympy_factor_degrees(f, q):
    """Independent oracle: sympy's squarefree test and distinct-degree factorization."""
    gt = pytest.importorskip("sympy.polys.galoistools")
    ZZ = pytest.importorskip("sympy.polys.domains").ZZ
    _, g = gt.gf_monic(gt.gf_from_int_poly(list(reversed(f.coeffs)), q), q, ZZ)
    if not gt.gf_sqf_p(g, q, ZZ):
        return RAMIFIED
    return CycleType(
        d for factor, d in gt.gf_ddf_zassenhaus(g, q, ZZ) for _ in range((len(factor) - 1) // d)
    )


def _oracle_corpus():
    """Fixed (f, primes) pairs: the family, random polynomials, and products.

    The pure-Python oracle is slow, so random polynomials get a seeded sample
    of the primes and high-degree family members a few primes each.
    """
    small_primes = list(itertools.islice(primes(), 40))
    all_primes = small_primes + [17417, 65521, 2**31 - 1]
    rng = random.Random(20261018)
    pairs = []
    for m in (3, 5, 7, 9):
        u = trinomial(m, 1)
        pairs += [(u, all_primes), (compose_x2(u), all_primes)]
    u29, u61 = trinomial(29, 1), trinomial(61, 1)
    pairs += [(u29, small_primes[:12] + [17417]), (compose_x2(u29), small_primes[:6] + [17417])]
    pairs += [(u61, small_primes[:6] + [17417]), (compose_x2(u61), small_primes[:3])]
    for _ in range(40):
        f = _random_poly(rng, rng.randint(1, 20), monic=rng.random() < 0.5)
        pairs.append((f, rng.sample(all_primes, 8)))
    for _ in range(15):
        # a repeated factor: RAMIFIED at every prime
        a, b = _random_poly(rng, rng.randint(1, 4)), _random_poly(rng, rng.randint(1, 6))
        pairs.append((a * a * b, all_primes))
    for _ in range(15):
        # several factors of distinct degrees: the cofactor shrinks more than once
        f = IntPoly.one()
        for d in rng.sample(range(1, 7), rng.randint(2, 4)):
            f = f * _random_poly(rng, d)
        pairs.append((f, rng.sample(all_primes, 10)))
    pairs.append((parse_poly("x^2 + 1") ** 2 * parse_poly("x^3 - x - 1"), all_primes))
    f = IntPoly.one()
    for text in ("x - 3", "x^2 + x + 1", "x^3 - x - 1", "x^5 - x - 1"):
        f = f * parse_poly(text)
    pairs.append((f, all_primes))
    return [(f, [q for q in qs if f.lc % q]) for f, qs in pairs]


def test_factor_degrees_agree_with_sympy():
    pairs = ramified = 0
    for f, qs in _oracle_corpus():
        for q in qs:
            ct = reduce_and_factor_degrees(f, q)
            expected = _sympy_factor_degrees(f, q)
            if expected is RAMIFIED:
                assert ct is RAMIFIED, (f, q, ct)
                ramified += 1
            else:
                assert ct == expected, (f, q, ct, expected)
                assert ct.total == f.degree
            pairs += 1
    assert pairs > 1500 and ramified > 600


def test_factor_degrees_repeat_calls():
    f = compose_x2(trinomial(7, 1))
    for q in (3, 17417, 2**31 - 1):
        assert reduce_and_factor_degrees(f, q) == reduce_and_factor_degrees(f, q)
    assert reduce_and_factor_degrees(f, 2) is reduce_and_factor_degrees(f, 2) is RAMIFIED
    reduce_and_factor_degrees(parse_poly("3x^2 + 1"), 5)
    for _ in range(3):
        with pytest.raises(ValueError):
            reduce_and_factor_degrees(parse_poly("3x^2 + 1"), 3)
        with pytest.raises(ValueError):
            reduce_and_factor_degrees(f, 4)
        with pytest.raises(ValueError):
            reduce_and_factor_degrees(f, 3.0)
        with pytest.raises(ValueError):
            reduce_and_factor_degrees(parse_poly("5"), 3)


# ---------------------------------------------------------------------------
# irreducibility over Q
# ---------------------------------------------------------------------------


def test_irreducible_selmer_quintic():
    verdict = irreducible_over_Q(parse_poly("x^5 - x - 1"))
    assert isinstance(verdict, Irreducible)
    assert reduce_and_factor_degrees(parse_poly("x^5 - x - 1"), verdict.witness) == (5,)


def test_reducible_by_rational_root():
    verdict = irreducible_over_Q(parse_poly("x^2 - 1"))
    assert isinstance(verdict, Reducible)
    assert verdict.factor == parse_poly("x - 1")


def test_reducible_by_repeated_factor():
    # no rational root, but a repeated quadratic factor is detected via gcd(f, f')
    f = parse_poly("x^2 + x + 1") * parse_poly("x^2 + x + 1") * parse_poly("x^2 + 2")
    verdict = irreducible_over_Q(f)
    assert isinstance(verdict, Reducible)
    assert 1 <= verdict.factor.degree < f.degree
    assert poly_gcd(f, verdict.factor) == verdict.factor


def test_inconclusive_for_even_composite():
    # no prime gives an irreducible reduction: the group has no 2m-cycle
    verdict = irreducible_over_Q(parse_poly("x^6 - x^2 - 1"), prime_budget=200)
    assert isinstance(verdict, Inconclusive)


def test_irreducible_guards():
    with pytest.raises(ValueError):
        irreducible_over_Q(parse_poly("7"))
    with pytest.raises(ValueError):
        irreducible_over_Q(parse_poly("2x^2 + 2"))


# ---------------------------------------------------------------------------
# the composite rule and the descent condition
# ---------------------------------------------------------------------------


def test_irreducible_composite_rule():
    res = irreducible_composite_rule(parse_poly("x^5 - x - 1"))
    assert isinstance(res, Certified)
    assert dict(res.premises)["constant term -c, c nonzero"] == 1
    assert isinstance(irreducible_composite_rule(parse_poly("x^5 + x^2 - x - 1")), NotApplicable)
    assert isinstance(irreducible_composite_rule(parse_poly("x^4 - x - 1")), NotApplicable)
    assert isinstance(irreducible_composite_rule(parse_poly("x^5 - x + 0")), NotApplicable)
    assert isinstance(irreducible_composite_rule(parse_poly("2x^5 - x - 1")), NotApplicable)


def test_condition_p_r():
    c32 = condition_p_r(3, 2)
    assert c32.passed and c32.residue == 2 and c32.shortcut_r_mod
    c54 = condition_p_r(5, 4)
    assert not c54.passed and c54.residue == 0
    assert condition_p_r(7, 4).passed
    with pytest.raises(ValueError):
        condition_p_r(2, 2)
    with pytest.raises(ValueError):
        condition_p_r(3, 1)


def test_condition_shortcuts_imply_pass():
    for p in (3, 5, 7, 11, 13):
        for r in range(2, 12):
            cond = condition_p_r(p, r)
            if cond.shortcut_r_mod or cond.shortcut_small:
                assert cond.passed


def test_condition_huge_r_shortcut_guard():
    # 2^(r-2) is never materialized for large r
    cond = condition_p_r(3, 10**6)
    assert isinstance(cond.passed, bool) and not cond.shortcut_small


# ---------------------------------------------------------------------------
# gcd and misc helpers
# ---------------------------------------------------------------------------


def test_poly_gcd():
    a = parse_poly("x^2 - 1") * parse_poly("x + 2")
    b = parse_poly("x^2 - 1") * parse_poly("x - 3")
    g = poly_gcd(a, b)
    assert g == parse_poly("x^2 - 1")
    assert poly_gcd(IntPoly.zero(), a) == a
    assert poly_gcd(2 * a, 4 * a).lc > 0


def test_is_square():
    assert is_square(0) and is_square(1) and is_square(33856)
    assert not is_square(-1) and not is_square(2) and not is_square(2869)


def test_cycle_type_container():
    ct = CycleType([4, 2])
    assert ct == (2, 4) and ct.total == 6
    assert len({CycleType([2, 4]), CycleType([4, 2])}) == 1
    with pytest.raises(ValueError):
        CycleType([0, 1])


def test_unramified_factor_degrees_skips_ramified_primes():
    for f in (parse_poly("3x^3 - x - 1"), parse_poly("x^6 - x^2 - 1"), trinomial(9, 1)):
        disc = discriminant(f)
        walk = list(itertools.islice(unramified_factor_degrees(f, disc), 25))
        naive = [
            (q, reduce_and_factor_degrees(f, q))
            for q in itertools.islice(primes(), 60)
            if f.lc % q and reduce_and_factor_degrees(f, q) is not RAMIFIED
        ][:25]
        assert walk == naive
        assert all(f.lc % q and disc % q for q, _ in walk)
    with pytest.raises(ValueError):
        next(unramified_factor_degrees(parse_poly("x^4"), 0))


# ---------------------------------------------------------------------------
# even polynomials g(x^2): the half-degree route
# ---------------------------------------------------------------------------


def _even_corpus():
    """Seeded g(x^2) with the cases the half-degree route must get right.

    Monic and non-monic g, g with a repeated factor (RAMIFIED everywhere),
    g(0) = 0 over Z, g(0) divisible by some of the primes only, and the
    prime 2, which keeps the general route.
    """
    small_primes = list(itertools.islice(primes(), 30))
    all_primes = small_primes + [17417, 65521]
    rng = random.Random(61)
    pairs = []
    for _ in range(60):
        g = _random_poly(rng, rng.randint(1, 8), monic=rng.random() < 0.5)
        pairs.append((g, rng.sample(all_primes, 8) + [2, 3]))
    for _ in range(10):
        a, b = _random_poly(rng, rng.randint(1, 3)), _random_poly(rng, rng.randint(1, 4))
        pairs.append((a * a * b, rng.sample(all_primes, 6) + [2]))
    for _ in range(10):
        g = IntPoly.x() * _random_poly(rng, rng.randint(1, 5))
        pairs.append((g, rng.sample(all_primes, 6) + [2]))
    for _ in range(10):
        g = _random_poly(rng, rng.randint(1, 6))
        g = g + IntPoly((3 * 5 * 7 - g.coeff(0),))  # g(0) = 105: x^2 | f mod 3, 5, 7 only
        pairs.append((g, small_primes[:8]))
    for m in (3, 5, 7, 9, 29):
        pairs.append((trinomial(m, 1), small_primes))
    return [(compose_x2(g), [q for q in qs if g.lc % q]) for g, qs in pairs]


def test_even_factor_degrees_agree_with_sympy():
    seen = {"ramified": 0, "split": 0, "q = 2": 0, "x^2 | f": 0}
    for f, qs in _even_corpus():
        assert f.degree % 2 == 0 and not any(f.coeffs[1::2])
        for q in qs:
            ct = reduce_and_factor_degrees(f, q)
            expected = _sympy_factor_degrees(f, q)
            assert ct == expected if expected is not RAMIFIED else ct is RAMIFIED, (f, q, ct)
            seen["ramified"] += ct is RAMIFIED
            seen["split"] += ct is not RAMIFIED and len(ct) > 1
            seen["q = 2"] += q == 2
            seen["x^2 | f"] += f.coeff(0) % q == 0
    assert min(seen.values()) > 50, seen


def _taylor_shift(f):
    """f(x + 1): the same factor degrees mod every q, and not even."""
    out = IntPoly.zero()
    for c in reversed(f.coeffs):
        out = out * parse_poly("x + 1") + IntPoly((c,))
    return out


def test_even_factor_degrees_agree_with_general_route_on_shift():
    rng = random.Random(62)
    polys = [compose_x2(trinomial(m, c)) for m, c in ((3, 1), (5, 1), (7, 1), (7, 9), (11, 1))]
    polys += [compose_x2(_random_poly(rng, rng.randint(2, 9), monic=False)) for _ in range(15)]
    qs = list(itertools.islice(primes(), 60)) + [17417]
    unramified = 0
    for f in polys:
        shifted = _taylor_shift(f)
        assert shifted.lc == f.lc and any(shifted.coeffs[1::2])
        for q in qs:
            if f.lc % q:
                ct = reduce_and_factor_degrees(f, q)
                assert ct == reduce_and_factor_degrees(shifted, q), (f, q)
                unramified += ct is not RAMIFIED
    assert unramified > 1000


# ---------------------------------------------------------------------------
# the kernel's blocks of degrees and quadratic characters, on chosen factorizations
# ---------------------------------------------------------------------------


def _irreducible_count(q, d, nonzero_root=False):
    """The number of monic irreducibles of degree d mod q (Gauss), without x if asked."""
    def mobius(k):
        sign = 1
        for p in primes():
            if p > k:
                return sign
            if k % (p * p) == 0:
                return 0
            if k % p == 0:
                sign, k = -sign, k // p

    count = sum(mobius(k) * q ** (d // k) for k in range(1, d + 1) if d % k == 0) // d
    return count - (nonzero_root and d == 1)


def _feasible(degrees, q, nonzero_root=False):
    """degrees with any degree beyond the supply of irreducibles mod q dropped."""
    out = []
    for d in degrees:
        if out.count(d) < _irreducible_count(q, d, nonzero_root):
            out.append(d)
    return out


def _irreducibles_mod(rng, q, d, count, nonzero_root=False):
    """count distinct monic irreducibles of degree d mod q, constant term first."""
    gt = pytest.importorskip("sympy.polys.galoistools")
    ZZ = pytest.importorskip("sympy.polys.domains").ZZ
    found = []
    while len(found) < count:
        c = tuple(rng.randrange(q) for _ in range(d)) + (1,)
        if c not in found and (c[0] or not nonzero_root) and gt.gf_irreducible_p(c[::-1], q, ZZ):
            found.append(c)
    return found


def _product(factors):
    f = IntPoly.one()
    for c in factors:
        f = f * IntPoly(c)
    return f


def _block_length(n):
    """The degrees per block, as the kernel lays them out: the first block is 1..L."""
    return max(1, int((n // 2) ** 0.5))


def test_blocked_factor_degrees_agree_with_sympy():
    # products over Z of distinct irreducibles mod q, degree >= 30, so that
    # blocks hold several degrees; the factor degrees mod q are known by construction
    rng = random.Random(909)
    seen = {"d and 2d in the first block": 0, "two degrees in the first block": 0, "q = 2": 0, "q = 2^31 - 1": 0}
    for q in [2, 3, 5, 7, 13, 2**31 - 1] * 4:
        if q == 2:
            degrees = rng.choice([[1, 1, 2, 3, 4, 4, 5, 6, 7, 8], [1, 2, 4, 4, 5, 5, 9, 10], [3, 3, 4, 6, 7, 9]])
        else:
            degrees = [rng.randint(1, 12) for _ in range(rng.randint(4, 9))]
            degrees += [rng.randint(1, 4) for _ in range(3)]  # crowd the first block
            while sum(_feasible(degrees, q)) < 30:
                degrees.append(rng.randint(1, 12))
            degrees = _feasible(degrees, q)
        factors = []
        for d in sorted(set(degrees)):
            factors += _irreducibles_mod(rng, q, d, degrees.count(d))
        f = _product(factors)
        ct = reduce_and_factor_degrees(f, q)
        assert ct == CycleType(degrees), (q, degrees, ct)
        if q < 2**31 - 1:  # sympy's DDF of the whole product is slow at the largest q
            assert ct == _sympy_factor_degrees(f, q)
        first = {d for d in degrees if d <= _block_length(f.degree)}
        seen["d and 2d in the first block"] += any(2 * d in first for d in first)
        seen["two degrees in the first block"] += len(first) >= 2
        seen["q = 2"] += q == 2
        seen["q = 2^31 - 1"] += q == 2**31 - 1
    assert min(seen.values()) >= 4, seen


def _square_type(factor, q):
    """Whether factor(x^2) splits into two factors mod q (sympy, not a Legendre symbol)."""
    (d,) = set(_sympy_factor_degrees(compose_x2(IntPoly(factor)), q))
    return d == len(factor) - 1


def test_even_factor_degrees_by_square_type_agree_with_sympy():
    # g(x^2) for g a product of irreducibles mod odd q: each factor of degree e
    # gives [e, e] when its roots are squares and [2e] otherwise; sympy types
    # each factor, so the expected degrees owe nothing to the kernel's characters
    rng = random.Random(910)
    seen = {"mixed types at one degree": 0, "largest square": 0, "largest not square": 0, "deg g >= 30": 0, "q = 2^31 - 1": 0}
    for q in [3, 5, 7, 11, 13, 2**31 - 1] * 5:
        degrees = [rng.randint(1, 4) for _ in range(rng.randint(2, 5))]
        degrees += [rng.randint(3, 8) for _ in range(rng.randint(0, 5))]
        degrees = _feasible(degrees, q, nonzero_root=True)
        degrees.append(max(degrees) + rng.randint(1, 6))  # a largest factor, alone at its degree
        factors = []
        for d in sorted(set(degrees)):
            factors += _irreducibles_mod(rng, q, d, degrees.count(d), nonzero_root=True)
        f = compose_x2(_product(factors))
        types = [(len(c) - 1, _square_type(c, q)) for c in factors]
        expected = CycleType([e for e, sq in types for e in ([e, e] if sq else [2 * e])])
        ct = reduce_and_factor_degrees(f, q)
        assert ct == expected, (q, types, ct)
        if q < 2**31 - 1:  # sympy's DDF of the whole product is slow at the largest q
            assert ct == _sympy_factor_degrees(f, q)
        seen["mixed types at one degree"] += any(
            {sq for e, sq in types if e == d} == {True, False} for d in set(degrees)
        )
        seen["largest square" if types[-1][1] else "largest not square"] += 1
        seen["deg g >= 30"] += sum(degrees) >= 30
        seen["q = 2^31 - 1"] += q == 2**31 - 1
    assert min(seen.values()) >= 4, seen


def test_factor_degrees_of_degree_one_and_two():
    qs = list(itertools.islice(primes(), 25)) + [17417, 2**31 - 1]
    rng = random.Random(911)
    polys = [parse_poly(t) for t in ("x", "x + 1", "2x - 1", "x^2", "x^2 + 1", "x^2 - 2", "x^2 + x + 1")]
    polys += [_random_poly(rng, rng.randint(1, 2), monic=rng.random() < 0.5) for _ in range(20)]
    polys += [compose_x2(g) for g in polys if g.degree == 1]  # even, degree 2: g of degree 1
    seen = {"n = 1": 0, "n = 2": 0, "q = 2": 0, "q = 2^31 - 1": 0, "split": 0, "irreducible": 0}
    for f in polys:
        for q in qs:
            if f.lc % q == 0:
                continue
            ct = reduce_and_factor_degrees(f, q)
            expected = _sympy_factor_degrees(f, q)
            assert ct == expected if expected is not RAMIFIED else ct is RAMIFIED, (f, q, ct)
            if ct is not RAMIFIED:
                seen[f"n = {f.degree}"] += 1
                seen["q = 2"] += q == 2
                seen["q = 2^31 - 1"] += q == 2**31 - 1
                seen["split" if len(ct) > 1 else "irreducible"] += f.degree == 2
    assert min(seen.values()) >= 5, seen


# ---------------------------------------------------------------------------
# the batched prime walk
# ---------------------------------------------------------------------------


def _log_batches(monkeypatch):
    """The prime lists the walk builds a shared Frobenius map for, in order."""
    from prymcert import intpoly

    original = intpoly._Frobenius
    batches = []

    def logged(f, batch, s):
        batches.append(list(batch))
        return original(f, batch, s)

    monkeypatch.setattr(intpoly, "_Frobenius", logged)
    return batches


def _check_walk(f, budget=None, count=None, batches=()):
    """The walk against a batch of one at every prime it yields.

    Returns the walk's (q, factor degrees) pairs and the batches it built.
    """
    disc = discriminant(f)
    walk = list(itertools.islice(unramified_factor_degrees(f, disc, budget), count))
    built = list(batches)
    stream = itertools.takewhile(lambda q: budget is None or q <= budget, primes())
    unramified = (q for q in stream if f.lc % q and disc % q)
    assert [q for q, _ in walk] == list(itertools.islice(unramified, count))
    for q, ct in walk:
        assert ct == reduce_and_factor_degrees(f, q), (format_poly(f), q)
    return walk, built


def test_batched_walk_matches_batch_of_one_on_the_sampling_runs(monkeypatch):
    # h = u(x^2) for m = 5 and 7, over the 2000 primes that the sampling runs
    # factor; disc(h) = 4^m disc(u)^2 puts ramified primes (19 and 151 for
    # m = 5) inside batches
    batches = _log_batches(monkeypatch)
    for m in (5, 7):
        batches.clear()
        walk, built = _check_walk(compose_x2(trinomial(m, 1)), count=2000, batches=batches)
        qs = [q for q, _ in walk]
        assert len(qs) == 2000 and qs == [q for batch in built for q in batch][:2000]
        assert [len(batch) for batch in built[:6]] == [1, 2, 4, 8, 16, 16]
        assert m == 7 or not {19, 151} & set(qs)


def test_s2_kernel_steps_half_only_to_half_the_degree(monkeypatch):
    # a part that is one factor of g is typed by the Legendre symbol of its
    # root's norm, so B_d = y^((q^d-1)/2) is asked only for d <= deg g // 2
    from prymcert import intpoly

    asked = []
    half = intpoly._Frobenius.half

    def logged(self, d):
        asked.append((d, self.n))
        return half(self, d)

    monkeypatch.setattr(intpoly._Frobenius, "half", logged)
    f = parse_poly("x^122 - x^2 - 1")
    for q in (3, 5, 7, 11, 13, 17, 19, 23):
        reduce_and_factor_degrees(f, q)
    for m in (5, 7):  # the sampling walks of galois --m 5 and 7
        h = compose_x2(trinomial(m, 1))
        list(itertools.islice(unramified_factor_degrees(h, discriminant(h)), 2000))
    assert {n for _, n in asked} == {61, 5, 7}
    assert all(d <= n // 2 for d, n in asked), max(asked)


def test_batched_walk_cut_by_the_budget_mid_batch(monkeypatch):
    # budgets at the 4th to 6th unramified prime: inside the batch of four
    batches = _log_batches(monkeypatch)
    for m in range(9, 62, 2):
        u = trinomial(m, 1)
        disc = discriminant(u)
        budget = list(itertools.islice((q for q in primes() if disc % q), 7))[3 + m // 2 % 3]
        batches.clear()
        walk, built = _check_walk(u, budget, batches=batches)
        assert walk[-1][0] == budget and len(walk) < 7
        assert [len(batch) for batch in built] == [1, 2, len(walk) - 3]


def test_batched_walk_on_non_monic_and_ramified_primes():
    for text, count in (
        ("2x^6 - x^2 - 1", 300),  # even, non-monic: 2 divides lc, 5 | disc
        ("3x^4 + x^2 + 1", 300),  # even, non-monic: 3 divides lc, 11 | disc
        ("5x^9 - 6x^4 + 7", 60),  # odd, non-monic: 5 divides lc, 3 and 7 | disc
        ("x^7 - 7x + 3", 60),  # 3 and 7 ramified, between batch members
        ("x^2 - 15015", 60),  # 2, 3, 5, 7, 11 and 13 ramified: the walk starts at 17
        ("x^5 - x - 1", 60),  # odd f: q = 2 takes the route s = 1, in a batch of its own
    ):
        walk, _ = _check_walk(parse_poly(text), count=count)
        assert len(walk) == count
    # an even f is a square mod 2 (g(x^2) = g(x)^2 over F_2), so q = 2 never
    # reaches its walk: route s = 1 at q = 2 arises for odd f only
    for text in ("x^10 - x^2 - 1", "3x^4 + x^2 + 1", "x^6 + x^4 - 2x^2 + 5"):
        assert reduce_and_factor_degrees(parse_poly(text), 2) is RAMIFIED


def test_batched_walk_prefix_agrees_with_sympy():
    pytest.importorskip("sympy")
    for text in ("x^10 - x^2 - 1", "x^14 - x^2 - 1", "2x^6 - x^2 - 1", "5x^9 - 6x^4 + 7"):
        f = parse_poly(text)
        for q, ct in itertools.islice(unramified_factor_degrees(f, discriminant(f)), 12):
            assert ct == _sympy_factor_degrees(f, q), (text, q)


# ---------------------------------------------------------------------------
# the trace route: cycle types from traces of the batch's Frobenius map
# ---------------------------------------------------------------------------


def _random_walk_poly(rng, n, s, lc):
    """A squarefree f = g(x^s), deg g = n, lc(f) = lc, with a ramified prime in (2n, 500)."""
    while True:
        g = [rng.randint(-4, 4) for _ in range(n)] + [lc]
        coeffs = [0] * (s * n + 1)
        coeffs[::s] = g
        f = IntPoly(coeffs)
        if g[0] and (s == 2 or any(coeffs[1::2])) and (disc := discriminant(f)):
            if any(disc % q == 0 for q in itertools.takewhile(lambda q: q < 500, primes(2 * n + 1))):
                return f


def test_trace_route_matches_the_ddf_kernel_on_random_polynomials():
    # deg g = 1..12 (the bound), odd and even f, lc 1, 2, 3 and -5 on each side,
    # and a ramified prime past 2n, which the walk skips inside a batch
    from prymcert import intpoly

    rng = random.Random(20261019)
    for n in range(1, intpoly._TRACE_MAX_N + 1):
        s = 2 if n % 2 else 1
        f = _random_walk_poly(rng, n, s, (1, 2, 3, -5)[n // 2 % 4])
        walk, _ = _check_walk(f, count=150)
        assert len(walk) == 150 and walk[-1][0] > 2 * n


def _signed_cycle_types(n, signs):
    """Every multiset of (degree, sign) with degrees summing to n, each once."""
    for partition in _partitions(n, n):
        per_degree = [
            [[(d, e) for e in chosen] for chosen in itertools.combinations_with_replacement(signs, c)]
            for d, c in collections.Counter(partition).items()
        ]
        for pick in itertools.product(*per_degree):
            yield tuple(itertools.chain(*pick))


def _partitions(n, largest):
    if n == 0:
        yield ()
    for d in range(min(n, largest), 0, -1):
        for rest in _partitions(n - d, d):
            yield (d, *rest)


def test_trace_table_keys_are_distinct_and_decode_every_signed_type():
    # the key of a signed cycle type is its root counts N_k = sum_(d | k) d c_d,
    # for s = 2 its twisted traces T_k = sum_(d | k) d e^(k/d), then the product
    # of the signs; a factor of degree d and sign e of g gives [d] of g (s = 1),
    # [d, d] of h (e = 1) or [2d] of h (e = -1)
    from prymcert import intpoly

    for n in range(1, intpoly._TRACE_MAX_N + 1):
        for s in (1, 2):
            expected = {}
            types = list(_signed_cycle_types(n, (1, -1)[:s]))
            for t in types:
                ks = range(1, n // 2 + 1)
                key = [sum(d for d, _ in t if k % d == 0) for k in ks]
                if s == 2:
                    key += [sum(d * e ** (k // d) for d, e in t if k % d == 0) for k in ks]
                key.append(math.prod(e for _, e in t))
                expected[tuple(key)] = CycleType(
                    c for d, e in t for c in ([d] if s == 1 else [d, d] if e == 1 else [2 * d])
                )
            assert len(expected) == len(types), (n, s)  # no two types share a key
            assert intpoly._trace_table(n, s) == expected, (n, s)


def test_trace_route_raises_on_an_unknown_key(monkeypatch):
    # a trace vector outside the table is an error, never a guess: the walk of
    # x^10 - x^2 - 1 (n = 5) yields q = 3, 5, 7 by the DDF kernel, then stops at 11
    from prymcert import intpoly

    f = parse_poly("x^10 - x^2 - 1")
    monkeypatch.setattr(intpoly, "_trace_table", lambda n, s: {})
    walk = unramified_factor_degrees(f, discriminant(f))
    assert [q for q, _ in itertools.islice(walk, 3)] == [3, 5, 7]
    with pytest.raises(ArithmeticError, match="at q = 11 is no cycle type of degree 5"):
        next(walk)


def test_trace_route_agrees_with_sympy_past_2n():
    pytest.importorskip("sympy")
    for text in ("x^10 - x^2 - 1", "x^14 - x^2 - 1", "2x^6 - x^2 - 1"):
        f = parse_poly(text)
        n = f.degree // 2
        walk = list(itertools.islice(unramified_factor_degrees(f, discriminant(f)), 600))
        spots = [(q, ct) for q, ct in walk if q > 2 * n][::100]
        assert len(spots) == 6
        for q, ct in spots:
            assert ct == _sympy_factor_degrees(f, q), (text, q)


def test_odd_trinomial_has_no_rational_root():
    # a^m - a is even for every integer a, so x^m - x - c with c odd has no
    # integer root: with no prime to walk, the verdict is never Reducible
    for m in range(3, 32, 2):
        for c in range(-49, 50, 2):
            verdict = irreducible_over_Q(trinomial(m, c), prime_budget=1)
            assert isinstance(verdict, Inconclusive), (m, c, verdict)


def test_intpoly_rejects_non_int_coefficients_and_assignment():
    with pytest.raises(TypeError, match="integer coefficients required, got 1.5"):
        IntPoly([1, 1.5])
    f = IntPoly([1, 2])
    with pytest.raises(AttributeError, match="IntPoly is immutable"):
        f.coeffs = (3,)
    assert f.coeffs == (1, 2)


def test_arithmetic_refusals_and_small_cases():
    from prymcert.intpoly import _prem

    x, one = IntPoly.x(), IntPoly.one()
    with pytest.raises(ValueError, match="coefficient 3 not divisible by 2"):
        IntPoly([2, 3]).exact_div(2)
    with pytest.raises(ValueError, match="degree must be >= 2, got 1"):
        trinomial(1, 1)
    with pytest.raises(ValueError, match="pseudo-division requires deg a >= deg b"):
        _prem(x + one, x * x + one)
    with pytest.raises(ValueError, match="negative exponent"):
        x ** -1
    assert x - one == IntPoly([-1, 1]) and format_poly(IntPoly.zero()) == "0"


def test_resultant_with_a_constant_and_gcd_with_zero():
    x, one = IntPoly.x(), IntPoly.one()
    assert resultant(IntPoly([3]), IntPoly([5])) == 1
    assert resultant(IntPoly([3]), x * x + one) == resultant(x * x + one, IntPoly([3])) == 9
    assert resultant(IntPoly([-2]), x**3 + one) == -8
    assert poly_gcd(IntPoly.zero(), IntPoly.zero()) == IntPoly.zero()
    assert poly_gcd(IntPoly.zero(), IntPoly([-4, -2])) == poly_gcd(IntPoly([6, 3]), IntPoly.zero())
    assert poly_gcd(IntPoly.zero(), IntPoly([-4, -2])) == x + 2 * one
    assert poly_gcd(x + one, x * x - one) == x + one  # deg a < deg b


def test_composite_rule_refuses_a_wrong_x_coefficient():
    verdict = irreducible_composite_rule(parse_poly("x^5 - 2x - 1"))
    assert verdict == NotApplicable("coefficient of x must be -1, got -2")


def test_rational_root_factor_and_the_ramified_sentinel():
    from prymcert.reference import _rational_root_factor

    assert _rational_root_factor(parse_poly("x^3 + x")) == IntPoly.x()
    assert _rational_root_factor(parse_poly("2x^2 + 3x + 2")) is None  # skips p/s = 2/2
    assert repr(RAMIFIED) == "Ramified"


def test_is_prime_below_two():
    from prymcert._primes import is_prime

    assert not any(map(is_prime, (-7, -2, 0, 1))) and is_prime(2)


def test_adding_an_int_to_a_polynomial_is_a_type_error():
    x = IntPoly.x()
    for expression in (lambda: x + 1, lambda: x - 1, lambda: 1 + x, lambda: x + "1"):
        with pytest.raises(TypeError):
            expression()
    assert x * 3 == 3 * x == IntPoly((0, 3)) and x + x - x == x


def test_composite_rule_refuses_a_u_not_certified_irreducible():
    # the right shape, but x^3 - x - 6 = (x - 2)(x^2 + 2x + 3), and x^5 - x - 1
    # has no irreducibility witness among the primes <= 2
    refused = NotApplicable("u was not certified irreducible over Q")
    assert irreducible_composite_rule(parse_poly("x^3 - x - 6")) == refused
    assert irreducible_composite_rule(parse_poly("x^5 - x - 1"), prime_budget=2) == refused


def test_multiplying_by_a_non_integer_scalar_is_a_type_error():
    x = IntPoly.x()
    for expression in (lambda: x * 1.5, lambda: 1.5 * x, lambda: x * None, lambda: None * x):
        with pytest.raises(TypeError):
            expression()
    assert x * 3 == 3 * x == IntPoly((0, 3)) and x * x == parse_poly("x^2")
