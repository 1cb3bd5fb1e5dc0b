"""Exact polynomial arithmetic: oracles first, closed forms second."""

import itertools
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
