"""Signed permutations: group laws, censuses, orbits, S_m certification."""

import math
import random
import sys

import pytest

from prymcert.intpoly import CycleType
from prymcert.signedperm import (
    EnumerationBudgetError,
    GroupDescriptor,
    IsSm,
    SignedPerm,
    SmInconclusive,
    census,
    compose,
    cycle_type_from_label_action,
    elements,
    in_wdm,
    induced_cycle_type,
    kappa_u,
    orbits,
    roots_f,
    roots_h,
    roots_u,
    sm_certificate,
    sm_normal_index_condition,
    stabilizer_generators,
    stabilizer_orbit_count,
    transitivity_degree,
)


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------


def test_identity_and_inverse():
    rng = random.Random(1)
    e = SignedPerm.identity(7)
    for _ in range(100):
        g = SignedPerm.random(7, rng)
        assert compose(e, g) == g and compose(g, e) == g
        assert (g * g.inverse()).is_identity and (g.inverse() * g).is_identity


def test_composition_matches_label_maps():
    rng = random.Random(2)
    for _ in range(60):
        g, h = SignedPerm.random(5, rng), SignedPerm.random(5, rng)
        gh = g * h
        for lbl in range(-5, 6):
            assert gh.act_label(lbl) == g.act_label(h.act_label(lbl))


def test_mismatched_sizes_rejected():
    with pytest.raises(ValueError):
        compose(SignedPerm.identity(3), SignedPerm.identity(4))


def test_conjugation_moves_signs_along_the_permutation():
    # (1, s) (eps, id) (1, s)^(-1) = (eps o s^(-1), id)
    rng = random.Random(3)
    m = 5
    for _ in range(60):
        s = list(range(m))
        rng.shuffle(s)
        ts = SignedPerm(s, (1,) * m)
        eps = tuple(rng.choice((1, -1)) for _ in range(m))
        conj = ts * SignedPerm(range(m), eps) * ts.inverse()
        sinv = ts.inverse().s
        assert conj == SignedPerm(range(m), tuple(eps[sinv[i]] for i in range(m)))


def test_in_wdm():
    assert in_wdm(SignedPerm.identity(4))
    assert not in_wdm(SignedPerm.sign_flip(4, 1))
    assert in_wdm(SignedPerm.sign_flip(4, 1) * SignedPerm.sign_flip(4, 2))


def test_sign_product_is_a_homomorphism():
    rng = random.Random(4)
    for _ in range(100):
        g, h = SignedPerm.random(6, rng), SignedPerm.random(6, rng)
        assert in_wdm(g * h) == (in_wdm(g) == in_wdm(h))


# ---------------------------------------------------------------------------
# the sign-forgetting projection
# ---------------------------------------------------------------------------


def test_kappa_basics():
    rng = random.Random(5)
    g = SignedPerm((1, 0, 2), (-1, 1, -1))
    assert kappa_u(g) == (2, 1, 3)
    assert kappa_u(SignedPerm(range(6), [-1] * 6)) == (1, 2, 3, 4, 5, 6)
    for _ in range(100):
        a, b = SignedPerm.random(6, rng), SignedPerm.random(6, rng)
        ka, kb, kab = kappa_u(a), kappa_u(b), kappa_u(a * b)
        assert kab == tuple(ka[kb[i] - 1] for i in range(6))


def test_kappa_kernel_on_wdm_is_even_sign_group():
    for m in (3, 4, 5):
        els = elements(GroupDescriptor.wdm(m))
        ident = tuple(range(1, m + 1))
        kernel = [g for g in els if kappa_u(g) == ident]
        assert len(kernel) == 2 ** (m - 1)
        assert all(g.sign_product() == 1 for g in kernel)
        assert len({kappa_u(g) for g in els}) == math.factorial(m)  # surjective


# ---------------------------------------------------------------------------
# induced cycle types
# ---------------------------------------------------------------------------


def test_induced_cycle_type_examples():
    assert induced_cycle_type(SignedPerm.identity(3)) == CycleType([1] * 6)
    assert induced_cycle_type(SignedPerm((1, 2, 0), (1, 1, 1))) == CycleType([3, 3])
    g = SignedPerm((1, 0, 2), (-1, 1, -1))  # swap 1,2 with eps = (-1, +1, -1)
    assert in_wdm(g)
    assert induced_cycle_type(g) == CycleType([4, 2])


def test_induced_cycle_type_against_label_walk():
    rng = random.Random(6)
    for _ in range(10**4):
        g = SignedPerm.random(rng.randint(1, 8), rng)
        assert induced_cycle_type(g) == cycle_type_from_label_action(g)


def test_label_permutation_parity_iff_sign_product():
    # the induced permutation on 2m labels is even iff the sign product is +1
    for m in range(1, 6):
        for g in elements(GroupDescriptor.perm0(m)):
            ct = induced_cycle_type(g)
            is_even = (2 * m - len(ct)) % 2 == 0
            assert is_even == in_wdm(g)


# ---------------------------------------------------------------------------
# censuses
# ---------------------------------------------------------------------------


def test_census_wd3_exact_counts():
    # by hand: identity 1; two flips or a signed transposition with product +1
    # give 2+2+1+1 (3 + 6 of them); odd transposition lifts give 4+2 (6);
    # 3-cycles with positive product give 3+3 (2 * 4 = 8)
    c = census(GroupDescriptor.wdm(3))
    assert c == {
        CycleType([1, 1, 1, 1, 1, 1]): 1,
        CycleType([1, 1, 2, 2]): 9,
        CycleType([2, 4]): 6,
        CycleType([3, 3]): 8,
    }
    assert sum(c.values()) == 24
    assert CycleType([6]) not in c


def test_census_totals_match_order_formulas():
    for m in range(2, 7):
        assert sum(census(GroupDescriptor.wdm(m)).values()) == 2 ** (m - 1) * math.factorial(m)
    assert sum(census(GroupDescriptor.perm0(4)).values()) == 2**4 * 24
    assert sum(census(GroupDescriptor.sign_group(5)).values()) == 32
    assert sum(census(GroupDescriptor.even_sign_group(3)).values()) == 4
    assert sum(census(GroupDescriptor.symmetric(5)).values()) == 120
    assert sum(census(GroupDescriptor.alternating(5)).values()) == 60


def test_census_agrees_with_raw_enumeration():
    for desc in (
        GroupDescriptor.wdm(4),
        GroupDescriptor.perm0(3),
        GroupDescriptor.even_sign_group(4),
        GroupDescriptor.alternating(4),
    ):
        raw: dict[CycleType, int] = {}
        for g in elements(desc):
            ct = induced_cycle_type(g)
            raw[ct] = raw.get(ct, 0) + 1
        assert raw == census(desc)


def test_census_budget_refusal():
    with pytest.raises(EnumerationBudgetError):
        census(GroupDescriptor.wdm(9))
    with pytest.raises(EnumerationBudgetError):
        census(GroupDescriptor.wdm(5), budget=100)


def test_generated_census():
    gens = [SignedPerm((1, 2, 0), (1, 1, 1))]
    c = census(GroupDescriptor.generated(gens))
    assert c == {CycleType([1] * 6): 1, CycleType([3, 3]): 2}


def test_two_m_descriptor_matches_full_signed_group():
    base = [SignedPerm.transposition(3, 1, 2), SignedPerm.full_cycle(3)]
    desc = GroupDescriptor.two_m(base)
    c = census(desc)
    assert sum(c.values()) == 2**3 * 6
    assert c == census(GroupDescriptor.perm0(3))
    assert stabilizer_orbit_count(desc, roots_h(3), 1) == 3


# ---------------------------------------------------------------------------
# orbits, stabilizers, transitivity
# ---------------------------------------------------------------------------


def test_wdm_transitive_on_nonzero_labels():
    assert len(orbits(GroupDescriptor.wdm(5), roots_h(5))) == 1


def test_trivial_group_has_singleton_orbits():
    assert len(orbits([], roots_h(5))) == 10
    assert len(orbits(GroupDescriptor.generated([], m=4), roots_h(4))) == 8


def test_stabilizer_of_a_root_has_three_orbits():
    w5 = GroupDescriptor.wdm(5)
    stab = stabilizer_generators(w5, 1, roots_h(5))
    orbs = orbits(stab, roots_h(5))
    assert len(orbs) == 3
    assert (1,) in orbs and (-1,) in orbs
    assert stabilizer_orbit_count(w5, roots_h(5), 1) == 3
    # stabilizer elements actually fix the root
    assert all(g.act_label(1) == 1 for g in stab)


def test_orbits_on_full_root_set():
    orbs = orbits(GroupDescriptor.wdm(3), roots_f(3))
    assert (0,) in orbs and len(orbs) == 2


def test_transitivity_degrees():
    assert transitivity_degree(GroupDescriptor.symmetric(5), roots_u(5)) == 2
    assert transitivity_degree(GroupDescriptor.alternating(5), roots_u(5)) == 2
    assert transitivity_degree(GroupDescriptor.even_sign_group(3), roots_h(3)) == 0
    assert transitivity_degree(GroupDescriptor.wdm(3), roots_h(3)) == 1
    assert transitivity_degree(GroupDescriptor.sign_group(3), roots_u(3)) == 0


# ---------------------------------------------------------------------------
# S_m certification
# ---------------------------------------------------------------------------


def test_sm_normal_index_condition():
    assert sm_normal_index_condition(11) is True
    assert sm_normal_index_condition(10) is False
    with pytest.raises(ValueError):
        sm_normal_index_condition(4)


def test_sm_certificate():
    good = sm_certificate([CycleType([7, 3, 1])], False, True, 11)
    assert isinstance(good, IsSm) and good.cycle_length == 7
    assert isinstance(sm_certificate([CycleType([7, 3, 1])], True, True, 11), SmInconclusive)
    assert isinstance(sm_certificate([CycleType([7, 3, 1])], False, False, 11), SmInconclusive)
    # m = 5: the window m/2 < q < m-2 is empty, nothing qualifies
    assert isinstance(sm_certificate([CycleType([3, 1, 1])], False, True, 5), SmInconclusive)
    # q = m - 2 is excluded (strict), q = 9 not prime for m = 12
    assert isinstance(sm_certificate([CycleType([9, 2, 1])], False, True, 11), SmInconclusive)


def test_descriptor_serialization():
    assert GroupDescriptor.wdm(5).to_json() == {"kind": "WDm", "m": 5}
    doc = GroupDescriptor.generated([SignedPerm((1, 0), (1, -1))]).to_json()
    assert doc["kind"] == "Generated" and doc["gens"] == [{"s": [2, 1], "eps": [1, -1]}]


def test_census_from_cycle_types_agrees_with_raw_enumeration():
    # the census counts classes of permutations, never the elements
    for desc in (
        GroupDescriptor.wdm(5),
        GroupDescriptor.wdm(6),
        GroupDescriptor.perm0(4),
        GroupDescriptor.symmetric(6),
        GroupDescriptor.alternating(6),
    ):
        raw: dict[CycleType, int] = {}
        for g in elements(desc):
            ct = induced_cycle_type(g)
            raw[ct] = raw.get(ct, 0) + 1
        assert raw == census(desc), desc


def test_named_kinds_agree_with_generator_closure():
    # order() and census() read the kind table, elements() closes the
    # hand-written generators: both must describe the same group
    for kind in ("Sm", "Am", "Em", "Em0", "WDm", "TwoM_Sm"):
        for m in range(1, 7):
            desc = GroupDescriptor(kind, m)
            els = elements(desc)
            assert desc.order() == len(els) == len(set(els)), (kind, m)
            raw: dict[CycleType, int] = {}
            for g in els:
                ct = induced_cycle_type(g)
                raw[ct] = raw.get(ct, 0) + 1
            assert raw == census(desc), (kind, m)


def test_wd1_is_trivial():
    desc = GroupDescriptor.wdm(1)
    assert desc.generators() == (SignedPerm.identity(1),)
    assert elements(desc) == [SignedPerm.identity(1)]
    assert census(desc) == {CycleType([1, 1]): 1}


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_census_budget_message_ignores_the_int_to_str_limit():
    # the message depends on the order's digit count, never on the limit: up to
    # 4300 digits (the default limit) the order is printed whole
    def message(m):
        with pytest.raises(EnumerationBudgetError) as info:
            census(GroupDescriptor.wdm(m))
        return str(info.value)

    default = sys.get_int_max_str_digits()
    expected = {m: message(m) for m in (9, 301, 2001)}
    assert expected[301] == (
        f"group of order {GroupDescriptor.wdm(301).order()} exceeds enumeration budget 5160960"
    )
    assert expected[2001] == (
        "group of order with 6341 decimal digits exceeds enumeration budget 5160960"
    )
    try:
        for limit in (0, 640):
            sys.set_int_max_str_digits(limit)
            assert {m: message(m) for m in expected} == expected, limit
    finally:
        sys.set_int_max_str_digits(default)


def test_decimal_digit_count_at_powers_of_ten():
    # the budget message counts digits from the bit length, never by printing
    from prymcert.signedperm import _decimal_digits

    for k in (1, 2, 639, 640, 641, 4299, 4300, 4301, 100_000):
        assert _decimal_digits(10**k - 1) == k
        assert _decimal_digits(10**k) == _decimal_digits(10**k + 1) == k + 1
    assert [_decimal_digits(n) for n in (1, 9, 10, 5160960)] == [1, 1, 2, 7]


def test_census_budget_refusal_is_quick_for_an_order_far_past_the_limit():
    # |W(D_100001)| has 486682 digits; printing them took seconds
    import time

    start = time.process_time()
    with pytest.raises(EnumerationBudgetError, match="with 486682 decimal digits"):
        census(GroupDescriptor.wdm(100001))
    assert time.process_time() - start < 2


def test_census_budget_refusal_never_computes_a_huge_order():
    # |W(D_1000001)| = 2^1000000 1000001! has 5866745 digits: computing it
    # took about 15 s, but its logarithm alone shows it past the budget
    import time

    start = time.process_time()
    with pytest.raises(EnumerationBudgetError, match="with 5866745 decimal digits"):
        census(GroupDescriptor.wdm(1000001))
    assert time.process_time() - start < 2


def test_order_digit_estimate_matches_the_exact_order():
    # every m up to the first order past 4301 digits (the int-to-str limit is
    # 4300), then a spread of larger m, for every named kind
    from prymcert.signedperm import _KINDS, _decimal_digits, _order_digits

    for kind in _KINDS:
        m, exact = 0, 0
        while exact <= 4301:
            m += 1
            exact = _decimal_digits(GroupDescriptor(kind, m).order())
            assert _order_digits(GroupDescriptor(kind, m)) == exact, (kind, m)
        for m in (m + 1, 3 * m, 10007, 30011, 100003):
            desc = GroupDescriptor(kind, m)
            assert _order_digits(desc) == _decimal_digits(desc.order()), (kind, m)
    assert _order_digits(GroupDescriptor.generated([], 3)) is None


def test_sm_certificate_needs_a_cycle_longer_than_half():
    # S_5 wr S_2 is transitive and imprimitive on 10 points and holds an element
    # of type [5, 5]: a 5-cycle is no Jordan witness for m = 10 (5 is not > 10/2)
    assert isinstance(sm_certificate([CycleType([5, 5])], False, True, 10), SmInconclusive)
    assert isinstance(sm_certificate([CycleType([7, 3])], False, True, 10), IsSm)


def test_signed_perm_rejects_a_malformed_s_or_eps_and_assignment():
    with pytest.raises(ValueError, match=r"not a permutation of 0\.\.2: \(0, 0, 1\)"):
        SignedPerm((0, 0, 1), (1, 1, 1))
    for eps in ((1, 1), (1, 0, 1)):
        with pytest.raises(ValueError, match="eps must be a vector of"):
            SignedPerm((0, 1, 2), eps)
    g = SignedPerm.identity(3)
    with pytest.raises(AttributeError, match="SignedPerm is immutable"):
        g.s = (1, 0, 2)


def test_a_generated_group_past_its_budget_is_refused():
    gens = [SignedPerm.transposition(4, 1, 2), SignedPerm.full_cycle(4)]
    with pytest.raises(EnumerationBudgetError, match="generated group exceeds enumeration budget 5"):
        elements(GroupDescriptor.generated(gens), budget=5)
    assert len(elements(GroupDescriptor.generated(gens), budget=24)) == 24
    with pytest.raises(ValueError, match="m required for an empty generating set"):
        GroupDescriptor.generated([])
    with pytest.raises(ValueError, match="need at least one base generator"):
        GroupDescriptor.two_m([])


def test_small_orbit_cases():
    assert transitivity_degree(GroupDescriptor.symmetric(1), roots_u(1)) == 1
    w5 = GroupDescriptor.wdm(5)
    assert stabilizer_orbit_count(w5, roots_h(5)) == stabilizer_orbit_count(w5, roots_h(5), 1)


def test_base_points_take_the_label_action_up_to_sign():
    # R_u is acted on through kappa: a sign flip fixes every base point
    rng = random.Random(20261021)
    for m in range(3, 10):
        assert orbits(GroupDescriptor.wdm(m), roots_u(m)) == [tuple(range(1, m + 1))]
        assert orbits(GroupDescriptor.sign_group(m), roots_u(m)) == [
            (i,) for i in range(1, m + 1)
        ]
        for _ in range(20):
            g = SignedPerm.random(m, rng)
            assert all(roots_u(m).act(g, i) == g.s[i - 1] + 1 for i in range(1, m + 1))
