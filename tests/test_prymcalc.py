"""Closed-form curve/Prym invariants against their enumerative definitions."""

import pytest

from prymcert.prymcalc import (
    BasisForm,
    FamilyParams,
    anti_invariant_partition,
    dim_prym,
    genus_curve,
    multiplicities_coprime,
    multiplicities_distinct,
    multiplicity_table,
    non_jacobian_inequality,
    omega_basis,
)

GRID = [(p, r) for p in (3, 5, 7, 11, 13) for r in range(2, 7)]


def test_genus():
    assert genus_curve(5, 3) == 4
    assert genus_curve(11, 3) == 10
    with pytest.raises(ValueError):
        genus_curve(9, 3)
    with pytest.raises(ValueError):
        genus_curve(3, 3)


def test_dim_prym():
    assert dim_prym(3, 5) == 5
    assert dim_prym(3, 11) == 11
    assert dim_prym(7, 13) == 39


def test_family_params():
    fp = FamilyParams(3, 2)
    assert fp.m == 5 and fp.n == 11 and fp.c == 1
    assert fp.to_json() == {"p": 3, "r": 2, "m": 5, "n": 11, "c": 1}
    for p, r in GRID:
        params = FamilyParams(p, r)
        assert (params.m % 2 == 1) == (r % 2 == 0)
        assert params.n == 2 * p * r - 1
    for bad in [(2, 2, 1), (4, 2, 1), (3, 1, 1), (3, 2, 0), (3, 2, 2)]:
        with pytest.raises(ValueError):
            FamilyParams(*bad)


def test_omega_basis_counts():
    forms = omega_basis(5, 3)
    assert len(forms) == 4 == genus_curve(5, 3)
    assert [f.j for f in forms].count(1) == 1 and [f.j for f in forms].count(2) == 3
    assert len(omega_basis(11, 3)) == 10 == genus_curve(11, 3)
    for p, r in GRID:
        n = 2 * p * r - 1
        assert len(omega_basis(n, p)) == genus_curve(n, p)


def test_basis_form_eigendata():
    f = BasisForm(1, 1)
    assert f.delta_p_exponent == -1 and f.delta_2_sign == -1
    assert BasisForm(0, 1).delta_2_sign == 1
    assert BasisForm(0, 2).delta_2_sign == -1


def test_anti_invariant_partition_small():
    assert anti_invariant_partition(3, 2) == {1: (1,), 2: (0, 2, 4, 6)}
    part = anti_invariant_partition(5, 2)
    sizes = tuple(len(part[j]) for j in sorted(part))
    assert sizes == (1, 4, 5, 8)
    assert sum(sizes) == 18 == dim_prym(5, 9)


def test_partition_shape_and_parity():
    for p, r in GRID:
        part = anti_invariant_partition(p, r)
        for j, exps in part.items():
            assert len(exps) >= 1  # r >= 2 keeps every part nonempty
            assert all(i % 2 == j % 2 for i in exps)  # same parity as j
            if j % 2 == 0:
                assert exps == tuple(range(0, 2 * r * j - 1, 2))
            else:
                assert exps == tuple(range(1, 2 * r * j - 2, 2))


def test_multiplicity_table_values():
    assert multiplicity_table(3, 2).mult == {1: 1, 2: 4}
    assert multiplicity_table(3, 3).mult == {1: 2, 2: 6}
    assert multiplicity_table(5, 4).mult == {1: 3, 2: 8, 3: 11, 4: 16}
    assert multiplicity_table(3, 2).to_json() == {"1": 1, "2": 4}


def test_table_matches_partition_and_sums_to_dim():
    for p, r in GRID:
        table = multiplicity_table(p, r)
        part = anti_invariant_partition(p, r)
        assert table.mult == {j: len(part[j]) for j in part}
        assert table.total() == dim_prym(p, p * r - 1)


def test_coprime_iff_r_even():
    assert multiplicities_coprime(3, 2)
    assert not multiplicities_coprime(3, 3)
    assert multiplicities_coprime(7, 4)
    for p, r in GRID:
        assert multiplicities_coprime(p, r) == (r % 2 == 0)


def test_distinct():
    assert multiplicities_distinct(3, 2)
    assert multiplicities_distinct(5, 2)
    for p, r in GRID:
        assert multiplicities_distinct(p, r)
    with pytest.raises(ValueError):
        multiplicities_distinct(3, 1)


def test_floor_identity_on_grid():
    # [nj/p] - 1 = 2rj - 2 for n = 2pr - 1 and 1 <= j <= p-1
    for p, r in GRID:
        n = 2 * p * r - 1
        for j in range(1, p):
            assert n * j // p - 1 == 2 * r * j - 2


def test_anti_invariant_count_is_dim_prym():
    for p, r in GRID:
        n = 2 * p * r - 1
        anti = [f for f in omega_basis(n, p) if f.delta_2_sign == -1]
        assert len(anti) == dim_prym(p, p * r - 1)


def test_non_jacobian_inequality():
    assert non_jacobian_inequality(3, 2)
    assert non_jacobian_inequality(3, 4)
    assert non_jacobian_inequality(13, 2)
    for p, r in GRID:
        assert non_jacobian_inequality(p, r)


def test_non_jacobian_inequality_matches_rational_oracle():
    from fractions import Fraction

    # p = 2 is outside the family but is where the inequality fails, so both
    # outcomes are compared
    for p in (2, 3, 5, 7, 11, 13, 31):
        for r in range(2, 41):
            d = dim_prym(p, p * r - 1)
            rhs = Fraction(2 * d, p * (p - 1)) - Fraction(p - 2, p)
            assert non_jacobian_inequality(p, r) == (Fraction(r - 1) < rhs), (p, r)
    assert not non_jacobian_inequality(2, 5)


def test_strong_pseudoprimes_to_the_bases_up_to_37_are_composite():
    # the first is a strong pseudoprime to every base <= 37, the second to every
    # base <= 41: Miller-Rabin over the primes <= 41 is exact below the second
    from prymcert._primes import _MR_BASES, is_prime

    psi_12, psi_13 = 318665857834031151167461, 3317044064679887385961981
    assert psi_12 == 399165290221 * 798330580441
    assert not is_prime(psi_12)
    with pytest.raises(ValueError, match="p must be an odd prime"):
        FamilyParams(psi_12, 2)

    def strong_probable_prime(n, a):
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        x = pow(a, d, n)
        return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))

    assert _MR_BASES == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    assert all(strong_probable_prime(psi_12, a) for a in _MR_BASES[:-1])
    assert not strong_probable_prime(psi_12, 41)
    assert all(strong_probable_prime(psi_13, a) for a in _MR_BASES)
