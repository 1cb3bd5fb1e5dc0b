"""Mod-p function spaces: actions, commutants, the F_2 heart, rank identity."""

import random

import numpy as np
import pytest

from prymcert.fpmodule import (
    FpMatrix,
    FpSpace,
    action_matrix,
    commutant_dim,
    constant_space,
    d2_matrix,
    even_space,
    even_zero_space,
    function_space_on_roots,
    heart_f2_irreducible,
    lambda_rank_check,
    odd_space,
    orbit_count_formula,
    vf_plus_space,
    vf_space,
)
from prymcert.fpmodule import _dense_commutant_dim, _monomial_form, _orbit_commutant_dim, _rank
from prymcert.fpmodule import _heart_is_irreducible, _spin_dimension_f2
from prymcert.fpmodule import _solve_in_span
from prymcert.signedperm import GroupDescriptor, SignedPerm, orbits, roots_h


def test_space_dimensions():
    assert function_space_on_roots(5, 3).dim == 10
    assert odd_space(5, 3).dim == 5
    assert even_space(5, 3).dim == 5
    assert even_zero_space(5, 3).dim == 4
    assert constant_space(5, 3).dim == 1
    assert vf_space(5, 3).dim == 10
    assert vf_plus_space(5, 3).dim == 5


def test_action_matrix_identity_and_multiplicativity():
    rng = random.Random(50)
    assert action_matrix(SignedPerm.identity(3), odd_space(3, 7)) == FpMatrix.identity(7, 3)
    for space in (
        function_space_on_roots(4, 5),
        odd_space(4, 5),
        even_zero_space(4, 5),
        vf_space(4, 5),
    ):
        for _ in range(40):
            g, h = SignedPerm.random(4, rng), SignedPerm.random(4, rng)
            assert action_matrix(g * h, space) == action_matrix(g, space) @ action_matrix(h, space)


def test_sign_flip_negates_odd_basis_vector():
    A = action_matrix(SignedPerm.sign_flip(3, 1), odd_space(3, 7))
    rows = A.to_lists()
    assert rows[0][0] == 6  # -1 mod 7
    assert rows[1][1] == rows[2][2] == 1


def test_action_matrix_dimension_mismatch():
    with pytest.raises(ValueError):
        action_matrix(SignedPerm.identity(4), odd_space(3, 5))


def test_moduli_that_would_wrap_int64_are_rejected():
    big = 4294967311  # prime, (p-1)^2 > 2^63
    top = 3037000507  # least prime with (p-1)^2 >= 2^63
    for p in (big, top):
        with pytest.raises(ValueError, match=r"\(p-1\)\^2 < 2\^63"):
            FpMatrix(p, [[p - 1]])
        with pytest.raises(ValueError, match=r"\(p-1\)\^2 < 2\^63"):
            FpSpace(p, roots_h(3), np.eye(6, dtype=np.int64), "F_p^R_h")
        with pytest.raises(ValueError, match=r"\(p-1\)\^2 < 2\^63"):
            odd_space(3, p)


def test_largest_int64_safe_modulus_is_exact():
    p = 3037000493  # greatest prime with (p-1)^2 < 2^63
    A = FpMatrix(p, [[p - 1]])
    assert (A @ A).to_lists() == [[1]]
    # two summed products exceed 2^63, so the product must not wrap
    B = FpMatrix(p, [[p - 1, p - 1], [p - 1, p - 1]])
    assert (B @ B).to_lists() == [[2, 2], [2, 2]]
    flip = action_matrix(SignedPerm.sign_flip(3, 1), odd_space(3, p))
    assert flip.to_lists() == [[p - 1, 0, 0], [0, 1, 0], [0, 0, 1]]


# ---------------------------------------------------------------------------
# commutants
# ---------------------------------------------------------------------------


def test_commutant_dims_for_wdm():
    w5 = GroupDescriptor.wdm(5).generators()
    assert commutant_dim(w5, function_space_on_roots(5, 3)) == 3
    assert commutant_dim(w5, odd_space(5, 3)) == 1
    small = [(m, p) for m in (3, 5) for p in (3, 5, 7)]
    for m, p in small + [(29, 3), (59, 3), (61, 31)]:
        gens = GroupDescriptor.wdm(m).generators()
        full = commutant_dim(gens, function_space_on_roots(m, p))
        assert full == orbit_count_formula(gens, m) == 3, (m, p)
        assert commutant_dim(gens, odd_space(m, p)) == 1, (m, p)
        if (m, p) in small and (2 * m) % p != 0:
            assert commutant_dim(gens, even_zero_space(m, p)) == 1, (m, p)


def test_commutant_empty_generators_is_full_matrix_algebra():
    assert commutant_dim([], odd_space(3, 5)) == 9
    assert commutant_dim([], function_space_on_roots(3, 3)) == 36


def test_commutant_invariant_under_conjugation():
    rng = random.Random(51)
    space = function_space_on_roots(4, 5)
    for _ in range(10):
        gens = [SignedPerm.random(4, rng) for _ in range(2)]
        t = SignedPerm.random(4, rng)
        conj = [t * g * t.inverse() for g in gens]
        assert commutant_dim(gens, space) == commutant_dim(conj, space)


def _dense_reference(gens, space):
    mats = [action_matrix(g, space).a for g in gens]
    return _dense_commutant_dim(mats, space.dim, space.p) if mats else space.dim**2


def test_signed_orbit_count_matches_dense_null_space():
    rng = random.Random(53)
    for _ in range(200):
        m = rng.randint(2, 7)
        p = rng.choice((2, 3, 5, 7))
        gens = [SignedPerm.random(m, rng) for _ in range(rng.randint(0, 3))]
        for space in (odd_space(m, p), function_space_on_roots(m, p)):
            assert commutant_dim(gens, space) == _dense_reference(gens, space), (m, p, gens)


def test_orbit_walk_matches_dense_null_space_for_any_scalars():
    # e_j -> a_j e_sigma(j) with any nonzero a_j mod p, not only +-1.  Two
    # cycles whose scalar products differ force the orbits of pairs between
    # them to zero: diag(1, 2) mod 5 commutes only with diagonal X
    diag = [[1, 0], [0, 2]]
    assert _orbit_commutant_dim([_monomial_form(diag)], 2, 5) == 2
    assert _dense_commutant_dim([diag], 2, 5) == 2
    rng = random.Random(71)
    forced = 0
    for _ in range(400):
        p = rng.choice((3, 5, 7, 11, 13))
        d = rng.randint(1, 6)
        mats = []
        for _ in range(rng.randint(1, 3)):
            sigma = rng.sample(range(d), d)
            A = [[0] * d for _ in range(d)]
            for j in range(d):
                A[sigma[j]][j] = rng.randint(1, p - 1)
            mats.append(A)
        forms = [_monomial_form(A) for A in mats]
        dim = _orbit_commutant_dim(forms, d, p)
        assert dim == _dense_commutant_dim(mats, d, p), (p, mats)
        # fewer than the orbits of index pairs: some orbit was forced to zero
        forced += dim < _orbit_commutant_dim([(sigma, [1] * d) for sigma, _ in forms], d, p)
    assert forced > 100


def test_sign_group_commutant_closed_form():
    # odd p: the sign flips force X diagonal; p = 2: they act trivially
    for m in range(2, 8):
        gens = GroupDescriptor.sign_group(m).generators()
        for p in (2, 3, 5, 7):
            expected = m * m if p == 2 else m
            assert commutant_dim(gens, odd_space(m, p)) == expected, (m, p)
            assert _dense_reference(gens, odd_space(m, p)) == expected, (m, p)


def test_monomial_form_reads_permutation_and_scalars():
    # A e_0 = e_1, A e_1 = 3 e_2, A e_2 = 2 e_0
    A = np.array([[0, 0, 2], [1, 0, 0], [0, 3, 0]], dtype=np.int64)
    assert _monomial_form(A) == ([1, 2, 0], [1, 3, 2])
    for B in ([[1, 1], [0, 0]], [[1, 0], [1, 0]], [[1, 1], [1, 0]]):
        assert _monomial_form(np.array(B, dtype=np.int64)) is None, B
    # the even sum-zero basis is the one that takes the dense route
    t = SignedPerm.transposition(4, 1, 2)
    assert _monomial_form(action_matrix(t, even_zero_space(4, 5)).a) is None
    assert _monomial_form(action_matrix(t, odd_space(4, 5)).a) is not None


def test_orbit_count_formula():
    assert orbit_count_formula(GroupDescriptor.wdm(5).generators(), 5) == 3
    assert orbit_count_formula(GroupDescriptor.perm0(3).generators(), 3) == 3
    assert orbit_count_formula([], 3) == 6


def test_commutant_equals_stabilizer_orbit_count_when_transitive():
    # both sides computed independently; checked for the named groups and for
    # random transitive generated groups
    rng = random.Random(52)
    found = 0
    while found < 20:
        m = rng.randint(3, 5)
        gens = [SignedPerm.random(m, rng) for _ in range(2)]
        if len(orbits(gens, roots_h(m))) != 1:
            continue
        oc = orbit_count_formula(gens, m)
        for p in (3, 5, 7):
            assert commutant_dim(gens, function_space_on_roots(m, p)) == oc, (m, p)
        found += 1
    for m in (3, 4, 5):
        for desc in (GroupDescriptor.wdm(m), GroupDescriptor.perm0(m)):
            oc = orbit_count_formula(desc.generators(), m)
            for p in (3, 5):
                assert commutant_dim(desc.generators(), function_space_on_roots(m, p)) == oc


# ---------------------------------------------------------------------------
# the involution operator
# ---------------------------------------------------------------------------


def test_d2_is_an_involution_with_balanced_eigenspaces():
    for m in range(2, 9):
        for p in (3, 5):
            V = vf_space(m, p)
            D = d2_matrix(V)
            assert D @ D == FpMatrix.identity(p, 2 * m)
            minus = (D.a - np.eye(2 * m, dtype=np.int64)) % p
            plus = (D.a + np.eye(2 * m, dtype=np.int64)) % p
            assert _rank(minus, p) == m  # +1 eigenspace has dim 2m - m = m
            assert _rank(plus, p) == m
    # the odd space is the -1 eigenspace: D acts there as -identity
    D = d2_matrix(odd_space(5, 7))
    assert D == FpMatrix(7, -np.eye(5, dtype=np.int64))
    D = d2_matrix(even_space(5, 7))
    assert D == FpMatrix.identity(7, 5)


# ---------------------------------------------------------------------------
# heart and rank identity
# ---------------------------------------------------------------------------


def test_heart_irreducible_small_odd_m():
    assert heart_f2_irreducible(5, "A_m") is True
    assert heart_f2_irreducible(7, "A_m") is True
    assert heart_f2_irreducible(7, "S_m") is True
    assert heart_f2_irreducible(3, "A_m") is True
    assert heart_f2_irreducible(13, "A_m") is True


def test_heart_guards():
    with pytest.raises(ValueError):
        heart_f2_irreducible(4)
    with pytest.raises(ValueError):
        heart_f2_irreducible(15)
    with pytest.raises(ValueError):
        heart_f2_irreducible(5, "D_m")


def _heart_generators(m):
    cycle = tuple((i + 1) % m for i in range(m))
    three = tuple([1, 2, 0] + list(range(3, m)))  # with the m-cycle: A_m (m odd)
    swap = tuple([1, 0] + list(range(2, m)))  # with the m-cycle: S_m
    return [three, cycle], [swap, cycle]


def test_heart_proof_matches_the_per_weight_spin():
    for m in range(3, 32, 2):
        am, _ = _heart_generators(m)
        spun = all(
            _spin_dimension_f2((1 << w) - 1, am) == m - 1 for w in range(2, m, 2)
        )
        assert _heart_is_irreducible(m) is spun is True, m


def test_heart_proof_matches_brute_force_for_small_m():
    # every nonzero sum-zero vector generates the whole (m - 1)-dimensional heart
    for m in (3, 5, 7):
        even = [v for v in range(1, 1 << m) if bin(v).count("1") % 2 == 0]
        for gens in _heart_generators(m):
            brute = all(_spin_dimension_f2(v, gens) == m - 1 for v in even)
            assert _heart_is_irreducible(m) is brute is True, m


def test_lambda_rank_identity():
    assert lambda_rank_check(3, 5)
    assert lambda_rank_check(7, 13)
    assert lambda_rank_check(3, 4)
    for p in (3, 5, 7, 11, 13):
        for r in range(2, 7):
            assert lambda_rank_check(p, p * r - 1)


# ---------------------------------------------------------------------------
# elimination against an independent oracle
# ---------------------------------------------------------------------------


def _mul(A, B, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*B)] for row in A]


def _random_matrix(rng, rows, cols, p, rank=None):
    """Random rows x cols matrix mod p; with `rank`, a product through that inner size."""
    if rank is None:
        return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    return _mul(_random_matrix(rng, rows, rank, p), _random_matrix(rng, rank, cols, p), p)


def test_elimination_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def oracle_rank(M, p):
        return DomainMatrix.from_list(M, sympy.GF(p)).rank() if M and M[0] else 0

    rng = random.Random(54)
    for p in (2, 3, 5, 7, 31, 3037000493):
        for _ in range(40):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            k = rng.choice((None, rng.randint(0, min(rows, cols))))
            M = _random_matrix(rng, rows, cols, p, k)
            assert _rank(M, p) == oracle_rank(M, p), (p, M)

            # B of full column rank d; V = B Y is solved back to Y exactly
            d = rng.randint(1, 6)
            B = _random_matrix(rng, d + rng.randint(0, 4), d, p)
            if oracle_rank(B, p) < d:
                continue
            Y = _random_matrix(rng, d, rng.randint(1, 4), p)
            V = _mul(B, Y, p)
            X = _solve_in_span(B, V, p)
            assert X == Y and _mul(B, X, p) == V, (p, B, V)

            # a column outside the span is rejected
            w = _random_matrix(rng, len(B), 1, p)
            if oracle_rank([b + x for b, x in zip(B, w)], p) > d:
                with pytest.raises(ValueError, match="not in the span"):
                    _solve_in_span(B, [v + x for v, x in zip(V, w)], p)

        # a basis without full column rank is rejected even for V in its span
        B = _random_matrix(rng, 6, 4, p, 2)
        with pytest.raises(ValueError, match="full column rank"):
            _solve_in_span(B, _mul(B, _random_matrix(rng, 4, 2, p), p), p)


def test_fpspace_rejects_a_composite_modulus_and_a_mismatched_basis():
    roots = roots_h(3)
    rows = len(roots.labels())
    with pytest.raises(ValueError, match="p must be prime, got 9"):
        FpSpace(9, roots, [[1]] * rows, "bad")
    with pytest.raises(ValueError, match="basis rows must match the ambient label count"):
        FpSpace(5, roots, [[1]] * (rows - 1), "bad")
    assert repr(FpSpace(5, roots, [[1]] * rows, "ones")) == "FpSpace(ones, p=5, dim=1)"


def test_fpmatrix_moduli_hash_and_repr():
    a = FpMatrix(5, [[1, 7], [0, 1]])
    with pytest.raises(ValueError, match="mismatched moduli"):
        a @ FpMatrix(7, [[1, 0], [0, 1]])
    assert hash(a) == hash(FpMatrix(5, [[1, 2], [0, 1]]))
    assert repr(a) == "FpMatrix(p=5, [[1, 2], [0, 1]])"
