"""F_p-valued function spaces on root sets and exact mod-p linear algebra.

An FpSpace is a based space of functions on a labeled root set; the one
the pipeline builds is the odd part of the functions on the 2m nonzero
labels (dimension m, the mod-p model of the Prym torsion).  A signed
permutation acts by phi -> phi o g^(-1); action matrices are signed
permutation matrices in the chosen basis.

All linear algebra is exact Gauss-Jordan elimination over residues mod p,
on matrices stored as lists of rows of Python ints, so no product can wrap.
A row update skips zero multipliers and touches only the nonzero entries of
the pivot row, which keeps the sparse delta and odd bases at O(dim^2) work
per action matrix.  The documented modulus range is (p-1)^2 < 2^63; larger
moduli are rejected.  The internal helpers take any 2-D integer sequence.

The commutant dimension is counted from the action matrices themselves.
When every generator acts monomially (e_j -> a_j e_sigma(j), as on the
delta and odd bases), the commutant has a basis indexed by the consistent
orbits of signed index pairs, counted by one walk over those orbits in
O(#gens . dim^2).  Otherwise it is the exact null space of the stacked
commutation constraints, which also serves the tests as the reference.

The F_2 heart (the sum-zero part of F_2^m, m odd) is proved irreducible
under A_m and S_m for every odd m by `_heart_is_irreducible`.
"""

from __future__ import annotations

from ._primes import is_prime
from .signedperm import LabeledRoots, SignedPerm, roots_h

__all__ = [
    "FpMatrix",
    "FpSpace",
    "odd_space",
    "action_matrix",
    "commutant_dim",
]


def _check_modulus(p: int) -> None:
    """Reject moduli outside the documented range (p-1)^2 < 2^63."""
    if (p - 1) ** 2 >= 2**63:
        raise ValueError(f"modulus {p} too large: the supported range is (p-1)^2 < 2^63")


def _rows(a, p: int) -> list[list[int]]:
    """A fresh copy of the 2-D integer sequence a as rows of residues mod p."""
    return [[int(v) % p if v else 0 for v in row] for row in a]  # cheap on sparse rows


def _zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


class FpMatrix:
    """A square matrix over F_p, stored as rows of residues (Python ints)."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, a):
        _check_modulus(p)
        self.p = p
        self.a = _rows(a, p)

    @classmethod
    def identity(cls, p: int, n: int) -> FpMatrix:
        return cls(p, [[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.a)

    def __matmul__(self, other: FpMatrix) -> FpMatrix:
        if self.p != other.p:
            raise ValueError("mismatched moduli")
        cols = list(zip(*other.a))
        return FpMatrix(
            self.p, [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in self.a]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, FpMatrix) and self.p == other.p and self.a == other.a

    def __hash__(self):
        return hash((self.p, tuple(map(tuple, self.a))))

    def to_lists(self) -> list[list[int]]:
        return [row[:] for row in self.a]

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.a})"


def _eliminate(M: list[list[int]], p: int) -> list[int]:
    """In-place Gauss-Jordan reduction of the rows M mod p; returns the pivot columns."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        prow = M[r]
        inv = pow(prow[c], -1, p)
        if inv != 1:
            prow[:] = [v * inv % p for v in prow]
        support = [(j, v) for j, v in enumerate(prow) if v]
        for i, row in enumerate(M):
            f = row[c]
            if f and i != r:
                for j, v in support:
                    row[j] = (row[j] - f * v) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def _rank(M, p: int) -> int:
    return len(_eliminate(_rows(M, p), p))


def _solve_in_span(B, V, p: int) -> list[list[int]]:
    """Solve B X = V mod p where B has full column rank; raises if V not in span."""
    B = _rows(B, p)
    d = len(B[0]) if B else 0
    M = [b + v for b, v in zip(B, _rows(V, p))]
    pivots = _eliminate(M, p)
    if pivots != list(range(d)):
        if pivots and pivots[-1] >= d:
            raise ValueError("image vector not in the span of the basis")
        raise ValueError("basis does not have full column rank")
    # exactly the pivots 0..d-1: the rows below d are zero, V included
    return [row[d:] for row in M[:d]]


class FpSpace:
    """A based F_p-subspace of functions on a labeled root set.

    The basis is a matrix (rows of residues) whose columns are the basis
    vectors written in the delta-function coordinates of the ambient label
    set.
    """

    def __init__(self, p: int, roots: LabeledRoots, basis, name: str):
        _check_modulus(p)
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p
        self.roots = roots
        self.labels = roots.labels()
        self.index = {lbl: i for i, lbl in enumerate(self.labels)}
        self.basis = _rows(basis, p)
        self.name = name
        if len(self.basis) != len(self.labels):
            raise ValueError("basis rows must match the ambient label count")

    @property
    def dim(self) -> int:
        return len(self.basis[0])

    @property
    def m(self) -> int:
        return self.roots.m

    def __repr__(self) -> str:
        return f"FpSpace({self.name}, p={self.p}, dim={self.dim})"


def _space(p: int, roots: LabeledRoots, columns: list[dict], name: str) -> FpSpace:
    """The space spanned by the columns, each a label -> coefficient dict."""
    row = {lbl: i for i, lbl in enumerate(roots.labels())}
    B = _zeros(len(row), len(columns))
    for j, col in enumerate(columns):
        for lbl, v in col.items():
            B[row[lbl]][j] = v
    return FpSpace(p, roots, B, name)


def odd_space(m: int, p: int) -> FpSpace:
    """Odd functions: basis delta(+i) - delta(-i); dim m.

    As a module this is V_f^- (odd functions on all roots vanish at 0, so
    restriction to the nonzero labels is an isomorphism onto W_h^-).
    """
    return _space(p, roots_h(m), [{i: 1, -i: -1} for i in range(1, m + 1)], "V_f^-")


def _push_forward(space: FpSpace, image_of_label) -> list[list[int]]:
    """Matrix of phi -> phi o g^(-1) on the ambient delta coordinates."""
    p = space.p
    out = _zeros(len(space.labels), space.dim)
    for row, lbl in enumerate(space.labels):
        target = out[space.index[image_of_label(lbl)]]
        for j, v in enumerate(space.basis[row]):
            if v:
                target[j] = (target[j] + v) % p
    return out


def action_matrix(g: SignedPerm, space: FpSpace) -> FpMatrix:
    """Matrix of g on the space in its basis; multiplicative in g."""
    if g.m != space.m:
        raise ValueError(f"element acts on m={g.m}, space has m={space.m}")
    V = _push_forward(space, lambda lbl: space.roots.act(g, lbl))
    return FpMatrix(space.p, _solve_in_span(space.basis, V, space.p))


def _monomial_form(A) -> tuple[list[int], list[int]] | None:
    """(sigma, a) with A e_j = a_j e_sigma(j), or None if A is not monomial."""
    d = len(A)
    sigma, a = [-1] * d, [0] * d
    for i, row in enumerate(A):
        nonzero = [(j, int(v)) for j, v in enumerate(row) if v]
        if len(row) != d or len(nonzero) != 1:
            return None
        j, v = nonzero[0]
        if sigma[j] != -1:
            return None
        sigma[j], a[j] = i, v
    return sigma, a


def _orbit_commutant_dim(forms: list[tuple[list[int], list[int]]], d: int, p: int) -> int:
    """Commutant dimension of monomial actions by signed orbit counting.

    X commutes with e_j -> a_j e_sigma(j) iff X[sigma i, sigma j] =
    a_i a_j^(-1) X[i, j] (as in Mackey's formula), so a walk from X = 1 fixes
    an orbit of index pairs; the orbit adds one dimension unless some edge
    meets an entry already holding a different value, forcing it to zero.
    """
    gens = [(sigma, a, [pow(x, -1, p) for x in a]) for sigma, a in forms]
    X = [0] * (d * d)  # 0: not reached, since every reached entry holds a unit mod p
    dim = 0
    for start in range(d * d):
        if X[start]:
            continue
        X[start], stack, consistent = 1, [start], True
        while stack:
            i, j = divmod(u := stack.pop(), d)
            for sigma, a, a_inv in gens:
                v = sigma[i] * d + sigma[j]
                value = a[i] * a_inv[j] * X[u] % p
                if not X[v]:
                    X[v] = value
                    stack.append(v)
                elif X[v] != value:
                    consistent = False
        dim += consistent
    return dim


def _dense_commutant_dim(mats, d: int, p: int) -> int:
    """Commutant dimension as the exact null space of the stacked constraints
    (A (x) I - I (x) A^T) vec(X) = 0; O(d^6), any action matrices."""
    M = []
    for A in mats:
        A = _rows(A, p)
        for i in range(d):
            for k in range(d):
                # coefficient of X[j, l] in (A X - X A)[i, k]
                row = [0] * (d * d)
                for j in range(d):
                    row[j * d + k] += A[i][j]
                for l in range(d):
                    row[i * d + l] -= A[l][k]
                M.append(row)
    return d * d - _rank(M, p)


def commutant_dim(generators, space: FpSpace) -> int:
    """Dimension over F_p of {X : X A_g = A_g X for all generators g}.

    When every action matrix A_g is monomial (true of every signed
    permutation on the delta and odd bases) the dimension is the number of
    consistent orbits of signed index pairs, in O(#gens . dim^2).  Otherwise
    (e.g. on the even sum-zero space) it is the dense null space of the kron
    system, in O(dim^6).  With no generators this is the full matrix algebra
    of dimension dim^2.
    """
    d = space.dim
    p = space.p
    mats = [action_matrix(g, space).a for g in generators]
    forms = [_monomial_form(A) for A in mats]
    if all(f is not None for f in forms):
        return _orbit_commutant_dim(forms, d, p)
    return _dense_commutant_dim(mats, d, p)


# ---------------------------------------------------------------------------
# the F_2 heart
# ---------------------------------------------------------------------------


def _apply_perm_to_mask(mask: int, s: tuple[int, ...]) -> int:
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << s[i]
        mask >>= 1
        i += 1
    return out


def _spin_dimension_f2(v: int, gens: list[tuple[int, ...]]) -> int:
    """Dimension of the smallest gens-stable F_2-subspace containing v."""
    basis: list[int] = []

    def insert(w: int) -> bool:
        for b in basis:
            w = min(w, w ^ b)
        if w:
            basis.append(w)
            basis.sort(reverse=True)
            return True
        return False

    queue = [v]
    insert(v)
    while queue:
        w = queue.pop()
        for s in gens:
            img = _apply_perm_to_mask(w, s)
            if insert(img):
                queue.append(img)
    return len(basis)


def _heart_is_irreducible(m: int) -> bool:
    """Irreducibility of the sum-zero F_2-module of A_m, for any odd m >= 3.

    A nonzero submodule holds some v_w = e_1 + ... + e_w, w even, as A_m is
    transitive on w-subsets.  For w >= 4 the 3-cycle 1 -> w+1 -> 2 -> 1 adds
    e_2 + e_(w+1) to v_w (checked below), so every nonzero submodule holds a
    weight-2 vector: one spin of e_1 + e_2 to dimension m - 1 then suffices.
    """
    three = tuple([1, 2, 0] + list(range(3, m)))
    full = tuple((i + 1) % m for i in range(m))  # m odd: the m-cycle is even
    if _spin_dimension_f2(0b11, [three, full]) != m - 1:
        return False
    for w in range(4, m, 2):
        g = list(range(m))
        g[0], g[w], g[1] = w, 1, 0  # the 3-cycle 1 -> w+1 -> 2 -> 1, 0-based
        v = (1 << w) - 1
        if v ^ _apply_perm_to_mask(v, g) != 0b10 | 1 << w:
            return False
    return True


# the names no command runs, defined in prymcert.reference and resolved from here (PEP 562)
_MOVED = {"constant_space", "d2_matrix", "even_space", "even_zero_space",
          "function_space_on_roots", "heart_f2_irreducible", "lambda_rank_check",
          "orbit_count_formula", "vf_plus_space", "vf_space"}


def __getattr__(name):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import reference
    return getattr(reference, name)
