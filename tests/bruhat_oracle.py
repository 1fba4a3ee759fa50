"""The Bruhat chain pvext.bruhat ran before its one column reduction, as a
test oracle.

bruhat_decompose reached u' n(w) t u by a column pass, a row pass,
_reduce_uprime pushing the w-fixed part of u' into u with dense products,
and, in the negative convention, a representative change folded into t.
The tests require the new decomposition to give the same BruhatForm and
the same exceptions.  The oracle keeps its own representatives (the block
product of linalg_oracle), its own recomposition and its own peel, which
updates whole rows, and its own copies of the small helpers it shares in
purpose with pvext.bruhat, so that a change there cannot change the oracle
too.  It imports only the BruhatForm record and the reduced word.
"""

from fractions import Fraction
from functools import lru_cache

from pvext import chevalley, linalg
from pvext.bruhat import BruhatForm, longest_permutation, reduced_word
from pvext.errors import (
    CellDegeneration,
    DimMismatch,
    NotUnimodular,
    StructureViolation,
    VerificationFailure,
)

import linalg_oracle
from linalg_oracle import representative_matrix


def _frac_matrix(m):
    return [[Fraction(x) for x in row] for row in m]


def _flip(m):
    """J m J for the antidiagonal permutation matrix J: m with both indices
    reversed."""
    return [list(row[::-1]) for row in reversed(m)]


def _freeze(m):
    return tuple(tuple(row) for row in m)


def _check_uprime_pattern(uprime, perm, upper):
    """u' must lie in U cap n(w) U^opp n(w)^{-1}."""
    n = len(uprime)
    inv = {v: k + 1 for k, v in enumerate(perm)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and uprime[i - 1][j - 1]:
                if upper:
                    ok = i < j and inv[i] > inv[j]
                else:
                    ok = i > j and inv[i] < inv[j]
                if not ok:
                    raise StructureViolation("u' outside U'_w at (%d, %d)" % (i, j))


def _torus_coordinates(t):
    """z with t = t_1(z_1)...t_{n-1}(z_{n-1}); z_i = d_1 ... d_i."""
    z = []
    acc = Fraction(1)
    for i in range(len(t) - 1):
        acc *= Fraction(t[i][i])
        z.append(acc)
    return tuple(z)


@lru_cache(maxsize=None)
def _root_units(n, upper):
    """(index, row, column, entry) of the one matrix unit of each root
    vector of SL_n, in blocks of equal height, highest first."""
    rep = chevalley.build_rep("A", n - 1)
    out = []
    for band in rep.rs.bands.values():
        units = []
        for i in band:
            b = rep.rs.neg_order[i - 1]
            mat = rep.X[(-b).coeffs if upper else b.coeffs]
            (unit,) = [(r, c, x) for r, row in enumerate(mat) for c, x in enumerate(row) if x]
            units.append((i - 1,) + unit)
        out.append(units)
    return out


def _peel_coefficients(u, upper):
    """x with u = u_1(x_1)...u_m(x_m): per block, read the coefficients,
    then clear them by full-row operations row_r -= x s row_c."""
    n = len(u)
    residual = [list(map(Fraction, row)) for row in u]
    coeffs = [Fraction(0)] * (n * (n - 1) // 2)
    for block in _root_units(n, upper) if n > 1 else ():
        for i, r, c, _ in block:
            coeffs[i] = residual[r][c]
        for i, r, c, s in block:
            f = coeffs[i] * s
            if f:
                residual[r] = [a - f * b for a, b in zip(residual[r], residual[c])]
    if residual != linalg_oracle.eye(n):
        raise VerificationFailure("one-parameter peeling failed")
    return tuple(coeffs)


def _recompose(form):
    out = [list(r) for r in form.uprime]
    for factor in (representative_matrix(len(out), form.word), form.t, form.u):
        out = linalg_oracle.mat_mul(out, [list(r) for r in factor])
    return out


def _representative_inverse(nw):
    """n(w)^{-1}, which is the transpose of n(w).

    Proof.  The i-th block B_i is the identity outside rows and columns
    i, i+1, where it is [[0,1],[-1,0]]; its columns i and i+1 are -e_{i+1}
    and e_i, the others are the other unit vectors, an orthonormal set, so
    B_i^T B_i = 1.  A product of matrices with Q^T Q = 1 has it too:
    (PQ)^T PQ = Q^T P^T P Q = 1.  So n(w)^T n(w) = 1, and for a square
    matrix a left inverse is the inverse.
    """
    return [list(col) for col in zip(*nw)]


def bruhat_decompose(mat, convention="negative"):
    """The unique factorization u' n(w) t u of an exact SL_n matrix.

    The permutation is found by deterministic elimination; all factors are
    exact and the recomposition is asserted to reproduce the input
    bit-exactly.  Raises DimMismatch for an empty or non-square matrix,
    NotUnimodular unless det = 1, then ValueError for an unknown convention.
    """
    m = _frac_matrix(mat)
    if not m:
        raise DimMismatch("the matrix is empty")
    if linalg.det(m) != 1:
        raise NotUnimodular("determinant is %s" % linalg.det(m))
    if convention == "positive":
        form = _decompose_positive(m)
    elif convention == "negative":
        form = _decompose_negative(m)
    else:
        raise ValueError("convention must be 'positive' or 'negative'")
    if _recompose(form) != m:
        raise VerificationFailure("Bruhat recomposition failed")
    return form


def _decompose_positive(m):
    """u' n(w) t u for the positive convention, by column and row moves.

    The moves give W m V = n(w) t with V, W unit upper triangular, and u, u'
    are V^{-1}, W^{-1}, accumulated one elementary inverse per move.  Column
    move "col j -= f col k" (k < j) is m -> mE with E = 1 - f e_k e_j^T, so
    u -> E^{-1} u, E^{-1} = 1 + f e_k e_j^T: "row k += f row j" on u.  Row
    move "row i -= f row p" (i < p) is m -> Fm with F = 1 - f e_i e_p^T, so
    u' -> u' F^{-1}, F^{-1} = 1 + f e_i e_p^T: "col p += f col i" on u'.
    """
    n = len(m)
    work = [list(row) for row in m]
    # column elimination: adding earlier columns to later ones
    u = linalg.eye(n)  # inverse of the accumulated right factor
    pivot_of_col = {}
    col_of_row = {}
    for j in range(n):
        while True:
            b = max((i for i in range(n) if work[i][j]), default=None)
            if b is None:
                raise StructureViolation("column %d is zero" % j)
            k = col_of_row.get(b)
            if k is None:
                pivot_of_col[j] = b
                col_of_row[b] = j
                break
            factor = work[b][j] / work[b][k]
            for i in range(n):
                work[i][j] -= factor * work[i][k]
            u[k] = [a + factor * c for a, c in zip(u[k], u[j])]
    # row elimination: clear above each pivot
    uprime = linalg.eye(n)  # inverse of the accumulated left operations
    for j in sorted(range(n), key=lambda c: pivot_of_col[c]):
        p = pivot_of_col[j]
        for i in range(p):
            if work[i][j]:
                factor = work[i][j] / work[p][j]
                work[i] = [a - factor * b for a, b in zip(work[i], work[p])]
                for row in uprime:
                    row[p] += factor * row[i]
    # work = n(w) t now; perm maps column k -> row perm(k)
    perm = tuple(pivot_of_col[j] + 1 for j in range(n))
    word = reduced_word(perm)
    nw = representative_matrix(n, word)
    t = linalg.mat_mul(_representative_inverse(nw), work)
    for i in range(n):
        for j in range(n):
            if i != j and t[i][j]:
                raise StructureViolation("torus factor is not diagonal")
    uprime, u = _reduce_uprime(uprime, u, perm, nw, t)
    _check_uprime_pattern(uprime, perm, upper=True)
    return BruhatForm(
        convention="positive",
        uprime=_freeze(uprime),
        perm=perm,
        word=word,
        t=_freeze(t),
        u=_freeze(u),
        x=_peel_coefficients(uprime, upper=True),
        z=_torus_coordinates(t),
        y=_peel_coefficients(u, upper=True),
    )


def _reduce_uprime(uprime, u, perm, nw, t):
    """Push the w-fixed unipotent part of u' through n(w) t into u.

    Uniqueness of the factorization needs u' in U'_w = U cap n(w) U^- n(w)^{-1};
    the elimination above only guarantees u' in U.  Entries at positions
    fixed by w (i < j with perm^{-1}(i) < perm^{-1}(j)) are peeled off from
    the right, closest to the diagonal first, and absorbed into u.
    """
    n = len(uprime)
    inv = {v: k + 1 for k, v in enumerate(perm)}
    push_positions = sorted(
        (
            (j - i, i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if inv[i] < inv[j]
        )
    )
    residual = [list(map(Fraction, row)) for row in uprime]
    push = linalg.eye(n)
    for _, i, j in push_positions:
        c = residual[i - 1][j - 1]
        if not c:
            continue
        gen = linalg.eye(n)
        gen[i - 1][j - 1] = -c
        residual = linalg.mat_mul(residual, gen)
        gen[i - 1][j - 1] = c
        push = linalg.mat_mul(gen, push)
    # (n(w) t)^{-1} = t^{-1} n(w)^T; the caller has checked that t is diagonal
    nt_inv = [
        [x / t[i][i] for x in row] for i, row in enumerate(_representative_inverse(nw))
    ]
    conj = linalg.mat_mul(linalg.mat_mul(nt_inv, push), linalg.mat_mul(nw, t))
    new_u = linalg.mat_mul(conj, u)
    for i in range(n):
        if new_u[i][i] != 1:
            raise StructureViolation("absorbed factor is not unipotent")
        for j in range(i):
            if new_u[i][j]:
                raise StructureViolation("absorbed factor is not upper")
    return residual, new_u


def _decompose_negative(m):
    n = len(m)
    pos = _decompose_positive(_flip(m))
    perm = tuple(n + 1 - pos.perm[n - 1 - k] for k in range(n))
    word = reduced_word(perm)
    uprime = _freeze(_flip(pos.uprime))
    t = _freeze(_flip(pos.t))
    u = _freeze(_flip(pos.u))
    nw = representative_matrix(n, word)
    # adjust the torus factor for the representative change
    flipped_rep = _flip(representative_matrix(n, pos.word))
    # both matrices represent the same Weyl element, so they differ by a
    # torus factor that folds into t
    tweak = linalg.mat_mul(_representative_inverse(nw), flipped_rep)
    for a in range(n):
        for b in range(n):
            if a != b and tweak[a][b]:
                raise StructureViolation("representative change is not a torus factor")
    t = _freeze(linalg.mat_mul(tweak, [list(r) for r in t]))
    _check_uprime_pattern([list(r) for r in uprime], perm, upper=False)
    return BruhatForm(
        convention="negative",
        uprime=uprime,
        perm=perm,
        word=word,
        t=t,
        u=u,
        x=_peel_coefficients([list(r) for r in uprime], upper=False),
        z=_torus_coordinates([list(r) for r in t]),
        y=_peel_coefficients([list(r) for r in u], upper=False),
    )


def act_on_normal_form(y0, g):
    """The BruhatForm of Y0 g in the negative convention; CellDegeneration
    unless w is the longest element."""
    form = bruhat_decompose(linalg_oracle.mat_mul(_frac_matrix(y0), _frac_matrix(g)), "negative")
    if form.perm != longest_permutation(len(y0)):
        raise CellDegeneration("translate left the big cell: w = %r" % (form.perm,))
    return form
