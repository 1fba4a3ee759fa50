"""Exact Bruhat normal forms for SL_n over the rationals.

Every matrix of determinant one factors uniquely as u' n(w) t u once a
Borel subgroup and coset representatives n(w) are fixed.  Both conventions
are supported: "positive" (u', u upper unipotent) and "negative" (lower
unipotent, the convention of the big-cell normal forms used elsewhere in
this package).  Representatives are the canonical products of the
[[0,1],[-1,0]] blocks along a deterministic reduced word, carried as
signed permutations.  The factor coefficients are read back off the
factors: x and y by peeling u_1(x_1)...u_m(x_m) with row operations over
the non-zero entries, z through the diagonal of t.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import chevalley, linalg
from .errors import (
    CellDegeneration,
    DimMismatch,
    NotUnimodular,
    StructureViolation,
    VerificationFailure,
)


@dataclass(frozen=True)
class BruhatForm:
    convention: str
    uprime: tuple
    perm: tuple  # w as a permutation: k -> perm[k-1], 1-based values
    word: tuple  # reduced word for w in simple transpositions
    t: tuple
    u: tuple
    x: tuple = ()  # coefficients of uprime in the ordered root product
    z: tuple = ()  # subtorus coordinates of t
    y: tuple = ()  # coefficients of u

    def recompose(self):
        """u' n(w) t u for the diagonal t that bruhat_decompose builds.

        With n(w) carried as (r_j, s_j) per column (representative_columns),
        column j of u' n(w) is s_j times column r_j of u', and the diagonal t
        scales it by t_jj.  So entry (i, j) of u' n(w) t is
        u'[i][r_j] s_j t_jj, the one non-zero product of the dense row by
        column sums, formed here for the non-zero u'[i][r_j] only; every
        other entry is Fraction(0), as the dense products of Fractions give.
        One product by u follows.
        """
        n = len(self.uprime)
        out = linalg.zeros(n)
        for j, (r, s) in enumerate(representative_columns(n, self.word)):
            scale = s * self.t[j][j]
            for row, urow in zip(out, self.uprime):
                if urow[r]:
                    row[j] = urow[r] * scale
        return linalg.mat_mul(out, [list(r) for r in self.u])


def _frac_matrix(m):
    return [[Fraction(x) for x in row] for row in m]


def reduced_word(perm):
    """Deterministic reduced word (smallest descent first) for a permutation
    given in one-line notation, 1-based values."""
    line = list(perm)
    word = []
    while True:
        descent = next(
            (i for i in range(len(line) - 1) if line[i] > line[i + 1]), None
        )
        if descent is None:
            break
        line[descent], line[descent + 1] = line[descent + 1], line[descent]
        word.append(descent + 1)
    word.reverse()
    return tuple(word)


def representative_columns(n, word):
    """n(w), the product of the [[0,1],[-1,0]] blocks along the word, as
    the (row, sign) of its one non-zero entry in each column.

    The i-th block sits in rows and columns i, i+1 (1-based).  Multiplying
    by it on the right makes column i the negated column i+1 and column i+1
    the old column i; every other column stays.  So every column stays one
    signed unit vector of the identity: n(w) has entry sign at (row, j) and
    zero elsewhere, and its inverse is its transpose.
    """
    cols = [(j, 1) for j in range(n)]
    for i in word:
        (r, s), cols[i] = cols[i], cols[i - 1]
        cols[i - 1] = (r, -s)
    return tuple(cols)


def longest_permutation(n):
    return tuple(range(n, 0, -1))


def bruhat_decompose(mat, convention="negative"):
    """The unique factorization u' n(w) t u of an exact SL_n matrix.

    Raises DimMismatch if the matrix is empty or not square, before any
    elimination, then NotUnimodular unless det = 1, then ValueError for an
    unknown convention.  The negative convention works on J m J (J
    reverses both indices) and flips the result back.  One column reduction
    gives C = m V and u = V^{-1} (_column_reduce).  n(w) has one entry
    e_j = +-1 in column j, at the pivot row p = perm(j); with
    t_j = C[p][j] e_j and column p of u' = column j of C over C[p][j],
    column j of u' n(w) t is column j of C, so m = C u = u' n(w) t u.

    The determinant comes out of the same reduction.  A singular m leaves a
    zero column (_column_reduce raises "determinant is 0").  Otherwise
    det m = det u' det n(w) det t det u = t_1 ... t_n: u' and u are
    unipotent, det J m J = det m since J^2 = 1, and det n(w) = 1 as a
    product of blocks [[0,1],[-1,0]] of determinant 1.  An unknown
    convention runs the positive reduction and is refused only once the
    determinant is 1, so a det != 1 input is NotUnimodular under any
    convention.

    Proof that this is the normal form.  _check_uprime_pattern puts u' in
    the pattern of U'_w; peeling u' and u back to the identity puts both in
    U (lower unipotent in the negative convention); t is diagonal as built;
    the recomposition check gives m = u' n(w) t u.  That factorization is
    unique, so any other correct elimination gives the same one.
    """
    m = _frac_matrix(mat)
    n = len(m)
    if not n:
        raise DimMismatch("the matrix is empty")
    if any(len(row) != n for row in m):
        raise DimMismatch("matrix is not square")
    negative = convention == "negative"
    c, u, pivot = _column_reduce(_flip(m) if negative else m)
    if negative:
        c, u = _flip(c), _flip(u)
        pivot = [n - 1 - p for p in reversed(pivot)]
    perm = tuple(p + 1 for p in pivot)
    word = reduced_word(perm)
    uprime = linalg.eye(n)
    t = linalg.zeros(n)
    d = Fraction(1)
    for j, (p, (_, sign)) in enumerate(zip(pivot, representative_columns(n, word))):
        lead = c[p][j]
        t[j][j] = lead * sign
        d *= t[j][j]
        for i in range(n):
            uprime[i][p] = c[i][j] / lead
    if d != 1:
        raise NotUnimodular("determinant is %s" % d)
    upper = convention == "positive"
    if not negative and not upper:
        raise ValueError("convention must be 'positive' or 'negative'")
    _check_uprime_pattern(uprime, perm, upper)
    form = BruhatForm(
        convention=convention,
        uprime=_freeze(uprime),
        perm=perm,
        word=word,
        t=_freeze(t),
        u=_freeze(u),
        x=_peel_coefficients(uprime, upper),
        z=_torus_coordinates(t),
        y=_peel_coefficients(u, upper),
    )
    if not linalg.mat_eq(form.recompose(), m):
        raise VerificationFailure("Bruhat recomposition failed")
    return form


def _column_reduce(m):
    """(C, u, pivot) with C = m V, V unit upper triangular, u = V^{-1}, and
    pivot[j] the row of the lowest non-zero entry of column j of C; raises
    NotUnimodular("determinant is 0") when a column of C is zero.

    Each column j is cleared from the bottom row upward.  An entry in the
    pivot row i of an earlier column k goes by "col j -= f col k", which
    touches rows <= i only, since column k is zero below its pivot; the
    lowest entry left is the pivot.  So above its pivot, column j keeps
    only rows that are the pivots of later columns.  The move is m -> mE,
    E = 1 - f e_k e_j^T, so u -> E^{-1} u with E^{-1} = 1 + f e_k e_j^T:
    "row k += f row j" on u, and row j of u is still e_j.
    """
    n = len(m)
    c = [list(row) for row in m]
    u = linalg.eye(n)
    pivot = []
    col_of_row = {}
    for j in range(n):
        p = None
        for i in range(n - 1, -1, -1):
            if not c[i][j]:
                continue
            k = col_of_row.get(i)
            if k is None:
                if p is None:
                    p = i
                continue
            f = c[i][j] / c[i][k]
            for r in range(i + 1):
                if c[r][k]:
                    c[r][j] -= f * c[r][k]
            u[k][j] += f
        if p is None:
            # C = m V with V invertible has a zero column: det m = 0
            raise NotUnimodular("determinant is 0")
        pivot.append(p)
        col_of_row[p] = j
    return c, u, pivot


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
            if i == j:
                continue
            entry = uprime[i - 1][j - 1]
            if not entry:
                continue
            if upper:
                ok = i < j and inv[i] > inv[j]
            else:
                ok = i > j and inv[i] < inv[j]
            if not ok:
                raise StructureViolation("u' outside U'_w at (%d, %d)" % (i, j))


@lru_cache(maxsize=None)
def _peel_blocks(n):
    """The ordered root vectors of SL_n in blocks of equal height, highest
    first: (index, row, column, entry) of the one matrix unit of each, for
    the negative roots and then for the positive ones.  Both pairs come
    from one build_rep, and only they are cached, not the representation.
    SL_1 has no roots."""
    if n == 1:
        return (), ()
    rep = chevalley.build_rep("A", n - 1)
    out = []
    for sign in (1, -1):
        units = []
        for b in rep.rs.neg_order:
            cells = rep.exp_cells[tuple(sign * k for k in b.coeffs)]
            live = [(r, c, p) for r, c, k, p in cells if k == 1]
            if len(live) != 1:
                raise StructureViolation("root vector of %r is not one matrix unit" % (b,))
            units.append(live[0])
        out.append(tuple(
            tuple((i - 1,) + units[i - 1] for i in band) for band in rep.rs.bands.values()
        ))
    return tuple(out)


def _peel_coefficients(u, upper):
    """Coefficients x with u = u_1(x_1)...u_m(x_m) in the root ordering.

    The root vector of u_i is s E_rc for one matrix unit E_rc (r != c), so
    E_rc^2 = 0 and u_i(-x) = 1 - x s E_rc: multiplying by it on the left is
    the row operation row_r -= x s row_c, run over the non-zero b of row c
    only.  u holds Fractions (bruhat_decompose forms it from _frac_matrix's
    entries by Fraction arithmetic), so where b = 0 the full-row update
    a - f b would give a Fraction of a's value: a itself.
    """
    n = len(u)
    residual = [list(row) for row in u]
    coeffs = [Fraction(0)] * (n * (n - 1) // 2)
    for block in _peel_blocks(n)[upper]:
        for i, r, c, _ in block:
            coeffs[i] = residual[r][c]
        for i, r, c, s in block:
            f = coeffs[i] * s
            if f:
                target = residual[r]
                for j, b in enumerate(residual[c]):
                    if b:
                        target[j] -= f * b
    if not linalg.mat_eq(residual, linalg.eye(n)):
        raise VerificationFailure("one-parameter peeling failed")
    return tuple(coeffs)


def _torus_coordinates(t):
    """z with t = t_1(z_1)...t_{n-1}(z_{n-1}); z_i = d_1 ... d_i."""
    n = len(t)
    z = []
    acc = Fraction(1)
    for i in range(n - 1):
        acc *= Fraction(t[i][i])
        z.append(acc)
    return tuple(z)


def act_on_normal_form(y0, g):
    """Bruhat data of Y0 g in the negative convention, big cell required.

    Returns the full BruhatForm (whose x, z, y tuples are the translated
    normal-form coefficients).  Raises CellDegeneration when Y0 g leaves
    the open cell of the longest Weyl element.
    """
    n = len(y0)
    prod = linalg.mat_mul(_frac_matrix(y0), _frac_matrix(g))
    form = bruhat_decompose(prod, convention="negative")
    if form.perm != longest_permutation(n):
        raise CellDegeneration(
            "translate left the big cell: w = %r" % (form.perm,)
        )
    return form
