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

The arithmetic runs over the integers.  Each column of the reduction and
each row of the peel and of the recomposition is a scaled vector: n ints
followed by a positive int d, standing for the ints over d.  A move on it
is fraction-free, v -> a v - b w (_eliminate), in the style of
linalg.Echelon.  Fractions are made only at the boundary: the entries of
the factors and the coefficients that a BruhatForm holds, and the entries
that recompose returns.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

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
        """u' n(w) t u as Fractions: entry (i, j) is int j of row i of the
        integer product (_product) over that row's denominator, as the
        dense product of Fractions gives.  bruhat_decompose checks the same
        product against its input.
        """
        nw = representative_columns(len(self.u), self.word)
        rows = _product(_scaled_rows(self.uprime), nw, self.t, _scaled_rows(self.u))
        return [[Fraction(x, row[-1]) for x in row[:-1]] for row in rows]


def _exact_matrix(m):
    """m as row lists of ints and Fractions: an entry of another type
    becomes Fraction(x), which raises for what it cannot read as one."""
    return [[x if type(x) in (int, Fraction) else Fraction(x) for x in row] for row in m]


def _scaled_rows(m):
    """Each row of the rational matrix m as a scaled vector: its entries
    times the lcm d of their denominators, then d."""
    out = []
    for row in m:
        d = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (d // x.denominator) for x in row] + [d])
    return out


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
    gives C = m V and u = V^{-1} (_column_reduce), with each column of C a
    scaled vector v over its denominator d.  n(w) has one entry e_j = +-1
    in column j, at the pivot row p = perm(j); with t_j = (v[p] / d) e_j and
    column p of u' = column j of C over its pivot entry, v / v[p], column j
    of u' n(w) t is column j of C, so m = C u = u' n(w) t u.

    The determinant comes out of the same reduction.  A singular m leaves a
    zero column (_column_reduce raises "determinant is 0").  Otherwise
    det m = det u' det n(w) det t det u = t_1 ... t_n: u' and u are
    unipotent, det J m J = det m since J^2 = 1, and det n(w) = 1 as a
    product of blocks [[0,1],[-1,0]] of determinant 1.  Its partial
    products t_1 ... t_i are the subtorus coordinates z_i of
    t = t_1(z_1)...t_{n-1}(z_{n-1}), and the last is det m.  An unknown
    convention runs the positive reduction and is refused only once the
    determinant is 1, so a det != 1 input is NotUnimodular under any
    convention.

    Each scaled column v / d equals the column of C that the reduction over
    Fractions formed (_column_reduce), so u' = v / v[p], t_j = (v[p] / d) e_j,
    their partial products z and the determinant are the values that pass
    read off C, and the peels return its x and y (_peel_coefficients).

    Proof that this is the normal form.  _check_uprime_pattern puts u' in
    the pattern of U'_w; peeling u' and u back to the identity puts both in
    U (lower unipotent in the negative convention); t is diagonal as built;
    the recomposition check, the integer product of _product cross-
    multiplied against the input's scaled columns, gives m = u' n(w) t u.
    That factorization is unique, so any other correct elimination gives
    the same one.
    """
    m = _exact_matrix(mat)
    n = len(m)
    if not n:
        raise DimMismatch("the matrix is empty")
    if any(len(row) != n for row in m):
        raise DimMismatch("matrix is not square")
    negative = convention == "negative"
    cols = _scaled_rows(zip(*m))  # kept as they are for the recomposition check
    c, u, pivot = _column_reduce(_flip_columns(cols) if negative else [list(v) for v in cols])
    if negative:
        c, u = _flip_columns(c), _flip(u)
        pivot = [n - 1 - p for p in reversed(pivot)]
    perm = tuple(p + 1 for p in pivot)
    word = reduced_word(perm)
    nw = representative_columns(n, word)
    signs = [s for _, s in nw]
    z, num, den = [], 1, 1
    for v, p, s in zip(c, pivot, signs):
        num *= v[p] * s
        den *= v[n]
        z.append(Fraction(num, den))
    if num != den:
        raise NotUnimodular("determinant is %s" % z[-1])
    upper = convention == "positive"
    if not negative and not upper:
        raise ValueError("convention must be 'positive' or 'negative'")
    uprime = linalg.eye(n)
    t = linalg.zeros(n)
    for j, (v, p, s) in enumerate(zip(c, pivot, signs)):
        lead = v[p]
        t[j][j] = Fraction(lead * s, v[n])
        for i, x in enumerate(v[:n]):
            if x and i != p:
                uprime[i][p] = Fraction(x, lead)
    uprime_rows, u_rows = _scaled_rows(uprime), _scaled_rows(u)
    _check_uprime_pattern(uprime_rows, perm, upper)
    form = BruhatForm(
        convention=convention,
        uprime=_freeze(uprime),
        perm=perm,
        word=word,
        t=_freeze(t),
        u=_freeze(u),
        x=_peel_coefficients(uprime_rows, upper),
        z=tuple(z[:-1]),
        y=_peel_coefficients(u_rows, upper),
    )
    for i, row in enumerate(_product(uprime_rows, nw, t, u_rows)):
        if any(x * v[n] != v[i] * row[n] for x, v in zip(row, cols)):
            raise VerificationFailure("Bruhat recomposition failed")
    return form


def _eliminate(v, a, b, w):
    """v -> a v - b w for scaled vectors v, w and ints a > 0, b: the ints
    of v become a v_r - b w_r, over w's non-zero ints only, and the
    denominator d_v of v becomes a d_v.  In value, v / d_v loses
    (b d_w / (a d_v)) times w / d_w.  The content (the gcd of the ints and
    the denominator) is removed when a != 1, which keeps the value."""
    if a != 1:
        v[:] = [a * x for x in v]
    for r in range(len(w) - 1):
        y = w[r]
        if y:
            v[r] -= b * y
    if a != 1:
        g = gcd(*v)
        if g > 1:
            v[:] = [x // g for x in v]


def _column_reduce(cols):
    """(C, u, pivot) for m given by its scaled columns: C = m V as scaled
    columns (cols, reduced in place), V unit upper triangular, u = V^{-1}
    as Fractions, and pivot[j] the row of the lowest non-zero entry of
    column j of C; raises NotUnimodular("determinant is 0") when a column
    of C is zero.

    Each column j is cleared from the bottom row upward.  An entry in the
    pivot row i of an earlier column k goes by "col j -= f col k", which
    touches rows <= i only, since column k is zero below its pivot; the
    lowest entry left is the pivot.  So above its pivot, column j keeps
    only rows that are the pivots of later columns.  The move is m -> mE,
    E = 1 - f e_k e_j^T, so u -> E^{-1} u with E^{-1} = 1 + f e_k e_j^T:
    "row k += f row j" on u, and row j of u is still e_j.  Each (k, j) is
    met once at most, so u[k][j] = f, the one Fraction a move makes.

    With x = v_j[i] and y = v_k[i], f = (x / d_j) / (y / d_k), and the move
    is _eliminate(v_j, y / g, x / g, v_k) for g = gcd(x, y) with the sign
    of y, which zeroes row i and subtracts (x / g) d_k / ((y / g) d_j) = f
    times column k in value.  Proof that this is the pass over Fractions,
    which held C as Fractions and subtracted f times column k: by induction
    each scaled column v / d equals that pass's column, so its ints are the
    non-zero rational multiple d of it (by _scaled_rows at the start, and
    after each move by the subtraction of f).  Multiples share their zero
    entries, so both passes meet the same non-zero entries, earlier pivots
    and f, and return the same C, pivots and u.
    """
    n = len(cols)
    u = linalg.eye(n)
    pivot = []
    col_of_row = {}
    for j, v in enumerate(cols):
        p = None
        for i in range(n - 1, -1, -1):
            x = v[i]
            if not x:
                continue
            k = col_of_row.get(i)
            if k is None:
                if p is None:
                    p = i
                continue
            w = cols[k]
            y = w[i]
            u[k][j] = Fraction(x * w[n], y * v[n])
            g = gcd(x, y) if y > 0 else -gcd(x, y)
            _eliminate(v, y // g, x // g, w)
        if p is None:
            # C = m V with V invertible has a zero column: det m = 0
            raise NotUnimodular("determinant is 0")
        pivot.append(p)
        col_of_row[p] = j
    return cols, u, pivot


def _flip(m):
    """J m J for the antidiagonal permutation matrix J: m with both indices
    reversed."""
    return [list(row[::-1]) for row in reversed(m)]


def _flip_columns(cols):
    """J m J for m given by its scaled columns: the columns in reverse
    order, each with its ints reversed and its denominator kept last."""
    return [v[-2::-1] + v[-1:] for v in reversed(cols)]


def _freeze(m):
    return tuple(tuple(row) for row in m)


def _check_uprime_pattern(uprime, perm, upper):
    """u' must lie in U cap n(w) U^opp n(w)^{-1}; u' is given by its
    scaled rows, whose first n entries have the zero pattern of u'."""
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


def _peel_coefficients(rows, upper):
    """Coefficients x with u = u_1(x_1)...u_m(x_m) in the root ordering,
    for u given by its scaled rows (left as they are).

    The root vector of u_i is s E_rc for one matrix unit E_rc (r != c), so
    E_rc^2 = 0 and u_i(-x) = 1 - x s E_rc: multiplying by it on the left is
    the row operation row_r -= f row_c, f = x s = p / q in lowest terms.
    With row r = T / d_T and row c = S / d_S this is _eliminate(T, a, b, S)
    with a = q d_S and b = p d_T over their gcd, which subtracts
    (b / a) (d_S / d_T) = f times row c in value, over the non-zero ints of
    S only.  x_i = T[c] / d_T is the one Fraction made per root.

    Proof that this is the peel over Fractions, which held the rows as
    Fractions: by induction each scaled row equals that peel's row in
    value, so its ints are d_T times it, and both peels read the same x,
    skip the same f = 0 and visit the same non-zero entries of row c.  The
    residual is the identity exactly when each row is zero off the
    diagonal and has its denominator on it.
    """
    n = len(rows)
    residual = [list(row) for row in rows]
    coeffs = [Fraction(0)] * (n * (n - 1) // 2)
    for block in _peel_blocks(n)[upper]:
        for i, r, c, _ in block:
            row = residual[r]
            coeffs[i] = Fraction(row[c], row[n])
        for i, r, c, s in block:
            x = coeffs[i]
            if x:
                target, source = residual[r], residual[c]
                a, b = x.denominator * source[n], s * x.numerator * target[n]
                g = gcd(a, b)
                _eliminate(target, a // g, b // g, source)
    for r, row in enumerate(residual):
        if row[r] != row[n] or any(row[:r]) or any(row[r + 1:n]):
            raise VerificationFailure("one-parameter peeling failed")
    return tuple(coeffs)


def _product(uprime_rows, nw, t, u_rows):
    """The rows of u' n(w) t u as scaled vectors, from the scaled rows of u'
    and u, n(w) as representative_columns gives it and the diagonal of t:
    one integer product.

    Row j of t u is t_jj times row j of u: with t_jj = p_j / q_j in lowest
    terms and row j of u = b_j / e_j, it is p_j b_j / (q_j e_j), and over
    the common denominator L = lcm(q_j e_j) it is the ints
    B_j = p_j (L / (q_j e_j)) b_j.  Column j of u' n(w) is s_j times
    column r_j of u', with (r_j, s_j) = nw[j], so row i of u' n(w) is the
    ints s_j a_i[r_j] over the denominator d_i of row i of u'.  Row i of
    (u' n(w)) (t u) is the ints sum_j s_j a_i[r_j] B_j over d_i L, summed
    over the non-zero a_i[r_j] and the non-zero ints of B_j only.
    """
    n = len(u_rows)
    scale = [(t[j][j].numerator, t[j][j].denominator * b[n]) for j, b in enumerate(u_rows)]
    common = lcm(*(q for _, q in scale))
    right = [
        [(k, p * (common // q) * y) for k, y in enumerate(b[:n]) if y]
        for (p, q), b in zip(scale, u_rows)
    ]
    out = []
    for a in uprime_rows:
        acc = [0] * n
        for (r, s), bj in zip(nw, right):
            x = a[r]
            if x:
                if s < 0:
                    x = -x
                for k, y in bj:
                    acc[k] += x * y
        acc.append(a[n] * common)
        out.append(acc)
    return out


def act_on_normal_form(y0, g):
    """Bruhat data of Y0 g in the negative convention, big cell required.

    Returns the full BruhatForm (whose x, z, y tuples are the translated
    normal-form coefficients).  Raises CellDegeneration when Y0 g leaves
    the open cell of the longest Weyl element.
    """
    n = len(y0)
    prod = linalg.mat_mul(_exact_matrix(y0), _exact_matrix(g))
    form = bruhat_decompose(prod, convention="negative")
    if form.perm != longest_permutation(n):
        raise CellDegeneration(
            "translate left the big cell: w = %r" % (form.perm,)
        )
    return form
