"""The dense exact matrix product, the Weyl representatives built with it,
the dense group-word products, and the four separate Gauss-Jordan loops, as
a test oracle.

This is how pvext.bruhat built n(w) before its column moves: one
row-by-column dot product per entry, and one matrix product per letter of
the word.  pvext.linalg.mat_mul is that plain product again, written on
its own; the tests require both to agree, value, type and term order.
signed_permutation reads a (row, sign) per column back into that dense
matrix.
rational_inverse, det, solve_exact and rank are the loops pvext.linalg ran
before one shared elimination pass backed all four; the tests require the
same values and the same exceptions.  mat_is_zero is the zero test the
tests compare matrices with, and mat_sub and bracket are the difference and
the commutator the tests build expected matrices with.  mat_scale, zeros
and eye over any ring build expected matrices, and combination is the
dense fold zero + c_1 M_1 + c_2 M_2 + ... that the tests hold
pvext.chevalley.compose to and build matrices of coordinates with.  mat_add is
the entrywise sum, as pvext.linalg.mat_add forms it.  adjoint and product
multiply a word of group factors letter by letter with the dense mat_mul
here, and hold pvext.symgroup.adjoint and construct_oracle.product, which
use pvext.linalg.mat_mul (root subgroup factors included), to the same
values, types and term orders.  mat_derive is the entrywise
derivative that, with mat_mul and mat_add, composes g' + g b and a g for
the tests of pvext.linalg.gauge_defect, which forms neither.
"""

from fractions import Fraction
from functools import reduce

from pvext import linalg
from pvext.errors import DimMismatch, NoRationalSolution


def zeros(n, zero=Fraction(0)):
    return [[zero for _ in range(n)] for _ in range(n)]


def eye(n, one=Fraction(1), zero=Fraction(0)):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def combination(terms, n, zero):
    """The n x n sum zero + c_1 M_1 + c_2 M_2 + ... over the (c, M) pairs of
    `terms`, every entry of every c M added."""
    out = zeros(n, zero)
    for c, mat in terms:
        out = mat_add(out, mat_scale(mat, c))
    return out


def mat_mul(a, b):
    """a b; an entry where every product vanishes is the zero of the ring of
    a[0][0], or of b[0][0] when a[0][0] is rational."""
    if any(len(row) != len(b) for row in a) or len({len(row) for row in b}) > 1:
        raise DimMismatch("columns of a differ from rows of b")
    bt = list(zip(*b))
    zero = Fraction(0)
    if a and b:
        zero = linalg.zero_of(a[0][0])
        if isinstance(zero, Fraction):
            zero = linalg.zero_of(b[0][0])
    return [[linalg.dot(zip(row, col), zero) for col in bt] for row in a]


def mat_add(a, b):
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        raise DimMismatch("matrix sizes differ")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def adjoint(factors, a):
    """Ad(g)(A) = g A g^{-1} for the ordered symgroup factors of g."""
    for f in reversed(factors):
        a = mat_mul(mat_mul(f.rows, a), f.inv)
    return a


def product(mats):
    """m_1 m_2 ... m_k, multiplied left to right."""
    return [list(r) for r in reduce(mat_mul, mats)]


def mat_derive(a):
    """Entrywise derivation."""
    return [[linalg.derive(x) for x in row] for row in a]


def mat_is_zero(a):
    return all(not x for row in a for x in row)


def mat_sub(a, b):
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        raise DimMismatch("matrix sizes differ")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def bracket(a, b):
    """Commutator ab - ba."""
    if len(a) != len(b):
        raise DimMismatch("bracket of unequal sizes")
    return mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))


def simple_block(n, i):
    """The canonical representative of the i-th simple reflection."""
    out = linalg.eye(n)
    out[i - 1][i - 1] = Fraction(0)
    out[i][i] = Fraction(0)
    out[i - 1][i] = Fraction(1)
    out[i][i - 1] = Fraction(-1)
    return out


def representative_matrix(n, word):
    out = linalg.eye(n)
    for i in word:
        out = mat_mul(out, simple_block(n, i))
    return out


def signed_permutation(columns):
    """The dense Fraction matrix with entry s at (r, j) for the (r, s) of
    column j, as pvext carries n(w)."""
    out = zeros(len(columns))
    for j, (r, s) in enumerate(columns):
        out[r][j] = Fraction(s)
    return out


def rational_inverse(m):
    """Exact inverse of an invertible Fraction matrix."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise NoRationalSolution("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        live = [(c, y) for c, y in enumerate(aug[col]) if y]
        for r in range(n):
            row = aug[r]
            f = row[col]
            if r != col and f:
                for c, y in live:
                    row[c] -= f * y
    return [row[n:] for row in aug]


def det(m):
    """Exact determinant of a Fraction matrix."""
    n = len(m)
    a = [list(map(Fraction, row)) for row in m]
    sign = Fraction(1)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        result *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return sign * result


def solve_exact(a, rhs_cols):
    """Solve a x = b for each column b in rhs_cols.

    The coefficient matrix `a` (list of rows, possibly rectangular) is over
    Fractions and must have full column rank; the system must be consistent,
    else NoRationalSolution.  Pivoting is deterministic: first nonzero entry
    in row-major order.  Right-hand side entries may be ring elements
    (DiffPoly); only `a` needs division.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    a = [list(map(Fraction, row)) for row in a]
    rhs = [list(col) for col in rhs_cols]
    nrhs = len(rhs)
    piv_of_col = {}
    used_rows = []
    for col in range(cols):
        pivot = next(
            (r for r in range(rows) if r not in used_rows and a[r][col]), None
        )
        if pivot is None:
            raise NoRationalSolution("column %d has no pivot" % col)
        piv_of_col[col] = pivot
        used_rows.append(pivot)
        inv = 1 / a[pivot][col]
        a[pivot] = [x * inv for x in a[pivot]]
        for k in range(nrhs):
            rhs[k][pivot] = rhs[k][pivot] * inv
        for r in range(rows):
            if r != pivot and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[pivot])]
                for k in range(nrhs):
                    rhs[k][r] = rhs[k][r] - rhs[k][pivot] * f
    for r in range(rows):
        if r not in used_rows:
            for k in range(nrhs):
                if rhs[k][r]:
                    raise NoRationalSolution("inconsistent system")
    out = []
    for k in range(nrhs):
        out.append([rhs[k][piv_of_col[c]] for c in range(cols)])
    return out


def rank(m):
    """Exact rank of a Fraction matrix."""
    if not m:
        return 0
    a = [list(map(Fraction, row)) for row in m]
    rows, cols = len(a), len(a[0])
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][col]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r
