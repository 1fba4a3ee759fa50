"""Exact matrix helpers shared across the package.

Matrices are plain lists of row lists.  Entries live in any commutative ring
with +, -, * (Fraction, DiffPoly, or normalized Liouvillian expressions);
routines that need division are restricted to Fraction entries.  The product
runs row by row over the non-zero entries, since the group elements it
multiplies are mostly zeros.  Echelon selects independent rows of sparse
integer vectors in one pass.
"""

from fractions import Fraction
from math import gcd

from .diffpoly import DiffPoly
from .errors import DimMismatch, NoRationalSolution


def zeros(n, zero=Fraction(0)):
    return [[zero for _ in range(n)] for _ in range(n)]


def eye(n, one=Fraction(1), zero=Fraction(0)):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_add(a, b):
    if len(a) != len(b):
        raise DimMismatch("matrix sizes differ")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    if len(a) != len(b):
        raise DimMismatch("matrix sizes differ")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def zero_of(x):
    """The zero of the ring x lives in; rationals give Fraction(0)."""
    return Fraction(0) if isinstance(x, (int, Fraction)) else type(x).zero()


def dot(xs, ys, zero):
    """The sum of x*y over the pairs, `zero` when every product vanishes.

    Over DiffPoly the products accumulate into one map (DiffPoly.dot)
    instead of a fresh polynomial per partial sum.
    """
    if isinstance(zero, DiffPoly):
        return DiffPoly.dot(zip(xs, ys))
    acc = None
    for x, y in zip(xs, ys):
        if x and y:
            term = x * y
            acc = term if acc is None else acc + term
    return zero if acc is None else acc


def mat_mul(a, b):
    """a b; an entry where every product vanishes is the zero of a's ring.

    Gustavson's row-by-row product (ACM TOMS 4, 1978): the non-zero (j, y)
    of each row k of b are listed once, and each non-zero a[i][k] adds
    a[i][k]*y into entry (i, j).  Every entry sums its products in ascending
    k, as the row-by-column dot product does, so the values and the
    Liouvillian normal forms are the same.  Over DiffPoly the products of an
    entry accumulate into one map (DiffPoly.dot).
    """
    n = len(a)
    if n != len(b):
        raise DimMismatch("matrix sizes differ")
    if not n:
        return []
    zero = zero_of(a[0][0])
    width = len(b[0])
    live = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    if isinstance(zero, DiffPoly):
        for row in a:
            pairs = {}
            for x, bk in zip(row, live):
                if x:
                    for j, y in bk:
                        pairs.setdefault(j, []).append((x, y))
            out.append(
                [DiffPoly.dot(pairs[j]) if j in pairs else zero for j in range(width)]
            )
        return out
    for row in a:
        acc = {}
        for x, bk in zip(row, live):
            if x:
                for j, y in bk:
                    term = x * y
                    acc[j] = term if j not in acc else acc[j] + term
        out.append([acc.get(j, zero) for j in range(width)])
    return out


def mat_is_zero(a):
    return all(not x for row in a for x in row)


def mat_eq(a, b):
    return mat_is_zero(mat_sub(a, b))


def derive(x):
    """The derivative of a ring element; rationals are constants."""
    return Fraction(0) if isinstance(x, (int, Fraction)) else x.derive()


def mat_derive(a):
    """Entrywise derivation."""
    return [[derive(x) for x in row] for row in a]


def bracket(a, b):
    """Commutator ab - ba."""
    if len(a) != len(b):
        raise DimMismatch("bracket of unequal sizes")
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


# ----- Fraction-only routines -----


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


class Echelon:
    """Greedy selection of independent integer rows, one fraction-free pass.

    Rows are sparse maps {column: int} with sortable column keys.  `add`
    accepts a row exactly when it is outside the span of the rows accepted
    so far, i.e. when rank(accepted + [row]) == len(accepted) + 1, without
    recomputing that rank.

    Proof.  Each accepted row is stored reduced, as (pivot column, row):
    when the k-th row is reduced it is zero at the pivot columns of rows
    1..k-1, and its pivot is one of its non-zero columns.  Reducing a new
    row v against stored row k replaces v by p v - v[c] r_k (c the pivot
    column of r_k, p = r_k[c] != 0), which is zero at c, keeps the zeros at
    the earlier pivot columns (r_k is zero there) and does not change
    whether v lies in the span S of the stored rows.  After the pass v is
    zero at every pivot column.  A non-zero vector of S has a non-zero
    entry at some pivot column: in sum a_k r_k take the least k with
    a_k != 0; every later row is zero at c_k, so the entry at c_k is
    a_k r_k[c_k] != 0.  Hence the reduced v is zero iff v was in S.  The
    accepted rows are independent by induction, so "v not in S" is
    "rank(accepted + [v]) == len(accepted) + 1", the test the rank-per-
    candidate selection made.  The elimination is fraction-free, in the
    style of Bareiss (Math. Comp. 22, 1968); dividing a stored row by the
    gcd of its entries keeps them small and changes no span.
    """

    def __init__(self):
        self._rows = []  # (pivot column, reduced row) in acceptance order

    def add(self, row):
        """Accept `row` iff it is independent of the accepted rows."""
        rest = {c: v for c, v in row.items() if v}
        for col, piv in self._rows:
            f = rest.get(col)
            if not f:
                continue
            p = piv[col]
            rest = {c: p * v for c, v in rest.items()}
            for c, v in piv.items():
                x = rest.get(c, 0) - f * v
                if x:
                    rest[c] = x
                else:
                    rest.pop(c, None)
        if not rest:
            return False
        g = gcd(*rest.values())
        if g != 1:
            rest = {c: v // g for c, v in rest.items()}
        self._rows.append((min(rest), rest))
        return True
