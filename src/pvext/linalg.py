"""Exact matrix helpers shared across the package.

Matrices are plain lists of row lists.  Entries live in any commutative ring
with +, -, * (Fraction, DiffPoly, or normalized Liouvillian expressions).
The product runs row by row over the non-zero entries, since the
matrices it multiplies are mostly zeros, and DiffPoly.dot hands back the
other factor of a lone product by a one as it is; a group letter acts on
a matrix through its cells instead (chevalley.letter_product), with the
same accumulator per entry.  The sum passes an operand through beside a
polynomial zero.  Sums of multiples of Chevalley-basis matrices are
chevalley.compose, over the cells of each basis matrix.  The identity
g' + g b = a g, which closes both the gauge normalization and the
end-to-end check, is tested by gauge_defect in one pass over the rows of
g: each entry of g' + g b - a g is summed in one accumulator and tested
for zero, and no product, derivative or difference matrix is formed (the
proof is in its docstring).  The rational linear algebra runs over
the integers: det, solve_exact and rational_inverse share one
fraction-free Gauss-Jordan pass over rows scaled to integers, and rank
counts the scaled rows that Echelon, a fraction-free selection of
independent sparse integer rows, accepts.
"""

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm

from .diffpoly import DiffPoly, _Sum
from .errors import DimMismatch, NoRationalSolution


_ZERO, _ONE = Fraction(0), Fraction(1)
_RATIONAL = (int, Fraction)


def zeros(n):
    return [[_ZERO] * n for _ in range(n)]


def eye(n):
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def _require_shape(a, b):
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        raise DimMismatch("matrix sizes differ")


def _add(x, y):
    """x + y; a zero of DiffPoly or LiouvExpr adds nothing to an operand of
    its own type, which is returned as it is.

    Proof that this is x + y in value, type and form.  DiffPoly's sum of 0
    and y copies y's reduced numerators in y's key order over y's
    denominator, which is y's own reduced map, and y + 0 copies y's map;
    LiouvExpr's sum copies the term map of the one side and adds nothing
    from the empty other.  A rational zero is not skipped: 0 + y can
    change y's type (int 0 and Fraction y, or Fraction 0 and int y).
    """
    if type(x) is type(y) and not isinstance(x, _RATIONAL):
        if not x:
            return y
        if not y:
            return x
    return x + y


def mat_add(a, b):
    _require_shape(a, b)
    return [[_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def zero_of(x):
    """The zero of the ring x lives in; rationals give Fraction(0)."""
    return _ZERO if isinstance(x, _RATIONAL) else type(x).zero()


def dot(pairs, zero):
    """The sum of x*y over the (x, y) pairs, `zero` when every product
    vanishes.

    Over DiffPoly the products accumulate into one map (DiffPoly.dot)
    instead of a fresh polynomial per partial sum.
    """
    if isinstance(zero, DiffPoly):
        return DiffPoly.dot(pairs)
    acc = None
    for x, y in pairs:
        if x and y:
            term = x * y
            acc = term if acc is None else acc + term
    return zero if acc is None else acc


def mat_mul(a, b):
    """a b; an entry where every product vanishes is the zero of the ring
    of a[0][0], or of b[0][0] when a[0][0] is rational, so a rational
    factor times a DiffPoly matrix has DiffPoly zeros.  DimMismatch unless
    every row of a has one entry per row of b and the rows of b have one
    length.

    Gustavson's row-by-row product (ACM TOMS 4, 1978): the non-zero (j, y)
    of each row k of b are listed once, and each non-zero a[i][k] adds
    a[i][k]*y into entry (i, j).  Every entry sums its products in ascending
    k, as the row-by-column dot product does, so the values and the
    Liouvillian normal forms are the same.  Over DiffPoly the products of an
    entry accumulate into one map (DiffPoly.dot).
    """
    width = len(b[0]) if b else 0
    if any(len(row) != len(b) for row in a) or any(len(row) != width for row in b):
        raise DimMismatch("columns of a differ from rows of b")
    if not a or not b:
        return [[] for _ in a]
    zero = zero_of(b[0][0] if isinstance(a[0][0], _RATIONAL) else a[0][0])
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


def mat_eq(a, b):
    """a == b, entry by entry, without building a - b.

    x == y is the test "not (x - y)": a Fraction is kept in lowest terms
    over a positive denominator, a DiffPoly as non-zero integer numerators
    over one positive reduced denominator, a LiouvExpr as a map onto
    non-zero DiffPoly coefficients, and == coerces a rational into the
    other ring, so x - y is zero exactly when the canonical forms agree.
    """
    _require_shape(a, b)
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def derive(x):
    """The derivative of a ring element; rationals are constants."""
    return _ZERO if isinstance(x, _RATIONAL) else x.derive()


def gauge_defect(g, b, a):
    """The first entry (r, c), in row-major order, where g' + g b - a g is
    not zero, or None when g' + g b = a g holds.  g is n x m, b is m x m
    and a is n x n, else DimMismatch; the entries are DiffPolys or
    rationals.

    No matrix is formed.  Each row of g and of b is listed once as its
    non-zero (column, entry) pairs, as in mat_mul.  Row r is then summed
    entry by entry, each entry (r, c) in one accumulator (diffpoly._Sum):
    g[r][c]' goes in through add_derivative, every product g[r][k] b[k][c]
    with sign + and every a[r][k] g[k][c] with sign - through add_pair.
    An entry is zero exactly when every accumulated numerator is 0, and
    one that no term reaches is zero; no result polynomial is built and
    nothing is normalized.

    Proof.  The accumulator holds the sum of the entry's terms as integer
    numerators on packed monomials over one positive common denominator:
    before a term over d is added the common denominator is scaled to a
    multiple of d, and the term adds its numerators times common / d.
    Distinct packed keys are distinct monomials, which are independent
    over Q, so the entry is zero iff every numerator is 0.  The rows are
    scanned in order and the entries of a row in ascending column, so the
    first entry found is the first (r, c), row by row, where g' + g b and
    a g differ: the one a row-major comparison of the two composed
    matrices finds.  The derivation keeps degrees, and add_product checks
    the degrees of each product it adds (_check_degrees), so
    ExponentOverflow comes only from a product g[r][k] b[k][c] or
    a[r][k] g[k][c] that really passes the limit, as in mat_mul.
    """
    n, m = len(g), len(b)
    if (
        len(a) != n
        or any(len(row) != n for row in a)
        or any(len(row) != m for row in g)
        or any(len(row) != m for row in b)
    ):
        raise DimMismatch("g' + g b - a g needs g n x m, b m x m and a n x n")
    live_g = [[(k, x) for k, x in enumerate(row) if x] for row in g]
    live_b = [[(c, y) for c, y in enumerate(row) if y] for row in b]
    for r, (row_g, row_a) in enumerate(zip(live_g, a)):
        acc = defaultdict(_Sum)
        for c, x in row_g:
            if isinstance(x, DiffPoly):
                acc[c].add_derivative(x)
            for j, y in live_b[c]:
                acc[j].add_pair(x, y)
        for k, x in enumerate(row_a):
            if x:
                for c, y in live_g[k]:
                    acc[c].add_pair(x, y, -1)
        for c in sorted(acc):
            if not acc[c].is_zero():
                return r, c
    return None


# ----- rational routines, computed over the integers -----


def _integer_row(row, extra=()):
    """(row + extra) times the lcm d of the denominators of its rational
    entries, and d: the rationals become ints, ring elements are multiplied
    by d."""
    dens = [x.denominator for x in row]
    d = lcm(*dens, *(x.denominator for x in extra if isinstance(x, _RATIONAL)))
    out = [x.numerator * (d // e) for x, e in zip(row, dens)]
    for x in extra:
        if isinstance(x, _RATIONAL):
            out.append(x.numerator * (d // x.denominator))
        else:
            out.append(x if d == 1 else x * d)
    return out, d


def _remove_content(row):
    """Divide a row by the gcd g of its int entries and return g (1 when
    the row has none or they are coprime); ring entries are multiplied by 1/g."""
    g = gcd(*(x for x in row if type(x) is int))
    if g > 1:
        inv = Fraction(1, g)
        row[:] = [x // g if type(x) is int else x * inv for x in row]
        return g
    return 1


def _reduce(a, extra=None):
    """Fraction-free Gauss-Jordan elimination of the rational matrix a; row
    i carries extra[i] along, and pivots lie in a only, so extra may hold
    DiffPolys.

    Returns the rows of [a | extra], each scaled to integers and reduced
    but not divided by its pivot, the pivot column of each leading row, and
    det(a) when a is square (0 when it is singular).  Entry j of leading
    row r stands for rows[r][j] / rows[r][pivots[r]]: dividing there, once
    per entry, gives the reduced row echelon form.

    Each row is first multiplied by the lcm of its rational denominators.
    A row update is m*row - k*pivot_row, with m > 0 and k the pivot p and
    the row's entry f in the pivot column divided by +-gcd(p, f); it visits
    only the row's non-zero entries and the pivot row's non-zero columns.
    A row that was multiplied by m != 1 is divided by the gcd of its
    integer entries, which keeps the entries small.

    Proof that this is the Gauss-Jordan pass over Fractions, which kept
    pivot rows scaled to 1 and replaced a row by row - f*(pivot_row / p).
    Both passes pick the same pivot (the first non-zero entry of the column
    among the rows not yet leading) and update the same rows in the same
    order, and by induction each row here is a non-zero scalar multiple of
    the same row there: scaling by the lcm, by m or by 1/g is multiplying
    by a non-zero rational, and m*row - k*pivot_row = m*(row - f*(pivot_row
    / p)) when both rows are multiples of theirs.  Multiples share their
    zero entries, so the pivots agree, and dividing each leading row by its
    pivot entry gives the unique reduced form, with the same values.  A
    DiffPoly entry is combined by the same +, - and scalar products in the
    same order, so its terms are stored in the same order too.  The
    determinant: the final coefficient block of a square full-rank a is
    diagonal, and det(final) = (-1)^swaps * prod(lcms) * prod(m) /
    prod(g) * det(a), each factor a row swap or scaling.

    The pivot order changes no result below.  Rank, determinant, inverse
    and the solution of a full-column-rank system are unique.  Column c
    gets no pivot, in any Gauss-Jordan order, exactly when it lies in the
    span of columns 0..c-1: row moves keep the relations among columns, and
    in the reduced form a pivotless column is the combination of the
    earlier pivot columns given by its entries, while a pivot column has a
    1 where they have 0.  So the first column without a pivot is the same
    in every order.

    Raises DimMismatch unless the rows of a have one length.
    """
    width = len(a[0]) if a else 0
    if any(len(row) != width for row in a):
        raise DimMismatch("matrix rows have unequal lengths")
    rows, num, den = [], 1, 1
    for row, e in zip(a, extra or [()] * len(a)):
        row, d = _integer_row(row, e)
        rows.append(row)
        den *= d
    pivots = []
    for col in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            num = -num
        prow = rows[r]
        piv = prow[col]
        live = [(c, prow[c]) for c in range(col, len(prow)) if prow[c]]
        for i, row in enumerate(rows):
            f = row[col]
            if not f or i == r:
                continue
            g = gcd(piv, f) if piv > 0 else -gcd(piv, f)
            m, k = piv // g, f // g
            if m != 1:
                row[:] = [m * x if x else x for x in row]
                den *= m
            for c, y in live:
                row[c] -= k * y
            if m != 1:
                num *= _remove_content(row)
        pivots.append(col)
    if len(pivots) != len(rows) or len(rows) != width:
        return rows, pivots, _ZERO
    for i, row in enumerate(rows):
        num *= row[i]
    return rows, pivots, Fraction(num, den)


def _divide(x, p):
    """x / p for a non-zero int p: a Fraction for an int x, else x * (1/p)."""
    if type(x) is int:
        return Fraction(x, p) if x else _ZERO
    return x * Fraction(1, p)


def _require_square(m):
    if any(len(row) != len(m) for row in m):
        raise DimMismatch("matrix is not square")


def rational_inverse(m):
    """Exact inverse of an invertible rational matrix; the identity block
    rides along as ints."""
    _require_square(m)
    n = len(m)
    rows, pivots, _ = _reduce(m, [[int(i == j) for j in range(n)] for i in range(n)])
    if len(pivots) < n:
        raise NoRationalSolution("matrix is singular")
    return [[_divide(x, row[i]) for x in row[n:]] for i, row in enumerate(rows)]


def det(m):
    """Exact determinant of a square rational matrix."""
    _require_square(m)
    return _reduce(m)[2]


def solve_exact(a, rhs_cols):
    """Solve a x = b for each column b in rhs_cols.

    The rational matrix `a` (possibly rectangular) must have full column
    rank and the system must be consistent, else NoRationalSolution.  Each
    column b must have one entry per row of `a`, else DimMismatch.  The
    right-hand sides may hold DiffPolys; only `a` needs division.
    """
    if any(len(b) != len(a) for b in rhs_cols):
        raise DimMismatch("right-hand side length differs from %d rows" % len(a))
    cols = len(a[0]) if a else 0
    rows, pivots, _ = _reduce(a, list(zip(*rhs_cols)))
    if len(pivots) < cols:
        col = next((c for c, p in enumerate(pivots) if c != p), len(pivots))
        raise NoRationalSolution("column %d has no pivot" % col)
    if any(x for row in rows[cols:] for x in row[cols:]):
        raise NoRationalSolution("inconsistent system")
    return [[_divide(row[cols + k], row[r]) for r, row in enumerate(rows[:cols])]
            for k in range(len(rhs_cols))]


def rank(m):
    """Exact rank of a rational matrix.

    Each row is multiplied by the lcm of its denominators, which keeps the
    rank, and the rank is the number of rows Echelon.add accepts: its
    docstring proves that it accepts a row exactly when the row raises the
    rank of the rows accepted before it.  Raises DimMismatch unless the
    rows have one length.
    """
    width = len(m[0]) if m else 0
    if any(len(row) != width for row in m):
        raise DimMismatch("matrix rows have unequal lengths")
    echelon = Echelon()
    return sum(
        echelon.add({c: x for c, x in enumerate(_integer_row(row)[0]) if x}) for row in m
    )


class Echelon:
    """Greedy selection of independent integer rows, one fraction-free pass.

    Rows are sparse maps {column: int} with sortable column keys.  `add`
    accepts a row exactly when it is outside the span of the rows accepted
    so far, i.e. when rank(accepted + [row]) == len(accepted) + 1, without
    recomputing that rank.

    Proof.  Each accepted row is stored reduced, as (pivot column, row):
    when the k-th row is reduced it is zero at the pivot columns of rows
    1..k-1, and its pivot is one of its non-zero columns.  Reducing a new
    row v against stored row k replaces v by m v - q r_k, where c is the
    pivot column of r_k and m > 0 and q are p = r_k[c] != 0 and v[c]
    divided by +-gcd(p, v[c]); this is zero at c, keeps the zeros at
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
            g = gcd(p, f) if p > 0 else -gcd(p, f)
            m, k = p // g, f // g
            if m != 1:
                rest = {c: m * v for c, v in rest.items()}
            for c, v in piv.items():
                x = rest.get(c, 0) - k * v
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
