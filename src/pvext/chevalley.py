"""Concrete Chevalley bases and one-parameter subgroup elements.

For each supported root system this module builds integer matrices for the
Cartan generators H_i and all root vectors X_alpha in a faithful defining
representation, derives the W-basis and the complementary roots, and
provides u_alpha(x), its adjoint action exp(x ad X_alpha) and its gauge on
coordinates, t_i(z) and the characters chi_beta by which the torus scales
root vectors, a letter's action on a matrix through its cells
(letter_product and letter_adjoint) and with it the matrix of a word of
letters (word_element), and the Weyl representatives n(w) as products of
the simple representatives, each read as signed columns by taking the unit
vectors through its three letters' cells in ints.  Every Chevalley axiom is
checked exhaustively at build time: with sparse integer brackets, each
formed in one pass, for the pairs of root vectors whose supports meet, as
a zero bracket for the other pairs, and cell by cell for the Cartan
generators.  The build and the sweep handle roots as coefficient vectors
and the integer codes of rootsys: whether a sum of roots is 0 or a root,
the string lengths and the Cartan pairings come from the root system's
tables.  The coordinates of the W_i are read off
the checked structure constants.  The kernels visit only non-zero cells:
u_alpha(x) and the letter kernels those of the divided powers of X_alpha
(and a torus letter its integer diagonal), and decompose_in_basis
and its inverse compose those of the basis matrices (rep.cells), where a
root vector owns its off-diagonal cells and the H_i hold the diagonal.

Sign flips for non-simple root vectors are loaded from a calibration table
(see data/calibration.json), which lists only the roots whose sign is -1;
every other root keeps the sign produced by the bracket recursion.
"""

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce
from importlib import resources
from operator import itemgetter, mul

from . import linalg, rootsys
from .errors import (
    DimMismatch,
    NonDiagonalCartan,
    NotInLieAlgebra,
    SpanFailure,
    StructureViolation,
    UnsupportedRep,
)


@lru_cache(maxsize=None)
def _load_calibration():
    """The parsed calibration table, read once per process; build_rep only
    reads it."""
    ref = resources.files("pvext").joinpath("data/calibration.json")
    return json.loads(ref.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class ChevalleyRep:
    """A root system together with concrete matrices for its Chevalley basis."""

    rs: rootsys.RootSystem
    dim: int
    H: tuple  # l diagonal matrices of ints
    X: dict  # root coeffs tuple -> matrix of ints
    # (a, b) coeffs -> the int N = +-(r + 1) with [X_a, X_b] = N X_(a+b);
    # unipotent_adjoint reads it to act by exp(t ad X) on coordinates
    nconst: dict
    # coordinates of W_i = [X_i, A_0^+] over basis_order, read off nconst
    # by _w_coordinates; indexed like neg_order
    w_coefficients: tuple
    exp_cells: dict  # root coeffs -> the (r, c, k, p) with p = (X^k/k!)[r][c] != 0, k >= 1
    basis_order: tuple  # ("H", i) / ("X", coeffs) in decomposition order
    cells: dict  # basis key -> the (r, c, v) with v = M[r][c] != 0, in row-major order
    solve_positions: tuple  # the entries r * dim + c that decompose_in_basis reads
    cartan_solve: tuple  # per H_i, the (r, w != 0): its coordinate is sum w a[r][r]

    @property
    def rank(self):
        return self.rs.rank

    @property
    def m(self):
        return self.rs.m

    def x_neg(self, i):
        """X_i for the i-th ordered negative root, 1-based."""
        return self.X[self.rs.neg_order[i - 1].coeffs]

    def a0_plus(self, s=None):
        return self._a0(+1, s)

    def a0_minus(self, s=None):
        return self._a0(-1, s)

    def _a0(self, sign, s):
        l = self.rank
        values = [Fraction(1)] * l if s is None else [Fraction(v) for v in s]
        if len(values) != l:
            raise DimMismatch("%d principal nilpotent coefficients for rank %d" % (len(values), l))
        if any(not v for v in values):
            raise ValueError("principal nilpotent coefficients must be nonzero")
        roots = [self.rs.simple(i) for i in range(1, l + 1)]
        if sign < 0:
            roots = [self.rs.negative(r) for r in roots]
        return compose(self, {("X", r.coeffs): v for r, v in zip(roots, values)}, Fraction(0))

# ----- simple generators per type -----


def _simple_generators(rs):
    """(dim, E, F) with E[i], F[i] the sparse matrices of the simple root vectors."""
    l = rs.rank
    t = rs.type_label
    if t == "A":
        n = l + 1
        E = [_entries([(i, i + 1, 1)]) for i in range(l)]
        F = [_entries([(i + 1, i, 1)]) for i in range(l)]
        return n, E, F
    if t == "C":
        n = 2 * l
        # basis: eps_1..eps_l, -eps_l..-eps_1
        E, F = [], []
        for i in range(l - 1):
            E.append(_entries([(i, i + 1, 1), (2 * l - 2 - i, 2 * l - 1 - i, -1)]))
            F.append(_entries([(i + 1, i, 1), (2 * l - 1 - i, 2 * l - 2 - i, -1)]))
        E.append(_entries([(l - 1, l, 1)]))
        F.append(_entries([(l, l - 1, 1)]))
        return n, E, F
    if t == "B":
        n = 2 * l + 1
        # basis: eps_1..eps_l, 0, -eps_l..-eps_1
        E, F = [], []
        for i in range(l - 1):
            E.append(_entries([(i, i + 1, 1), (2 * l - 1 - i, 2 * l - i, -1)]))
            F.append(_entries([(i + 1, i, 1), (2 * l - i, 2 * l - 1 - i, -1)]))
        E.append(_entries([(l - 1, l, 1), (l, l + 1, 2)]))
        F.append(_entries([(l, l - 1, 2), (l + 1, l, 1)]))
        return n, E, F
    if t == "D":
        n = 2 * l
        # basis: eps_1..eps_l, -eps_l..-eps_1
        E, F = [], []
        for i in range(l - 1):
            E.append(_entries([(i, i + 1, 1), (2 * l - 2 - i, 2 * l - 1 - i, -1)]))
            F.append(_entries([(i + 1, i, 1), (2 * l - 1 - i, 2 * l - 2 - i, -1)]))
        E.append(_entries([(l - 2, l, 1), (l - 1, l + 1, -1)]))
        F.append(_entries([(l, l - 2, 1), (l + 1, l - 1, -1)]))
        return n, E, F
    if t == "G2":
        # 7-dimensional representation; basis: v1 of weight 0, then the
        # weight vectors 2a1+a2, -a1, -a1-a2, -2a1-a2, a1, a1+a2.
        n = 7
        e1 = _entries([(0, 2, 1), (5, 0, -2), (3, 4, 1), (1, 6, -1)])
        f1 = _entries([(2, 0, 2), (0, 5, -1), (4, 3, 1), (6, 1, -1)])
        e2 = _entries([(2, 3, -1), (6, 5, 1)])
        f2 = _entries([(3, 2, -1), (5, 6, 1)])
        return n, [e1, e2], [f1, f2]
    raise UnsupportedRep("no representation for type %s" % t)


def _is_diagonal(m):
    return all(i == j or not x for i, row in enumerate(m) for j, x in enumerate(row))


# ----- sparse integer matrices -----
#
# build_rep and the axiom sweep work on sparse integer matrices: a dict
# row -> {col: int} holding exactly the non-zero entries, with no empty
# rows.  Two such maps are equal iff the matrices are, and all arithmetic
# on them is exact.  The ChevalleyRep fields H and X are dense lists of the
# same ints, built by _dense.


def _entries(triples):
    out = {}
    for r, c, v in triples:
        out.setdefault(r, {})[c] = v
    return out


def _dense(n, a):
    """The n x n list of ints with the entries of the sparse map a."""
    out = [[0] * n for _ in range(n)]
    for i, row in a.items():
        for j, v in row.items():
            out[i][j] = v
    return out


def _sp_mul(a, b):
    out = {}
    for i, row in a.items():
        acc = {}
        for k, x in row.items():
            for j, y in b.get(k, {}).items():
                acc[j] = acc.get(j, 0) + x * y
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out


def _sp_add(a, b, s=1):
    """a + s b."""
    out = {i: dict(row) for i, row in a.items()}
    for i, row in b.items():
        acc = out.setdefault(i, {})
        for j, v in row.items():
            x = acc.get(j, 0) + s * v
            if x:
                acc[j] = x
            else:
                acc.pop(j, None)
        if not acc:
            del out[i]
    return out


def _sp_scale(a, c):
    if not c:
        return {}
    return {i: {j: c * v for j, v in row.items()} for i, row in a.items()}


def _sp_divide(a, k, what):
    """a / k; SpanFailure unless every entry is divisible by k."""
    if any(v % k for row in a.values() for v in row.values()):
        raise SpanFailure("%s is not integral" % what)
    return {i: {j: v // k for j, v in row.items()} for i, row in a.items()}


def _sp_bracket(a, b):
    """[a, b] = a b - b a in one pass: the products of a b and the negated
    ones of b a add into one accumulator per entry, and the zero entries are
    dropped at the end.  Each entry is the exact integer sum of those
    products, so the map holds the non-zero entries of the bracket, as
    _sp_mul and _sp_add would give them."""
    acc = {}
    for i, row in a.items():
        for k, v in row.items():
            other = b.get(k)
            if other:
                out = acc.setdefault(i, {})
                for j, w in other.items():
                    out[j] = out.get(j, 0) + v * w
    for i, row in b.items():
        for k, v in row.items():
            other = a.get(k)
            if other:
                out = acc.setdefault(i, {})
                for j, w in other.items():
                    out[j] = out.get(j, 0) - v * w
    out = {}
    for i, row in acc.items():
        kept = {j: v for j, v in row.items() if v}
        if kept:
            out[i] = kept
    return out


def _sp_combination(mats, coeffs):
    acc = {}
    for c, m in zip(coeffs, mats):
        if c:
            acc = _sp_add(acc, m, c)
    return acc


def _cells(a):
    """The non-zero entries of a sparse matrix as {(row, col): int}."""
    return {(i, j): v for i, row in a.items() for j, v in row.items()}


# ----- build -----


def build_rep(type_label, rank):
    """Build the calibrated Chevalley representation of a (type, rank) pair.

    The returned representation carries the finalized negative-root
    ordering, with complementary roots installed.
    """
    rs = rootsys.build_root_system(type_label, rank)
    calibration = _load_calibration().get(rs.label, {})
    signs = {
        tuple(int(v) for v in key.split(",")): int(value)
        for key, value in calibration.items()
    }

    n, E, F = _simple_generators(rs)
    l = rs.rank
    sh = [_sp_bracket(E[i], F[i]) for i in range(l)]
    coroots = _coroot_matrices(rs, sh)

    sx = {}
    for i in range(l):
        alpha = rs.simple(i + 1)
        sx[alpha.coeffs] = E[i]
        sx[rs.negative(alpha).coeffs] = F[i]

    # bracket recursion over positive roots of ascending height
    positives = sorted(
        (r for r in rs.roots if r.height() > 0), key=lambda r: (r.height(), r.coeffs)
    )
    for gamma in positives:
        g, ng = gamma.coeffs, rs.negative(gamma).coeffs
        if g in sx:
            continue
        alpha, beta = _decomposition_step(rs, g)
        r, _ = rootsys.root_string(rs, beta, alpha)
        sign = signs.get(g, 1)
        xg = _sp_divide(
            _sp_scale(_sp_bracket(sx[alpha], sx[beta]), sign), r + 1, "root vector for %r" % (g,)
        )
        xn = _sp_divide(
            _sp_scale(_sp_bracket(sx[_negated(alpha)], sx[_negated(beta)]), -sign),
            r + 1,
            "root vector for %r" % (ng,),
        )
        if not xg or not xn:
            raise SpanFailure("vanishing root vector for %r" % (g,))
        hg = coroots[g]
        br = _sp_bracket(xg, xn)
        if br == hg:
            pass
        elif br == _sp_scale(hg, -1):
            xn = _sp_scale(xn, -1)
        else:
            raise SpanFailure("[X,Y] not proportional to the coroot for %r" % (g,))
        sx[g] = xg
        sx[ng] = xn

    nconst = _verify_axioms(rs, sh, sx, coroots)
    X = {coeffs: _dense(n, mat) for coeffs, mat in sx.items()}
    exp_cells = {coeffs: _divided_power_cells(mat, n) for coeffs, mat in sx.items()}

    # W_b = [X_b, A_0^+]; complementary roots against the provisional
    # ordering, then the cells and the W coordinates for the final one
    a0 = _sp_combination([sx[rs.simple(i + 1).coeffs] for i in range(l)], [1] * l)
    w = {b.coeffs: _sp_bracket(sx[b.coeffs], a0) for b in rs.neg_order}
    rs = rootsys.finalize_order(rs, _complementary_root_values(rs, sx, w))
    basis_order = [("H", i + 1) for i in range(l)]
    basis_order += [("X", b.coeffs) for b in rs.neg_order]
    basis_order += [("X", (-b).coeffs) for b in rs.neg_order]
    mats = [sh[key - 1] if kind == "H" else sx[key] for kind, key in basis_order]
    cells = {key: tuple((*rc, v) for rc, v in sorted(_cells(mat).items()))
             for key, mat in zip(basis_order, mats)}
    rows, cartan_solve = _cartan_solve(sh, n)
    positions = [r * (n + 1) for r in rows]
    positions += [cells[key][0][0] * n + cells[key][0][1] for key in basis_order[l:]]
    rep = ChevalleyRep(
        rs=rs,
        dim=n,
        H=tuple(_dense(n, h) for h in sh),
        X=X,
        nconst=nconst,
        w_coefficients=(),
        exp_cells=exp_cells,
        basis_order=tuple(basis_order),
        cells=cells,
        solve_positions=tuple(sorted(positions)),
        cartan_solve=cartan_solve,
    )
    rep = replace(rep, w_coefficients=_w_coordinates(rep))
    _verify_w_basis(rep, w, sx)
    return rep


def _negated(coeffs):
    return tuple(-k for k in coeffs)


def _decomposition_step(rs, gamma):
    """(alpha_i, gamma - alpha_i) as coefficient vectors for the minimal
    simple index i with gamma - alpha_i a root, for the coefficients of a
    positive root gamma.  Such a difference is a positive root: its
    coefficients are gamma's but one, lowered by 1, so it has no negative
    coefficient but -1, and a root with a -1 and otherwise 0 would make
    gamma 0.  The codes decide whether it is a root (rootsys codes)."""
    code = rs.codes[gamma]
    for i in range(rs.rank):
        beta = rs.root_of_code.get(code - (1 << 4 * i))
        if beta is not None:
            return rs.simple(i + 1).coeffs, beta
    raise SpanFailure("no descent for %r" % (gamma,))


def _coroot_coefficients(rs, root):
    """The integer coefficients of the coroot H_root over H_1, ..., H_l.

    For root = sum c_j alpha_j and d_j = (alpha_j, alpha_j)/2, the coroot
    2 root/(root, root) is sum_j (c_j d_j / d) alpha_j^vee with
    d = (root, root)/2, so coefficient j is 2 c_j d_j / (root, root).  And
    (root, root) = sum_j c_j (alpha_j, root) = sum_j c_j d_j <root, alpha_j>,
    the pairing read from rs.pairings; every quantity is an integer, and a
    remainder raises SpanFailure.  So does a norm (root, root) <= 0: the
    form is positive definite, so that norm means the lengths are not the
    root system's.
    """
    weighted = [cj * dj for cj, dj in zip(root.coeffs, rs.root_lengths())]
    norm = sum(w * p for w, p in zip(weighted, rs.pairings[root.coeffs]))
    if norm <= 0:
        raise SpanFailure("root norm %d of %r is not positive" % (norm, root))
    out = []
    for w in weighted:
        q, r = divmod(2 * w, norm)
        if r:
            raise SpanFailure("non-integral coroot coefficient for %r" % (root,))
        out.append(q)
    return tuple(out)


def _divided_power_cells(mat, n):
    """The non-zero entries (r, c, k, p), p = (X^k/k!)[r][c], of the divided
    powers X, X^2/2!, ... of the sparse X = mat, in (r, c) order; every
    power must be integral, and X^(n+1) zero."""
    cells = []
    cur, k = mat, 1
    while cur:
        if k > n:
            raise SpanFailure("root vector is not nilpotent")
        cells += [(r, c, k, p) for r, row in cur.items() for c, p in row.items()]
        k += 1
        cur = _sp_divide(_sp_mul(cur, mat), k, "divided power %d" % k)
    return tuple(sorted(cells))


def _coroot_matrices(rs, sh):
    """Root coefficients -> the sparse coroot H_root, the combination of the
    H_i in sh with the _coroot_coefficients of root, for every root; the
    coefficients of -root are those of root negated, so H_-root = -H_root."""
    out = {}
    for r in rs.roots:
        if r.height() > 0:
            out[r.coeffs] = _sp_combination(sh, _coroot_coefficients(rs, r))
            out[rs.negative(r).coeffs] = _sp_scale(out[r.coeffs], -1)
    return out


def _verify_axioms(rs, sh, sx, coroots):
    """Exhaustive Chevalley-basis checks; returns the structure constants.

    sh (the list of H_i) and sx (root coefficients -> X_root) hold sparse
    integer maps, the ones build_rep builds and _dense copies verbatim
    into the ChevalleyRep, and coroots is _coroot_matrices(rs, sh), which
    build_rep also reads in its recursion.
    The checks, for all roots a, b and all i, j:

    - H_i is diagonal, and [H_i, H_j] = 0;
    - [H_i, X_a] = <a, a_i> X_a, the pairing read from rs.pairings;
    - [X_a, X_-a] = H_a, the combination of the H_i from the coroot;
    - [X_a, X_b] = N X_(a+b) with |N| = r + 1 when a + b is a root, where
      b - r a, ..., b + q a is the a-string through b; N is returned as
      the int nconst[(a, b)];
    - [X_a, X_b] = 0 when a + b is neither 0 nor a root.

    The identities are checked with sparse integer maps.  This checks
    them exactly as dense brackets would: a map holds precisely the
    non-zero entries, integer sums and products are exact, and two maps are
    equal iff the matrices are.  The roots are handled as their
    coefficient vectors and integer codes throughout, so the sweep builds
    no Root.

    [H_i, X_a] is checked cell by cell.  For a diagonal H with entries h_r,
    (H X)[r][c] = h_r X[r][c] and (X H)[r][c] = X[r][c] h_c, so
    [H, X][r][c] = (h_r - h_c) X[r][c].  Off the cells of X both sides of
    [H, X] = p X are zero, and on a cell, where X[r][c] != 0, they agree
    iff h_r - h_c = p, the test made.

    The bracket of two root vectors is multiplied out only for a chained
    unordered pair {a, b}: one where some column of a non-zero entry of
    X_a is the row of a non-zero entry of X_b, or the other way round.
    (X_a X_b)[r][c] = sum_k X_a[r][k] X_b[k][c] has a non-zero product only
    when column k of X_a and row k of X_b both hold one; so for a pair that
    is not chained X_a X_b = X_b X_a = 0 and [X_a, X_b] = 0 exactly.  The
    identities of such a pair are then those of the zero bracket: they
    hold when a + b is neither 0 nor a root, and otherwise _check_bracket
    is run on the empty map, which is that zero bracket, and raises as a
    multiplied-out zero would.  Whether a + b is a root or 0 is read off
    the integer codes of the roots (rootsys RootSystem.codes).  A chained
    pair has br = X_a X_b - X_b X_a formed once, and _check_bracket checks
    the identities of both ordered pairs on it.
    """
    l = rs.rank
    for i, h in enumerate(sh):
        if any(set(row) != {r} for r, row in h.items()):
            raise SpanFailure("H_%d is not diagonal" % (i + 1))
    for i in range(l):
        for j in range(l):
            if _sp_bracket(sh[i], sh[j]):
                raise SpanFailure("[H_%d, H_%d] != 0" % (i + 1, j + 1))
    diagonals = [{r: row[r] for r, row in h.items()} for h in sh]
    keys = [root.coeffs for root in rs.roots]
    rows, cols = {}, {}
    for x in keys:
        mat = sx[x]
        for i, (h, p) in enumerate(zip(diagonals, rs.pairings[x])):
            if any(h.get(r, 0) - h.get(c, 0) != p for r, row in mat.items() for c in row):
                raise SpanFailure("[H_%d, X_%r] is off" % (i + 1, x))
        rows[x] = set(mat)
        cols[x] = set().union(*mat.values())
    code = rs.codes
    bracketed = rs.root_of_code.keys() | {0}
    nconst = {}
    for k, x in enumerate(keys):
        rows_x, cols_x = rows[x], cols[x]
        for y in keys[k:]:
            if not cols_x.isdisjoint(rows[y]) or not cols[y].isdisjoint(rows_x):
                br = _sp_bracket(sx[x], sx[y])
            elif code[x] + code[y] in bracketed:
                br = {}
            else:
                continue
            _check_bracket(rs, coroots, sx, x, y, br, nconst)
    return nconst


def _check_bracket(rs, coroots, sx, a, b, br, nconst):
    """The identities of the ordered pair (a, b) of coefficient vectors on
    br = [X_a, X_b], then for b != a those of (b, a) on [X_b, X_a] =
    X_b X_a - X_a X_b = -br.  Whether a + b is 0 or a root is read off the
    codes, and r by rootsys.root_string on them.

    -br is formed only for a + b = 0, where it is compared with H_b.  When
    a + b is a root, -br is proportional to X_(a+b) iff br is, and
    _proportionality(-br, X_(a+b)) is (-p, q) for br's (p, q): it takes p
    at the first entry of X_(a+b), which -br negates, and each test
    got * q == p * t holds for br iff its negation does for -br.  So (b, a)
    is tested on the ratio (-p, q), against the r of the b-string through
    a.  When a + b is neither, -br vanishes iff br does, which is the test
    made; this is the only branch a = b reaches, 2a being no root.
    """
    total = rs.codes[a] + rs.codes[b]
    if not total:
        for x, got in ((a, br), (b, _sp_scale(br, -1))):
            if got != coroots[x]:
                raise SpanFailure("[X_a, X_-a] != H_a for %r" % (x,))
    elif total in rs.root_of_code:
        ratio = _proportionality(br, sx[rs.root_of_code[total]])
        if ratio is None:
            raise SpanFailure(
                "[X_%r, X_%r] not proportional to X_sum" % (a, b)
            )
        p, q = ratio
        for x, y, p in ((a, b, p), (b, a, -p)):
            r, _ = rootsys.root_string(rs, y, x)
            if p % q or abs(p // q) != r + 1:
                raise SpanFailure(
                    "|N| = %s != r+1 = %d for %r, %r" % (Fraction(p, q), r + 1, x, y)
                )
            nconst[(x, y)] = p // q
    elif br:
        raise SpanFailure("[X_%r, X_%r] should vanish" % (a, b))


def _proportionality(mat, target):
    """The ints (p, q), q != 0, with mat == (p/q) * target for sparse integer
    maps, or None.  With p/q the ratio at the first entry of target, mat ==
    (p/q) target iff both have the same cells and q mat[i][j] == p
    target[i][j] at each of them, a test in integers."""
    if mat.keys() != target.keys():
        return None
    p = q = None
    for i, row in target.items():
        got = mat[i]
        if got.keys() != row.keys():
            return None
        for j, t in row.items():
            if q is None:
                p, q = got[j], t
            elif got[j] * q != p * t:
                return None
    return (0, 1) if q is None else (p, q)


def _cartan_solve(sh, n):
    """The diagonal rows that decompose_in_basis reads for the H_i, and per
    H_i the (r, w != 0) pairs of its row of their inverse.

    The rows are the first l, in order, whose weights (H_1[r][r], ...,
    H_l[r][r]) are independent; one linalg.Echelon pass over these
    l-vectors decides it, by the proof in its docstring, and SpanFailure
    is raised when fewer than l are.  With D the l x l matrix of their
    weights, D^-1 is the one rational_inverse of build_rep, and the
    coordinates c of the H_i in a diagonal with entries d_r, which are
    sum_i c_i H_i[r][r] = d_r, are c = D^-1 (d_r) over the chosen rows.
    """
    weights = [[h.get(r, {}).get(r, 0) for h in sh] for r in range(n)]
    echelon = linalg.Echelon()
    rows = [r for r in range(n) if echelon.add(dict(enumerate(weights[r])))]
    if len(rows) != len(sh):
        raise SpanFailure("Chevalley basis is not linearly independent")
    inverse = linalg.rational_inverse([weights[r] for r in rows])
    return rows, tuple(tuple((r, w) for r, w in zip(rows, row) if w) for row in inverse)


def _complementary_root_values(rs, X, W):
    """The complementary roots, chosen in the order of rs.neg_order.

    X and W map a root's coefficients to the sparse matrices X_root and
    W_root = [X_root, A_0^+].  Per level, the W of the level below must be
    independent, and root vectors of the level are added greedily while
    they stay independent (one linalg.Echelon pass per level).
    """
    comp = []
    for q, members in rs.bands.items():
        sources = rs.band(q - 1)
        span = linalg.Echelon()
        if not all(span.add(_cells(W[rs.neg_order[k - 1].coeffs])) for k in sources):
            raise SpanFailure("W vectors at height %d are dependent" % q)
        need = len(members) - len(sources)
        got = 0
        for k in reversed(members):
            if got == need:
                break
            b = rs.neg_order[k - 1]
            if span.add(_cells(X[b.coeffs])):
                comp.append(b)
                got += 1
        if got != need:
            raise SpanFailure("cannot complete level %d" % q)
    if len(comp) != rs.rank:
        raise SpanFailure("expected %d complementary roots, found %d" % (rs.rank, len(comp)))
    return comp


def _w_coordinates(rep):
    """The coordinates of each W_b = [X_b, A_0^+] over rep.basis_order, b
    in neg_order, as decompose_in_basis(rep, W_b) returns them: one
    Fraction per key.

    A_0^+ is the sum of the X_alpha_i, so W_b = sum_i [X_b, X_alpha_i], and
    _bracket_with reads each of those brackets off the identities that
    _verify_axioms checked on the matrices: the coroot H_b over the H_j
    when b = -alpha_i, nconst[(b, alpha_i)] X_(b+alpha_i) when b + alpha_i
    is a root, and 0 otherwise.  Adding them gives W_b as a combination of
    basis matrices.  These coordinates are the only ones: the root vectors
    own disjoint off-diagonal cells and the H_i the diagonal, where
    build_rep finds l independent rows (or raises SpanFailure), so the
    basis matrices are linearly independent (decompose_in_basis), and a
    matrix in their span has one combination.  decompose_in_basis solves
    for that combination, so the two agree key for key.
    """
    simples = [("X", rep.rs.simple(i).coeffs) for i in range(1, rep.rank + 1)]
    out = []
    for b in rep.rs.neg_order:
        coords = dict.fromkeys(rep.basis_order, Fraction(0))
        for simple in simples:
            for key, n in _bracket_with(rep, b, simple):
                coords[key] += n
        out.append(coords)
    return tuple(out)


def _verify_w_basis(rep, W, X):
    """{W_i} plus the complementary root vectors spans b^- with full rank,
    and the per-height non-complementary blocks are square invertible.

    W and X map a root's coefficients to the sparse integer matrices W_root
    and X_root; rep.X holds the latter densely and rep.w_coefficients the
    coordinates of the former.  The full-rank test feeds
    their cells to one linalg.Echelon: the cells of a matrix are the
    non-zero entries of its flattened vector, keyed by (row, column) for
    row * n + column, which relabels the columns and keeps the rank, and
    the number of vectors Echelon accepts is their rank, by the proof in
    its docstring.

    One decomposition then checks the coordinates that _w_coordinates read
    off the structure constants against the matrices: the sum of the W_b
    must decompose to the sum of their coordinates.  Decomposition is
    linear, so the two agree when every W_b's coordinates are right, and a
    single wrong coordinate makes them differ.
    """
    rs = rep.rs
    vectors = [W[b.coeffs] for b in rs.neg_order]
    vectors += [X[rs.neg_order[idx - 1].coeffs] for idx in rs.comp_roots]
    span = linalg.Echelon()
    if sum(span.add(_cells(v)) for v in vectors) != rs.m + rs.rank:
        raise SpanFailure("W basis of b^- has deficient rank")
    total = _sp_combination([W[b.coeffs] for b in rs.neg_order], [1] * rs.m)
    want = dict.fromkeys(rep.basis_order, 0)
    for coords in rep.w_coefficients:
        for key, c in coords.items():
            if c:
                want[key] += c
    if decompose_in_basis(rep, _dense(rep.dim, total)) != want:
        raise SpanFailure("the W coordinates do not sum to those of the summed W")
    for q, members in rs.bands.items():
        sources = rs.band(q - 1)
        if not sources:
            continue
        noncomp_members = [i for i in members if i not in rs.comp_roots]
        coeff = []
        for k in sources:
            decomposed = rep.w_coefficients[k - 1]
            coeff.append([decomposed[("X", rs.neg_order[i - 1].coeffs)] for i in noncomp_members])
        if len(coeff) != len(noncomp_members):
            raise SpanFailure("height %d block is not square" % q)
        if coeff and linalg.rank(coeff) != len(coeff):
            raise SpanFailure("height %d block is singular" % q)


# ----- basis decomposition -----


def decompose_in_basis(rep, a):
    """Coefficients of a matrix over {H_i} and {X_alpha}.

    Returns a dict keyed by ("H", i) and ("X", coeffs) in rep.basis_order;
    raises NotInLieAlgebra when the matrix is not in the span, and
    DimMismatch unless it is rep.dim x rep.dim.  Coefficients live in the
    entry domain of `a`.

    Cells.  _verify_axioms checks [H_i, X_b] = <b, a_i> X_b at each cell
    (r, c) of X_b as H_i[r][r] - H_i[c][c] = <b, a_i>.  These l pairings fix
    b, the Cartan matrix being invertible, and are all 0 for no root; so a
    cell belongs to one root vector at most, and the diagonal to none.

    Proof.  If a = sum_k c_k M_k, then a[r][c] = c_b v at the first cell
    (r, c, v) of X_b, and a[r][r] = sum_i c_i H_i[r][r] is solved at the
    rows of rep.cartan_solve (_cartan_solve).  The non-zero X_b on disjoint
    cells and the H_i, independent on those rows, are independent, so these
    c are the only candidates, and a is in the span iff compose(rep, c,
    zero) equals a.  The check runs in row-major order and names the first
    entry that differs.  Where no term reaches, compose leaves `zero`
    itself, and zero != x iff x is non-zero (a Fraction, DiffPoly or
    LiouvExpr equals a ring zero iff its value is zero): x's truth is tested.

    rep.solve_positions are the cells that a row-major greedy selection of
    independent rows of basis entries keeps: the first cell of X_b holds
    the row v e_b and its later cells repeat it, and a diagonal row, with
    no X entry, is new when its weights are.  So the selected block is
    diagonal in X beside the H block, and its inverse holds the lone
    Fraction(1, v) that linalg.dot forms c_b with, and the H block's inverse.
    """
    n = rep.dim
    if len(a) != n or any(len(row) != n for row in a):
        raise DimMismatch("matrix is not %d x %d" % (n, n))
    zero = linalg.zero_of(next((e for row in a for e in row if e), Fraction(0)))
    coeffs = {}
    for key, pairs in zip(rep.basis_order, rep.cartan_solve):
        coeffs[key] = linalg.dot([(a[r][r], w) for r, w in pairs], zero)
    for key in rep.basis_order[rep.rank:]:
        r, c, v = rep.cells[key][0]
        coeffs[key] = linalg.dot([(a[r][c], _reciprocal(v))], zero)
    for i, (row, recon) in enumerate(zip(a, compose(rep, coeffs, zero))):
        for j, (x, y) in enumerate(zip(row, recon)):
            if x if y is zero else y != x:
                raise NotInLieAlgebra("entry (%d, %d) is outside the span" % (i, j))
    return coeffs


@lru_cache(maxsize=None)
def _reciprocal(v):
    """Fraction(1, v), made once per int v: basis entries are a few small ints."""
    return Fraction(1, v)


def compose(rep, coords, zero):
    """The matrix sum of c M over a {basis key: coefficient} map, each c in
    the ring of `zero`; the inverse of decompose_in_basis.

    Each non-zero c puts c v at each cell (r, c, v) of its key, c itself
    when v = 1, and a cell no term reaches holds `zero` itself.  An
    off-diagonal cell belongs to one root vector at most and the diagonal
    to the H_i alone (decompose_in_basis), so an off-diagonal cell gets one
    term, and the diagonal adds the H terms in basis order, the H_i first.
    """
    n = rep.dim
    out = [[zero] * n for _ in range(n)]
    for key in rep.basis_order:
        c = coords.get(key)
        if c:
            for r, col, v in rep.cells[key]:
                term = c if v == 1 else c * v
                row = out[r]
                row[col] = term if row[col] is zero else row[col] + term
    return out


# ----- group elements -----


def _cell_values(rep, coeffs, x):
    """The (r, c, k, x^k p) of the cells (r, c, k, p) of rep.exp_cells[coeffs],
    in (r, c) order, for a non-zero x: x^k itself when p = 1, each power of
    x formed once, by repeated products with x."""
    cells = rep.exp_cells[coeffs]
    xk = [linalg.zero_of(x) + 1]
    for _ in range(max(k for _, _, k, _ in cells)):
        xk.append(xk[-1] * x)
    return [(r, c, k, xk[k] if p == 1 else xk[k] * p) for r, c, k, p in cells]


def unipotent_element(rep, root, x):
    """exp(x X_root) for a Root: the finite sum of x^k X_root^k / k! over
    the divided powers of X_root, the one of x's ring on the diagonal.

    Each (r, c, k, p) of rep.exp_cells[root] puts x^k p at (r, c), and no
    place gets two terms: the H_i are diagonal, so the basis vectors are
    weight vectors, X_root raises weights by root, and a non-zero
    (X^k/k!)[r][c] needs the weight of r to be that of c plus k root, which
    fixes k (k = 0 only on the diagonal).  So entry (r, c) of the sum is
    the single term x^k p at a cell (x^k itself when p = 1), the ring's one
    on the diagonal and its zero elsewhere, and every off-diagonal entry
    is zero when x = 0.
    """
    zero = linalg.zero_of(x)
    one = zero + 1
    out = [[zero] * rep.dim for _ in range(rep.dim)]
    for i, row in enumerate(out):
        row[i] = one
    if x:
        for r, c, _, value in _cell_values(rep, root.coeffs, x):
            out[r][c] = value
    return out


def _bracket_with(rep, root, key):
    """[X_root, M] for the basis element M of `key`, as (key, int) pairs:
    -<root, a_i> X_root for H_i, the coroot of root over the H_j for
    X_-root, N X_(root+g) for X_g with N = rep.nconst[(root, g)], and
    nothing when root + g is neither 0 nor a root.  _verify_axioms checked
    every one of these brackets on the matrices."""
    kind, value = key
    rs = rep.rs
    if kind == "H":
        n = -rs.pairings[root.coeffs][value - 1]
        return ((("X", root.coeffs), n),) if n else ()
    n = rep.nconst.get((root.coeffs, value))
    if n:
        return ((("X", rs.root_of_code[rs.codes[root.coeffs] + rs.codes[value]]), n),)
    if rs.codes[root.coeffs] + rs.codes[value]:
        return ()
    return tuple((("H", j), c) for j, c in enumerate(_coroot_coefficients(rs, root), 1) if c)


def unipotent_adjoint(rep, root, t, coords):
    """Ad(u_root(t)) on coordinates: the coordinates of u A u^-1, for
    u = exp(t X_root) and A with the {basis key: coefficient} map `coords`
    (decompose_in_basis's keys; a missing key is a zero coefficient).
    Coefficients and t share one ring, and zeros are left out.

    It is sum_k t^k/k! ad(X)^k (A), X = X_root.  Proof: with L(A) = X A
    and R(A) = A X, ad X = L - R, and L and R commute (both sides are
    X A X).  X is nilpotent, so exp(tX) A exp(-tX) = exp(tL) exp(-tR) A,
    both series finite, and for commuting maps exp(tL) exp(-tR) =
    exp(t(L - R)) = exp(t ad X), whose series is finite too: ad X is
    L - R with L, R commuting and nilpotent.  X is constant, so ad X is
    linear over the coefficient ring, and on coordinates it is the linear
    map of _bracket_with; the k-th term is formed as ad X of the (k-1)-th
    times t/k, one product with t per coordinate, until it is zero.
    """
    zero = linalg.zero_of(t)
    out = dict(coords)
    term, k = coords, 0
    while term:
        k += 1
        step = t * Fraction(1, k)
        pairs = {}
        for key, c in term.items():
            if c:
                for target, n in _bracket_with(rep, root, key):
                    pairs.setdefault(target, []).append((n, c))
        term = {}
        for key, row in pairs.items():
            value = linalg.dot(row, zero)
            if value:
                term[key] = value * step
                out[key] = out[key] + term[key] if key in out else term[key]
    return {key: c for key, c in out.items() if c}


def unipotent_gauge(rep, root, t, coords):
    """gauge(u, A) = Ad(u)(A) + ldelta(u) on coordinates, u = u_root(t), as
    Ad(u)(A + t' X) by unipotent_adjoint: ldelta(u) = t' X for X = X_root,
    and Ad(u) fixes X, as ad X (X) = [X, X] = 0.

    ldelta(u) = u' u^-1 = t' X: X is constant and nilpotent, so exp(tX) =
    sum_k t^k X^k / k! is a finite sum, and term by term (exp(tX))' =
    sum_k k t^(k-1) t' X^k / k! = t' X exp(tX), since X^k commutes with
    t' X."""
    key = ("X", root.coeffs)
    return unipotent_adjoint(rep, root, t, {**coords, key: coords.get(key, 0) + linalg.derive(t)})


def _torus_exponents(rep, i):
    """The integer diagonal h_j of H_i; NonDiagonalCartan unless H_i is
    diagonal."""
    h = rep.H[i - 1]
    if not _is_diagonal(h):
        raise NonDiagonalCartan("H_%d is not diagonal" % i)
    return [h[j][j] for j in range(rep.dim)]


def _torus_diagonal(rep, i, z):
    """(h, d): the integer diagonal h_j of H_i and the diagonal d_j = z^h_j
    of t_i(z), each distinct power of z formed once, an int z taken as a
    Fraction."""
    exponents = _torus_exponents(rep, i)
    if isinstance(z, int):
        z = Fraction(z)
    powers = {k: z ** k for k in dict.fromkeys(exponents)}
    return exponents, [powers[k] for k in exponents]


def torus_element(rep, i, z):
    """t_i(z) = diag(z^{(H_i)_jj}) for an invertible scalar z."""
    _, entries = _torus_diagonal(rep, i, z)
    zero = linalg.zero_of(z)
    n = rep.dim
    return [[entries[r] if r == c else zero for c in range(n)] for r in range(n)]


def character(rs, z, beta):
    """chi_beta(z) = prod_j z_j^<beta, alpha_j>, in the ring of the z_j
    (Fraction or LiouvExpr), by which Ad(t(z)) scales X_beta for the
    coefficient vector beta; t(z) = t_1(z_1) ... t_l(z_l).

    Proof.  H_j is diagonal with integer entries h_r, so t_j(z_j) =
    diag(z_j^h_r) and Ad(t_j(z_j)) multiplies entry (r, s) of X_beta by
    z_j^(h_r - h_s).  Entry (r, s) of [H_j, X_beta] is (h_r - h_s)
    X_beta[r][s], and build_rep checks [H_j, X_beta] = <beta, alpha_j>
    X_beta; so X_beta is non-zero only where h_r - h_s = <beta, alpha_j>,
    and Ad(t_j(z_j)) X_beta = z_j^<beta, alpha_j> X_beta.  The t_j(z_j)
    are diagonal and commute, and Ad(t(z)) is the composite of theirs.
    Ad(t(z)) fixes each H_i, as diagonal matrices commute.
    """
    return reduce(mul, (zj ** rootsys.pairing(rs.cartan, beta, j) for j, zj in enumerate(z)))


# ----- letters acting on matrices -----


def _lines(cells, one, by_row=False, inverse=False):
    """The lines of u = u_b(t) through its cells, from _cell_values' cells
    of a non-zero t, or of u^-1 for `inverse`: each column c of u with a
    cell maps to its non-zero entries (r, u[r][c]) in ascending r, the
    diagonal one included; with `by_row`, each row r with a cell to its
    (k, u[r][k]) in ascending k.

    u = unipotent_element(rep, b, t) has `one` on the diagonal, x^k p at
    each cell and no other non-zero entry, so the other lines are the
    identity's.  u^-1 = u_b(-t): tX and -tX commute, so exp(tX) exp(-tX)
    = exp(0) = 1, and (-t)^k p = (-1)^k t^k p negates the cells of odd k.
    """
    lines = {}
    for r, c, k, value in cells:
        if inverse and k % 2:
            value = -value
        lines.setdefault(r if by_row else c, []).append((c if by_row else r, value))
    for j, line in lines.items():
        line.append((j, one))
        line.sort(key=itemgetter(0))
    return lines


def _product_zero(a00, b00):
    """The zero linalg.mat_mul(a, b) gives an entry that no product reaches:
    that of a[0][0]'s ring, or of b[0][0]'s when a[0][0] is rational."""
    return linalg.zero_of(b00 if isinstance(a00, (int, Fraction)) else a00)


def _column_operations(m, lines, zero):
    """m L for the matrix L whose columns other than the identity's are
    `lines` (as _lines gives them), as linalg.mat_mul(m, L) forms it when
    m's entries are of the type of `zero`, mat_mul's zero for m L; m
    itself when there are no such lines.

    Entry (i, c) of m L sums m[i][k] L[k][c] over the non-zero L[k][c] of
    column c in ascending k, the diagonal one included, in one linalg.dot:
    the pairs, their order and the accumulator of linalg.mat_mul(m, L),
    whose non-DiffPoly sum is linalg.dot's and whose DiffPoly sum is
    DiffPoly.dot of the same pairs, the zero factors left out as mat_mul
    leaves them out, and an entry with no pair left is `zero`, as there.
    So those entries are mat_mul's in value, type and term order.  In any
    other column c, L[c][c] is a one (the ring's one, or z^0) and the
    column's only entry, so mat_mul's entry is m[i][c] * one, or its zero
    when m[i][c] is zero: m[i][c] itself in value, and in type and term
    order too when m[i][c] is of the type of `zero`.  DiffPoly.dot hands a DiffPoly back as it is beside a rational
    or DiffPoly one, a LiouvExpr times the one of any ring is that
    LiouvExpr, and a Fraction times Fraction(1) is that Fraction; a zero of
    the type of `zero` is that zero.
    """
    if not lines:
        return m
    out = []
    for row in m:
        new = list(row)
        for c, line in lines.items():
            pairs = [(row[k], y) for k, y in line if row[k]]
            new[c] = linalg.dot(pairs, zero) if pairs else zero
        out.append(new)
    return out


def letter_product(rep, m, letter):
    """m L for a matrix m with rep.dim columns and the matrix L of a letter
    (key, t), without forming L (_column_operations).  When m's entries
    are all of the type of linalg.mat_mul(m, L)'s zero (that of m's ring,
    or of t's when m's is rational), it is mat_mul(m, L) in value, type
    and term order; its values are right for any m.  A root letter u_b(t)
    differs from the identity in the columns through its cells, none when
    t = 0, when m itself is returned, and t_i(z) = diag(z^h_j) in the
    columns with h_j != 0."""
    (kind, v), t = letter
    if kind == "H":
        exponents, diagonal = _torus_diagonal(rep, v, t)
        lines = {j: [(j, d)] for j, (e, d) in enumerate(zip(exponents, diagonal)) if e}
        return _column_operations(m, lines, _product_zero(m[0][0], diagonal[0]))
    if not t:
        return m
    one = linalg.zero_of(t) + 1
    return _column_operations(m, _lines(_cell_values(rep, v, t), one), _product_zero(m[0][0], one))


def letter_adjoint(rep, letter, m):
    """Ad(L)(m) = L m L^-1 for a rep.dim x rep.dim matrix m and the matrix L
    of a letter (key, t), without forming L or L^-1.  When m's entries are
    all of the type of linalg.mat_mul(L, m)'s zero (that of m's ring, or
    of t's when m's is rational), it is
    linalg.mat_mul(linalg.mat_mul(L, m), L^-1) in value, type and term
    order; its values are right for any m.  A root letter with t = 0
    returns m itself.

    A root letter u = u_b(t) acts by row operations, then column
    operations.  Row r of u m is row r of m when row r of u is the
    identity's (the argument of _column_operations, with the one on the
    left); otherwise entry (r, c) sums u[r][k] m[k][c] over row r's
    non-zero u[r][k] in ascending k, in one linalg.dot, with mat_mul's
    pairs in mat_mul's order.  The rows of u m are of the type of that
    zero again, which is mat_mul's zero for (u m) u^-1 too, and (u m) u^-1
    is _column_operations over the lines of u^-1 (_lines).

    A torus letter t_i(z) = diag(z^h_j) scales entry (r, c) by
    z^(h_r - h_c): (t m t^-1)[r][c] = z^h_r m[r][c] z^-h_c, and the powers
    of an invertible z multiply by adding exponents.  The product
    z^(h_r - h_c) m[r][c] is formed once per non-zero entry with
    h_r != h_c, in one linalg.dot, and each power once; the other entries
    stay as they are.
    """
    (kind, v), t = letter
    if kind == "H":
        exponents = _torus_exponents(rep, v)
        z = Fraction(t) if isinstance(t, int) else t
        zero = _product_zero(z, m[0][0])
        powers = {}
        out = []
        for hr, row in zip(exponents, m):
            new = list(row)
            for c, (hc, x) in enumerate(zip(exponents, row)):
                if hr != hc and x:
                    e = hr - hc
                    if e not in powers:
                        powers[e] = z ** e
                    new[c] = linalg.dot([(powers[e], x)], zero)
            out.append(new)
        return out
    if not t:
        return m
    one = linalg.zero_of(t) + 1
    zero = _product_zero(one, m[0][0])
    cells = _cell_values(rep, v, t)
    um = list(m)
    for r, line in _lines(cells, one, by_row=True).items():
        um[r] = new = []
        for c in range(rep.dim):
            pairs = [(y, m[k][c]) for k, y in line if m[k][c]]
            new.append(linalg.dot(pairs, zero) if pairs else zero)
    return _column_operations(um, _lines(cells, one, inverse=True), zero)


def word_element(rep, word):
    """The matrix of a non-empty word of letters (key, t), the product of
    the letters' matrices in the word's order: the first letter's matrix,
    unipotent_element for ("X", coeffs) and torus_element for ("H", i),
    times each later letter by letter_product, left to right.  When each
    letter's t is rational or of the first letter's ring, as in every
    word of pvext, the entries stay of that ring, and this is the
    linalg.mat_mul product of the letters' matrices in value, type and
    term order."""
    ((kind, v), t), *rest = word
    m = torus_element(rep, v, t) if kind == "H" else unipotent_element(rep, rootsys.Root(v), t)
    for letter in rest:
        m = letter_product(rep, m, letter)
    return m


def _unipotent_apply(cells, x, v):
    """u v for u = exp(x X) with the exp_cells `cells` of X and an int x,
    and a vector v as its {row: non-zero int} map: u is the identity plus
    x^k p at each cell (r, c, k, p) (unipotent_element), so (u v)[r] is
    v[r] plus the x^k p v[c] of the cells in row r."""
    out = dict(v)
    for r, c, k, p in cells:
        y = v.get(c)
        if y:
            out[r] = out.get(r, 0) + x ** k * p * y
    return {r: y for r, y in out.items() if y}


def _simple_columns(rep, i):
    """n(w_i) = u_{alpha_i}(1) u_{-alpha_i}(-1) u_{alpha_i}(1) as the (row,
    sign) of each column (_signed_columns): column j is n(w_i) e_j, the unit
    vector e_j taken through the three letters, rightmost first, by
    _unipotent_apply on ints."""
    alpha = rep.rs.simple(i)
    up, down = rep.exp_cells[alpha.coeffs], rep.exp_cells[rep.rs.negative(alpha).coeffs]
    columns = []
    for j in range(rep.dim):
        v = {j: 1}
        for cells, x in ((up, 1), (down, -1), (up, 1)):
            v = _unipotent_apply(cells, x, v)
        columns.append(v)
    return _signed_columns(columns)


def _signed_columns(columns):
    """(row, sign) of the one non-zero entry of each column, for columns
    given as {row: non-zero entry} maps; StructureViolation unless every
    column holds one entry, +-1, and no two share a row.  Those are the
    signed permutation matrices: n columns on n distinct rows leave one
    entry in each row too."""
    out = tuple(next(iter(col.items())) for col in columns if len(col) == 1)
    rows = {r for r, s in out if s == 1 or s == -1}
    if len(out) != len(columns) or len(rows) != len(out):
        raise StructureViolation("n(w) is not a signed permutation matrix")
    return out


def weyl_representative(rep, word):
    """n(w) = n(w_{i_1}) ... n(w_{i_k}) for a word of 1-based simple indices,
    as the (row, sign) of its one entry +-1 in each column; each distinct
    n(w_i) is read once by _simple_columns, whose _signed_columns checks
    that it is a signed permutation: n(w) maps the weight line of mu to that
    of w(mu), and the weights of the basis vectors, read off the H_i
    diagonals, are pairwise distinct in every supported representation (a
    test checks them all), so each line is one basis vector.  If P holds
    p_r at (q_r, r) and S holds s_j at (r_j, j), column j of P S is s_j
    times column r_j of P, s_j p_{r_j} at row q_{r_j}; since j -> r_j and
    r -> q_r are bijections, P S is again a signed permutation, composed on
    the columns."""
    simple = {i: _simple_columns(rep, i) for i in dict.fromkeys(word)}
    out = tuple((j, 1) for j in range(rep.dim))
    for i in word:
        out = tuple((out[r][0], s * out[r][1]) for r, s in simple[i])
    return out


def weyl_adjoint(nw, m):
    """Ad(N)(M) = N M N^-1 for N given as weyl_representative's columns
    (r_j, s_j): entry (r_i, r_j) is M[i][j] when s_i = s_j, else -M[i][j].

    (N N^T)[a][b] = sum_i N[a][i] N[b][i] is s_i^2 = 1 for a = b = r_i and 0
    otherwise, so N^-1 = N^T; of (N M N^T)[a][b] = sum_{i,j} N[a][i] M[i][j]
    N[b][j] only s_i s_j M[i][j] is left, for the i, j with r_i = a, r_j = b.
    """
    # (i, s_i) for the i with r_i = a, in the order of the rows a
    back = [(i, s) for _, i, s in sorted((r, i, s) for i, (r, s) in enumerate(nw))]
    return [[m[i][j] if s == t else -m[i][j] for j, t in back] for i, s in back]
