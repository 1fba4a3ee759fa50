"""Concrete Chevalley bases and one-parameter subgroup elements.

For each supported root system this module builds integer matrices for the
Cartan generators H_i and all root vectors X_alpha in a faithful defining
representation, derives the W-basis and the complementary roots, and
provides the group elements u_alpha(x), t_i(z) and the Weyl representatives
n(w).  Every Chevalley axiom is checked exhaustively at build time.

Sign conventions for the non-simple root vectors are loaded from a
calibration table (see data/calibration.json); roots without an entry keep
the sign produced by the bracket recursion.
"""

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import linalg, rootsys
from .errors import (
    NonDiagonalCartan,
    NotInLieAlgebra,
    SpanFailure,
    UnsupportedRep,
)


def _load_calibration():
    path = os.environ.get("PV_CALIBRATION")
    if path:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    ref = resources.files("pvext").joinpath("data/calibration.json")
    return json.loads(ref.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class ChevalleyRep:
    """A root system together with concrete matrices for its Chevalley basis."""

    rs: rootsys.RootSystem
    dim: int
    H: tuple  # l diagonal integer matrices
    X: dict  # root coeffs tuple -> integer matrix
    nconst: dict  # (coeffs, coeffs) -> Fraction structure constant
    W: tuple  # W_i = [X_i, A_0^+], indexed like neg_order
    exp_powers: dict  # root coeffs -> tuple of X^k/k! matrices
    solve_positions: tuple  # entry positions used by decompose_in_basis
    solve_inverse: tuple  # exact inverse extracting basis coefficients
    basis_order: tuple  # ("H", i) / ("X", coeffs) in decomposition order

    @property
    def rank(self):
        return self.rs.rank

    @property
    def m(self):
        return self.rs.m

    def x_neg(self, i):
        """X_i for the i-th ordered negative root, 1-based."""
        return self.X[self.rs.neg_order[i - 1].coeffs]

    def x_root(self, root):
        return self.X[root.coeffs]

    def a0_plus(self, s=None):
        return self._a0(+1, s)

    def a0_minus(self, s=None):
        return self._a0(-1, s)

    def _a0(self, sign, s):
        l = self.rank
        values = [Fraction(1)] * l if s is None else [Fraction(v) for v in s]
        if any(not v for v in values):
            raise ValueError("principal nilpotent coefficients must be nonzero")
        acc = linalg.zeros(self.dim)
        for i in range(1, l + 1):
            root = self.rs.simple(i) if sign > 0 else -self.rs.simple(i)
            acc = linalg.mat_add(acc, linalg.mat_scale(self.X[root.coeffs], values[i - 1]))
        return acc

    def w_coefficients(self, k):
        """decompose_in_basis(W_k) for 1-based k, computed once per rep."""
        cache = getattr(self, "_w_coefficients_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_w_coefficients_cache", cache)
        if k not in cache:
            cache[k] = decompose_in_basis(self, self.W[k - 1])
        return cache[k]

    def cartan_combination(self, coeffs):
        """The integer matrix sum(c_i H_i)."""
        return _cartan_combination(self.H, coeffs)

    def coroot_coefficients(self, root):
        """Integer coefficients of H_root over H_1..H_l."""
        return _coroot_coefficients(self.rs, root)


# ----- simple generators per type -----


def _simple_generators(rs):
    """(dim, E, F) with E[i], F[i] the matrices of the simple root vectors."""
    l = rs.rank
    t = rs.type_label
    if t == "A":
        n = l + 1
        E = [_entries(n, [(i, i + 1, 1)]) for i in range(l)]
        F = [_entries(n, [(i + 1, i, 1)]) for i in range(l)]
        return n, E, F
    if t == "C":
        n = 2 * l
        # basis: eps_1..eps_l, -eps_l..-eps_1
        E, F = [], []
        for i in range(l - 1):
            E.append(_entries(n, [(i, i + 1, 1), (2 * l - 2 - i, 2 * l - 1 - i, -1)]))
            F.append(_entries(n, [(i + 1, i, 1), (2 * l - 1 - i, 2 * l - 2 - i, -1)]))
        E.append(_entries(n, [(l - 1, l, 1)]))
        F.append(_entries(n, [(l, l - 1, 1)]))
        return n, E, F
    if t == "B":
        n = 2 * l + 1
        # basis: eps_1..eps_l, 0, -eps_l..-eps_1
        E, F = [], []
        for i in range(l - 1):
            E.append(_entries(n, [(i, i + 1, 1), (2 * l - 1 - i, 2 * l - i, -1)]))
            F.append(_entries(n, [(i + 1, i, 1), (2 * l - i, 2 * l - 1 - i, -1)]))
        E.append(_entries(n, [(l - 1, l, 1), (l, l + 1, 2)]))
        F.append(_entries(n, [(l, l - 1, 2), (l + 1, l, 1)]))
        return n, E, F
    if t == "D":
        n = 2 * l
        # basis: eps_1..eps_l, -eps_l..-eps_1
        E, F = [], []
        for i in range(l - 1):
            E.append(_entries(n, [(i, i + 1, 1), (2 * l - 2 - i, 2 * l - 1 - i, -1)]))
            F.append(_entries(n, [(i + 1, i, 1), (2 * l - 1 - i, 2 * l - 2 - i, -1)]))
        E.append(_entries(n, [(l - 2, l, 1), (l - 1, l + 1, -1)]))
        F.append(_entries(n, [(l, l - 2, 1), (l + 1, l - 1, -1)]))
        return n, E, F
    if t == "G2":
        # 7-dimensional representation; basis ordered to match the fixed
        # Weyl representatives: v1 of weight 0, then the weight vectors
        # 2a1+a2, -a1, -a1-a2, -2a1-a2, a1, a1+a2.
        n = 7
        e1 = _entries(n, [(0, 2, 1), (5, 0, -2), (3, 4, 1), (1, 6, -1)])
        f1 = _entries(n, [(2, 0, 2), (0, 5, -1), (4, 3, 1), (6, 1, -1)])
        e2 = _entries(n, [(2, 3, -1), (6, 5, 1)])
        f2 = _entries(n, [(3, 2, -1), (5, 6, 1)])
        return n, [e1, e2], [f1, f2]
    raise UnsupportedRep("no representation for type %s" % t)


def _entries(n, triples):
    m = linalg.zeros(n)
    for r, c, v in triples:
        m[r][c] = Fraction(v)
    return m


def _diag_of(m):
    return [m[i][i] for i in range(len(m))]


def _is_diagonal(m):
    return all(i == j or not x for i, row in enumerate(m) for j, x in enumerate(row))


# ----- build -----


def build_rep(rs_or_type, rank=None):
    """Build the calibrated Chevalley representation for a root system.

    Accepts a RootSystem (with or without complementary data) or a
    (type, rank) pair.  The returned representation carries the finalized
    negative-root ordering, with complementary roots installed.
    """
    if isinstance(rs_or_type, rootsys.RootSystem):
        rs = rs_or_type
    else:
        rs = rootsys.build_root_system(rs_or_type, rank)
    calibration = _load_calibration().get(rs.label, {})
    signs = {
        tuple(int(v) for v in key.split(",")): int(value)
        for key, value in calibration.items()
        if "," in key
    }

    n, E, F = _simple_generators(rs)
    l = rs.rank
    H = [linalg.bracket(E[i], F[i]) for i in range(l)]
    for i in range(l):
        if not _is_diagonal(H[i]):
            raise SpanFailure("H_%d is not diagonal" % (i + 1))

    X = {}
    for i in range(l):
        X[rs.simple(i + 1).coeffs] = E[i]
        X[(-rs.simple(i + 1)).coeffs] = F[i]

    # bracket recursion over positive roots of ascending height
    positives = sorted(
        (r for r in rs.roots if r.height() > 0), key=lambda r: (r.height(), r.coeffs)
    )
    for gamma in positives:
        if gamma.coeffs in X:
            continue
        i, beta = _decomposition_step(rs, gamma)
        r, _ = rootsys.root_string(rs, beta, rs.simple(i))
        scale = Fraction(1, r + 1)
        sign = signs.get(gamma.coeffs, 1)
        xg = linalg.mat_scale(
            linalg.bracket(X[rs.simple(i).coeffs], X[beta.coeffs]), scale * sign
        )
        xn = linalg.mat_scale(
            linalg.bracket(X[(-rs.simple(i)).coeffs], X[(-beta).coeffs]), -scale * sign
        )
        if linalg.mat_is_zero(xg) or linalg.mat_is_zero(xn):
            raise SpanFailure("vanishing root vector for %r" % (gamma,))
        hg = _coroot_matrix(rs, H, gamma)
        br = linalg.bracket(xg, xn)
        if linalg.mat_eq(br, hg):
            pass
        elif linalg.mat_eq(br, linalg.mat_neg(hg)):
            xn = linalg.mat_neg(xn)
        else:
            raise SpanFailure("[X,Y] not proportional to the coroot for %r" % (gamma,))
        X[gamma.coeffs] = _as_integer(xg, "root vector for %r" % (gamma,))
        X[(-gamma).coeffs] = _as_integer(xn, "root vector for %r" % (-gamma,))

    nconst = _verify_axioms(rs, H, X)
    exp_powers = {
        coeffs: _divided_powers(mat) for coeffs, mat in X.items()
    }

    # W basis and complementary roots against the provisional ordering
    rep0 = _assemble(rs, n, H, X, nconst, exp_powers)
    comp = _complementary_root_values(rep0)
    rs_final = rootsys.finalize_order(rs, comp)
    rep = _assemble(rs_final, n, H, X, nconst, exp_powers)
    _verify_w_basis(rep)
    return rep


def _decomposition_step(rs, gamma):
    """Minimal simple index i with gamma - alpha_i a positive root."""
    for i in range(1, rs.rank + 1):
        diff = tuple(g - s for g, s in zip(gamma.coeffs, rs.simple(i).coeffs))
        if min(diff) >= 0 and any(diff) and diff in rs._root_set:
            return i, rootsys.Root(diff)
    raise SpanFailure("no descent for %r" % (gamma,))


def _coroot_coefficients(rs, root):
    d_root = rs.inner(root, root) / 2
    d = rs.root_lengths()
    out = []
    for j in range(rs.rank):
        c = Fraction(root.coeffs[j]) * d[j] / d_root
        if c.denominator != 1:
            raise SpanFailure("non-integral coroot coefficient for %r" % (root,))
        out.append(int(c))
    return tuple(out)


def _cartan_combination(H, coeffs):
    acc = linalg.zeros(len(H[0]))
    for c, h in zip(coeffs, H):
        acc = linalg.mat_add(acc, linalg.mat_scale(h, Fraction(c)))
    return acc


def _coroot_matrix(rs, H, root):
    return _cartan_combination(H, _coroot_coefficients(rs, root))


def _as_integer(mat, what):
    if any(Fraction(x).denominator != 1 for row in mat for x in row):
        raise SpanFailure("%s is not integral" % what)
    return mat


def _divided_powers(mat):
    """I, X, X^2/2!, ... until zero; asserts integrality of every power."""
    n = len(mat)
    powers = [linalg.eye(n)]
    cur = linalg.eye(n)
    k = 0
    while True:
        k += 1
        cur = linalg.mat_scale(linalg.mat_mul(cur, mat), Fraction(1, k))
        if linalg.mat_is_zero(cur):
            break
        if k > n:
            raise SpanFailure("root vector is not nilpotent")
        powers.append(_as_integer(cur, "divided power %d" % k))
    return tuple(powers)


def _verify_axioms(rs, H, X):
    """Exhaustive Chevalley-basis checks; returns the structure constants."""
    l = rs.rank
    for i in range(l):
        for j in range(l):
            if not linalg.mat_is_zero(linalg.bracket(H[i], H[j])):
                raise SpanFailure("[H_%d, H_%d] != 0" % (i + 1, j + 1))
    for root in rs.roots:
        mat = X[root.coeffs]
        for i in range(l):
            want = linalg.mat_scale(
                mat, Fraction(rootsys.cartan_integer(rs, root, rs.simple(i + 1)))
            )
            if not linalg.mat_eq(linalg.bracket(H[i], mat), want):
                raise SpanFailure("[H_%d, X_%r] is off" % (i + 1, root.coeffs))
    nconst = {}
    roots = list(rs.roots)
    for a in roots:
        for b in roots:
            br = linalg.bracket(X[a.coeffs], X[b.coeffs])
            total = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
            if all(v == 0 for v in total):
                want = _coroot_matrix(rs, H, a)
                if not linalg.mat_eq(br, want):
                    raise SpanFailure("[X_a, X_-a] != H_a for %r" % (a.coeffs,))
                continue
            if total in rs._root_set:
                target = X[total]
                coeff = _proportionality(br, target)
                if coeff is None:
                    raise SpanFailure(
                        "[X_%r, X_%r] not proportional to X_sum" % (a.coeffs, b.coeffs)
                    )
                r, _ = rootsys.root_string(rs, b, a)
                if abs(coeff) != r + 1:
                    raise SpanFailure(
                        "|N| = %s != r+1 = %d for %r, %r"
                        % (coeff, r + 1, a.coeffs, b.coeffs)
                    )
                nconst[(a.coeffs, b.coeffs)] = coeff
            else:
                if not linalg.mat_is_zero(br):
                    raise SpanFailure(
                        "[X_%r, X_%r] should vanish" % (a.coeffs, b.coeffs)
                    )
    return nconst


def _proportionality(mat, target):
    """c with mat == c * target, or None."""
    c = None
    for row_m, row_t in zip(mat, target):
        for x, t in zip(row_m, row_t):
            if t:
                cand = Fraction(x) / Fraction(t)
                if c is None:
                    c = cand
                elif c != cand:
                    return None
            elif x:
                return None
    return c if c is not None else Fraction(0)


def _assemble(rs, n, H, X, nconst, exp_powers):
    basis_order = [("H", i + 1) for i in range(rs.rank)]
    basis_order += [("X", b.coeffs) for b in rs.neg_order]
    basis_order += [("X", (-b).coeffs) for b in rs.neg_order]
    mats = [H[key - 1] if kind == "H" else X[key] for kind, key in basis_order]
    flat = [[row[j] for row in mat for j in range(n)] for mat in mats]
    columns = list(zip(*flat))  # n^2 rows, one per entry position
    positions, inverse = _solving_recipe(columns, n)
    rep = ChevalleyRep(
        rs=rs,
        dim=n,
        H=tuple(H),
        X=dict(X),
        nconst=dict(nconst),
        W=(),
        exp_powers=dict(exp_powers),
        solve_positions=tuple(positions),
        solve_inverse=tuple(tuple(row) for row in inverse),
        basis_order=tuple(basis_order),
    )
    object.__setattr__(rep, "W", compute_W(rep))
    return rep


def _solving_recipe(columns, n):
    """Pick entry positions making the basis square-invertible."""
    b = len(columns[0])
    chosen = []
    chosen_rows = []
    for pos in range(n * n):
        if len(chosen) == b:
            break
        trial = chosen_rows + [columns[pos]]
        if linalg.rank(trial) == len(trial):
            chosen.append(pos)
            chosen_rows.append(columns[pos])
    if len(chosen) != b:
        raise SpanFailure("Chevalley basis is not linearly independent")
    inverse = linalg.rational_inverse([list(row) for row in chosen_rows])
    return chosen, inverse


def compute_W(rep, s=None):
    """W_i = [X_i, A_0^+(s)]; the default s is (1, ..., 1)."""
    a0 = rep.a0_plus(s)
    return tuple(linalg.bracket(rep.x_neg(i), a0) for i in range(1, rep.m + 1))


def complementary_roots(rep):
    """The l complementary roots as 1-based indices of the final ordering.

    Selection scans height levels downward, completing the span of the W
    vectors landing in each level by root vectors tried from the greatest
    candidate index to the least; the choice forces the reordering that
    puts these roots last within their height blocks, and the returned
    indices refer to that final ordering.
    """
    chosen = _complementary_root_values(rep)
    order = rootsys.order_negative_roots(rep.rs, chosen)
    return tuple(sorted(order.index(r) + 1 for r in chosen))


def _complementary_root_values(rep):
    rs = rep.rs
    heights = rs.heights_of_order()
    w = compute_W(rep)
    comp = []
    level_heights = sorted({h for h in heights}, reverse=True)
    for q in level_heights:
        members = [i for i, h in enumerate(heights) if h == q]
        sources = [i for i, h in enumerate(heights) if h == q - 1]
        span_vectors = [_flatten(w[i]) for i in sources]
        base_rank = linalg.rank(span_vectors) if span_vectors else 0
        if base_rank != len(sources):
            raise SpanFailure("W vectors at height %d are dependent" % q)
        need = len(members) - len(sources)
        got = 0
        for i in reversed(members):
            if got == need:
                break
            candidate = span_vectors + [_flatten(rep.x_neg(i + 1))]
            if linalg.rank(candidate) == len(candidate):
                span_vectors = candidate
                comp.append(rs.neg_order[i])
                got += 1
        if got != need:
            raise SpanFailure("cannot complete level %d" % q)
    if len(comp) != rs.rank:
        raise SpanFailure("expected %d complementary roots, found %d" % (rs.rank, len(comp)))
    return comp


def _flatten(mat):
    return [x for row in mat for x in row]


def _verify_w_basis(rep):
    """{W_i} plus the complementary root vectors spans b^- with full rank,
    and the per-height non-complementary blocks are square invertible."""
    rs = rep.rs
    vectors = [_flatten(w) for w in rep.W]
    for idx in rs.comp_roots:
        vectors.append(_flatten(rep.x_neg(idx)))
    if linalg.rank(vectors) != rs.m + rs.rank:
        raise SpanFailure("W basis of b^- has deficient rank")
    heights = rs.heights_of_order()
    comp = set(rs.comp_roots)
    for q in sorted({h for h in heights}, reverse=True):
        rows = []
        noncomp_members = [
            i + 1
            for i, h in enumerate(heights)
            if h == q and (i + 1) not in comp
        ]
        sources = [i + 1 for i, h in enumerate(heights) if h == q - 1]
        if not sources:
            continue
        coeff = []
        for k in sources:
            decomposed = rep.w_coefficients(k)
            coeff.append([decomposed.get(("X", rs.neg_order[i - 1].coeffs), Fraction(0))
                          for i in noncomp_members])
        if len(coeff) != len(noncomp_members):
            raise SpanFailure("height %d block is not square" % q)
        if coeff and linalg.rank(coeff) != len(coeff):
            raise SpanFailure("height %d block is singular" % q)


# ----- basis decomposition -----


def decompose_in_basis(rep, a):
    """Coefficients of a matrix over {H_i} and {X_alpha}.

    Returns a dict keyed by ("H", i) and ("X", coeffs); raises
    NotInLieAlgebra when the matrix is not in the span.  Coefficients live
    in the entry domain of `a`.
    """
    n = rep.dim
    entries = [a[pos // n][pos % n] for pos in rep.solve_positions]
    coeffs = []
    for row in rep.solve_inverse:
        acc = None
        for q, e in zip(row, entries):
            if not q or not e:
                continue
            term = e * q
            acc = term if acc is None else acc + term
        coeffs.append(acc)
    sample = next((e for row in a for e in row if e), Fraction(0))
    zero = Fraction(0) if isinstance(sample, Fraction) else type(sample).zero()
    coeffs = [zero if c is None else c for c in coeffs]
    # residual check: reconstruct and compare entrywise
    recon = [[zero for _ in range(n)] for _ in range(n)]
    for (kind, key), c in zip(rep.basis_order, coeffs):
        if not c:
            continue
        mat = rep.H[key - 1] if kind == "H" else rep.X[key]
        for i in range(n):
            for j in range(n):
                if mat[i][j]:
                    recon[i][j] = recon[i][j] + c * mat[i][j]
    for i in range(n):
        for j in range(n):
            if recon[i][j] != a[i][j]:
                diff = a[i][j] - recon[i][j]
                if diff:
                    raise NotInLieAlgebra("entry (%d, %d) is outside the span" % (i, j))
    return {bk: c for bk, c in zip(rep.basis_order, coeffs)}


# ----- group elements -----


def unipotent_element(rep, root, x):
    """exp(x X_root) as a finite sum over the divided powers of X_root."""
    coeffs = root.coeffs if isinstance(root, rootsys.Root) else tuple(root)
    powers = rep.exp_powers[coeffs]
    n = rep.dim
    if isinstance(x, int):
        x = Fraction(x)
    one = Fraction(1) if isinstance(x, Fraction) else type(x).rational(1)
    zero = one * 0
    out = [[one if i == j else zero for j in range(n)] for i in range(n)]
    xk = one
    for k in range(1, len(powers)):
        xk = xk * x
        mat = powers[k]
        for i in range(n):
            for j in range(n):
                if mat[i][j]:
                    out[i][j] = out[i][j] + xk * mat[i][j]
    return out


def torus_element(rep, i, z):
    """t_i(z) = diag(z^{(H_i)_jj}) for an invertible scalar z."""
    h = rep.H[i - 1]
    if not _is_diagonal(h):
        raise NonDiagonalCartan("H_%d is not diagonal" % i)
    n = rep.dim
    if isinstance(z, int):
        z = Fraction(z)
    one = Fraction(1) if isinstance(z, Fraction) else type(z).rational(1)
    entries = [z ** int(h[j][j]) for j in range(n)]
    zero = one * 0
    return [
        [entries[r] if r == c else zero for c in range(n)] for r in range(n)
    ]


_SL4_WBAR = (
    (0, 0, 0, 1),
    (0, 0, -1, 0),
    (0, 1, 0, 0),
    (-1, 0, 0, 0),
)

_G2_N1 = (
    (-1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, -1),
    (0, 0, 0, 0, 0, -1, 0),
    (0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, -1, 0, 0, 0),
    (0, 0, -1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0),
)

_G2_N2 = (
    (1, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, -1, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, -1),
    (0, 0, 0, 0, 0, 1, 0),
)


def _overrides(rep):
    """Representative overrides keyed by the Weyl element's action."""
    rs = rep.rs
    table = {}
    if rs.type_label == "A" and rs.rank == 3:
        word = rootsys.longest_weyl_word(rs)
        table[_element_key(rs, word.word)] = _to_fraction_matrix(_SL4_WBAR)
    if rs.type_label == "G2":
        table[_element_key(rs, (1,))] = _to_fraction_matrix(_G2_N1)
        table[_element_key(rs, (2,))] = _to_fraction_matrix(_G2_N2)
    return table


def _to_fraction_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def _element_key(rs, word):
    act = rootsys.weyl_action(rs, word)
    return tuple(act(rs.simple(i)).coeffs for i in range(1, rs.rank + 1))


def simple_representative(rep, i):
    """n(w_i) = u_{alpha_i}(1) u_{-alpha_i}(-1) u_{alpha_i}(1)."""
    rs = rep.rs
    up = unipotent_element(rep, rs.simple(i), Fraction(1))
    down = unipotent_element(rep, -rs.simple(i), Fraction(-1))
    return linalg.mat_mul(linalg.mat_mul(up, down), up)


def weyl_representative(rep, word):
    """Representative n(w) for a Weyl word; override table consulted first."""
    if isinstance(word, rootsys.WeylWord):
        word = word.word
    override = _overrides(rep).get(_element_key(rep.rs, word))
    if override is not None:
        return override
    out = linalg.eye(rep.dim)
    for i in word:
        out = linalg.mat_mul(out, simple_representative(rep, i))
    return out
