"""The Chevalley-basis checks and choices made the slow way, as a test oracle.

Dense brackets for the axiom sweep, and one exact rank per candidate row
for the solving recipe and the complementary roots.  This is how
pvext.chevalley did it before its sparse integer sweep and single echelon
pass; the tests require both to agree on every grid system.  D5 takes
about a second.  sparse_basis reads dense matrices back into the sparse
integer maps that the sweep in pvext.chevalley checks, so that corrupted
dense bases can be fed to it.  inner is the bilinear form, from which
cartan_integer computes <beta, alpha> instead of reading the Cartan matrix
and coroot_coefficients the coroot in Fractions; coroot_matrix builds
H_root densely.  The tests check pairings, coroots and adjoint formulas
against them.  divided_powers and unipotent_element form X^k/k! and
exp(x X_root) = sum x^k X^k/k! densely, as pvext.chevalley did before it
kept only the non-zero cells of the powers.  decompose_in_basis is the
decomposition over the dense inverse of the solving recipe, checked by
rebuilding the whole matrix, as pvext.chevalley did before it read each
root vector at its first cell and the H_i through an l x l inverse.
weyl_representative is n(w) as the dense product of the simple
representatives, one matrix product per letter, as pvext.chevalley built
it before it composed the (row, sign) of each column and read each simple
representative's columns off the exp_cells in ints.

build_rep is pvext.chevalley.build_rep as it was before the build ran on
integer root codes: the bracket recursion and sparse_verify_axioms, the
dict-of-dicts axiom sweep, handle roots as validated Root values, take
each string length from root_string, which walks coefficient vectors
rather than integer codes, form every bracket as two
sparse products and a sum (sp_bracket), and check each ordered pair of a
chained bracket on its own matrix, -br formed for the reverse pair.  Its
coroots come from the bilinear form (coroot_coefficients) and its W
coordinates from decomposing the W matrices, so neither reads the
pairing table.  Its recursion still tests [X_gamma, X_-gamma] against
+-H_gamma and negates X_-gamma on -H_gamma.  The tests require every field
of the two representations to agree on every supported system, so that
negation is never made.

positive_roots_by_strings is the root-string closure by which
pvext.rootsys generated the positive roots before it took the orbit of the
simple roots under the simple reflections.
"""

from dataclasses import replace
from fractions import Fraction

from pvext import chevalley, linalg, rootsys
from pvext.chevalley import ChevalleyRep
from pvext.errors import DimMismatch, NotARoot, NotInLieAlgebra, SpanFailure, StructureViolation

import linalg_oracle
from linalg_oracle import mat_is_zero


def divided_powers(x_mat):
    """[1, X, X^2/2!, ...] as dense int matrices, up to the last non-zero
    power."""
    n = len(x_mat)
    powers = [[[int(i == j) for j in range(n)] for i in range(n)], x_mat]
    while True:
        k = len(powers)
        product = linalg.mat_mul(powers[-1], x_mat)
        if any(x % k for row in product for x in row):
            raise SpanFailure("divided power %d is not integral" % k)
        power = [[int(x) // k for x in row] for row in product]
        if mat_is_zero(power):
            return powers
        powers.append(power)


def unipotent_element(rep, root, x):
    """exp(x X_root): the sum of x^k X^k/k! formed by linalg_oracle.combination."""
    powers = divided_powers(rep.X[root.coeffs])
    zero = linalg.zero_of(x)
    xk = [zero + 1]
    for _ in powers[1:]:
        xk.append(xk[-1] * x)
    return linalg_oracle.combination(zip(xk, powers), rep.dim, zero)


def weyl_representative(rep, word):
    """n(w) = n(w_{i_1}) ... n(w_{i_k}) densely, each n(w_i) formed as
    u_{alpha_i}(1) u_{-alpha_i}(-1) u_{alpha_i}(1) from unipotent_element."""
    out = linalg_oracle.eye(rep.dim)
    for i in word:
        alpha = rep.rs.simple(i)
        up = unipotent_element(rep, alpha, Fraction(1))
        out = linalg_oracle.product([out, up, unipotent_element(rep, -alpha, Fraction(-1)), up])
    return out


def inner(rs, a, b):
    """Symmetric bilinear form with short roots of squared length 2."""
    d = rs.root_lengths()
    total = Fraction(0)
    for i in range(rs.rank):
        for j in range(rs.rank):
            # (alpha_i, alpha_j) = d_j * C[i][j]
            total += a.coeffs[i] * b.coeffs[j] * d[j] * rs.cartan[i][j]
    return total


def coroot_coefficients(rs, root):
    """The coefficients of H_root over H_1..H_l from the bilinear form:
    c_j d_j / ((root, root)/2), as Fractions that must be integers."""
    d_root = inner(rs, root, root) / 2
    out = []
    for c, d in zip(root.coeffs, rs.root_lengths()):
        value = Fraction(c) * d / d_root
        if value.denominator != 1:
            raise SpanFailure("non-integral coroot coefficient for %r" % (root,))
        out.append(int(value))
    return tuple(out)


def _is_root(rs, coeffs):
    try:
        return rootsys.Root(coeffs).coeffs in rs.codes
    except NotARoot:
        return False


def root_string(rs, alpha, beta):
    """(r, q) of the beta-string through alpha, for Root values, by walking
    the coefficient vectors alpha - beta, alpha - 2 beta, ... and alpha +
    beta, ... while they are roots."""
    counts = []
    for sign in (-1, 1):
        k = 0
        while _is_root(rs, tuple(a + sign * (k + 1) * b for a, b in zip(alpha.coeffs, beta.coeffs))):
            k += 1
        counts.append(k)
    return tuple(counts)


def positive_roots_by_strings(cartan, rank):
    """The positive roots as coefficient vectors, height by height: alpha +
    alpha_i is a root iff q > 0 in the alpha_i-string through alpha, where
    q = r - <alpha, alpha_i> and r counts the steps down by alpha_i that stay
    positive roots."""
    simples = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        fresh = []
        for alpha in frontier:
            for i in range(rank):
                r, cur = 0, list(alpha)
                while True:
                    cur[i] -= 1
                    if not any(cur) or min(cur) < 0 or tuple(cur) not in roots:
                        break
                    r += 1
                if r - rootsys.pairing(cartan, alpha, i) > 0:
                    up = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                    if up not in roots:
                        roots.add(up)
                        fresh.append(up)
        frontier = fresh
    return roots


def cartan_integer(rs, beta, alpha):
    """<beta, alpha> = 2(beta, alpha)/(alpha, alpha), an exact integer."""
    if not rs.contains(beta):
        raise NotARoot("%r" % (beta,))
    if not rs.contains(alpha):
        raise NotARoot("%r" % (alpha,))
    value = 2 * inner(rs, beta, alpha) / inner(rs, alpha, alpha)
    if value.denominator != 1:
        raise StructureViolation("<%r, %r> is not an integer" % (beta, alpha))
    return int(value)


def cartan_combination(H, coeffs):
    """The matrix sum(c_i H_i)."""
    acc = linalg.zeros(len(H[0]))
    for c, h in zip(coeffs, H):
        acc = linalg.mat_add(acc, linalg_oracle.mat_scale(h, Fraction(c)))
    return acc


def coroot_matrix(rs, H, root):
    """H_root as a combination of H_1..H_l."""
    return cartan_combination(H, coroot_coefficients(rs, root))


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


def sparse(mat, what):
    """The sparse integer map row -> {col: int} of a dense matrix, holding
    exactly its non-zero entries; SpanFailure unless integral."""
    out = {}
    for i, row in enumerate(mat):
        cells = {}
        for j, x in enumerate(row):
            if x:
                x = Fraction(x)
                if x.denominator != 1:
                    raise SpanFailure("%s is not integral" % what)
                cells[j] = x.numerator
        if cells:
            out[i] = cells
    return out


def sparse_basis(H, X):
    """The dense H_i and X_root read back into the sparse maps that
    chevalley._verify_axioms checks."""
    sh = [sparse(h, "H_%d" % (i + 1)) for i, h in enumerate(H)]
    sx = {coeffs: sparse(mat, "X_%r" % (coeffs,)) for coeffs, mat in X.items()}
    return sh, sx


def _integer_matrix(mat):
    if any(Fraction(x).denominator != 1 for row in mat for x in row):
        raise SpanFailure("not an integer matrix")
    return [[int(x) for x in row] for row in mat]


def verify_axioms(rs, H, X):
    """Exhaustive dense checks; returns the structure constants.

    The brackets are multiplied out densely over Python ints, which is as
    exact as over Fractions and several times faster.
    """
    l = rs.rank
    H = [_integer_matrix(h) for h in H]
    X = {coeffs: _integer_matrix(mat) for coeffs, mat in X.items()}
    for i in range(l):
        for j in range(l):
            if not mat_is_zero(linalg_oracle.bracket(H[i], H[j])):
                raise SpanFailure("[H_%d, H_%d] != 0" % (i + 1, j + 1))
    for root in rs.roots:
        mat = X[root.coeffs]
        for i in range(l):
            want = linalg_oracle.mat_scale(
                mat, Fraction(cartan_integer(rs, root, rs.simple(i + 1)))
            )
            if not linalg.mat_eq(linalg_oracle.bracket(H[i], mat), want):
                raise SpanFailure("[H_%d, X_%r] is off" % (i + 1, root.coeffs))
    nconst = {}
    roots = list(rs.roots)
    for k, a in enumerate(roots):
        for b in roots[k:]:
            # [X_b, X_a] = -[X_a, X_b], so each bracket is multiplied out once
            br = linalg_oracle.bracket(X[a.coeffs], X[b.coeffs])
            _check_bracket(rs, H, X, a, b, br, nconst)
            if b != a:
                _check_bracket(rs, H, X, b, a, linalg_oracle.mat_scale(br, -1), nconst)
    return nconst


def _check_bracket(rs, H, X, a, b, br, nconst):
    total = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
    if all(v == 0 for v in total):
        if not linalg.mat_eq(br, coroot_matrix(rs, H, a)):
            raise SpanFailure("[X_a, X_-a] != H_a for %r" % (a.coeffs,))
    elif total in rs.codes:
        coeff = _proportionality(br, X[total])
        if coeff is None:
            raise SpanFailure("[X_a, X_b] not proportional to X_sum")
        r, _ = root_string(rs, b, a)
        if abs(coeff) != r + 1:
            raise SpanFailure("|N| != r+1")
        nconst[(a.coeffs, b.coeffs)] = coeff
    elif not mat_is_zero(br):
        raise SpanFailure("[X_a, X_b] should vanish")


def solving_recipe(rep):
    """(positions, inverse) for rep.basis_order, one rank per candidate."""
    n = rep.dim
    mats = [rep.H[key - 1] if kind == "H" else rep.X[key] for kind, key in rep.basis_order]
    columns = list(zip(*[[row[j] for row in mat for j in range(n)] for mat in mats]))
    b = len(columns[0])
    chosen, chosen_rows = [], []
    for pos in range(n * n):
        if len(chosen) == b:
            break
        trial = chosen_rows + [columns[pos]]
        if linalg.rank(trial) == len(trial):
            chosen.append(pos)
            chosen_rows.append(columns[pos])
    if len(chosen) != b:
        raise SpanFailure("Chevalley basis is not linearly independent")
    return chosen, linalg.rational_inverse([list(row) for row in chosen_rows])


def decompose_in_basis(rep, a, recipe):
    """Coefficients of a over rep.basis_order, from recipe = (positions,
    inverse) of solving_recipe(rep): the dot product of each dense row of
    the inverse with the entries at the positions, then every entry of a
    compared with the rebuilt combination (NotInLieAlgebra on the first
    that differs)."""
    n = rep.dim
    if len(a) != n or any(len(row) != n for row in a):
        raise DimMismatch("matrix is not %d x %d" % (n, n))
    positions, inverse = recipe
    entries = [a[pos // n][pos % n] for pos in positions]
    zero = linalg.zero_of(next((e for row in a for e in row if e), Fraction(0)))
    coeffs = [linalg.dot(zip(entries, row), zero) for row in inverse]
    basis = [rep.H[key - 1] if kind == "H" else rep.X[key] for kind, key in rep.basis_order]
    recon = linalg_oracle.combination(zip(coeffs, basis), n, zero)
    for i in range(n):
        for j in range(n):
            if recon[i][j] != a[i][j]:
                raise NotInLieAlgebra("entry (%d, %d) is outside the span" % (i, j))
    return {bk: c for bk, c in zip(rep.basis_order, coeffs)}


def complementary_root_values(rs, X):
    """The complementary roots for the order of rs.neg_order, one rank per
    candidate."""
    a0 = linalg.zeros(len(X[rs.roots[0].coeffs]))
    for i in range(1, rs.rank + 1):
        a0 = linalg.mat_add(a0, X[rs.simple(i).coeffs])
    flat = lambda mat: [x for row in mat for x in row]
    w = [flat(linalg_oracle.bracket(X[b.coeffs], a0)) for b in rs.neg_order]
    heights = rs.heights_of_order()
    comp = []
    for q in sorted(set(heights), reverse=True):
        members = [i for i, h in enumerate(heights) if h == q]
        span = [w[i] for i, h in enumerate(heights) if h == q - 1]
        if span and linalg.rank(span) != len(span):
            raise SpanFailure("W vectors at height %d are dependent" % q)
        need = len(members) - len(span)
        for i in reversed(members):
            if need == 0:
                break
            candidate = span + [flat(X[rs.neg_order[i].coeffs])]
            if linalg.rank(candidate) == len(candidate):
                span = candidate
                comp.append(rs.neg_order[i])
                need -= 1
        if need:
            raise SpanFailure("cannot complete level %d" % q)
    return comp


# ----- the build before integer root codes -----


def sp_mul(a, b):
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


def sp_add(a, b, s=1):
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


def sp_scale(a, c):
    if not c:
        return {}
    return {i: {j: c * v for j, v in row.items()} for i, row in a.items()}


def sp_divide(a, k, what):
    if any(v % k for row in a.values() for v in row.values()):
        raise SpanFailure("%s is not integral" % what)
    return {i: {j: v // k for j, v in row.items()} for i, row in a.items()}


def sp_bracket(a, b):
    return sp_add(sp_mul(a, b), sp_mul(b, a), -1)


def sp_combination(mats, coeffs):
    acc = {}
    for c, m in zip(coeffs, mats):
        if c:
            acc = sp_add(acc, m, c)
    return acc


def _decomposition_step(rs, gamma):
    """Minimal simple index i with gamma - alpha_i a positive root."""
    for i in range(1, rs.rank + 1):
        diff = tuple(g - s for g, s in zip(gamma.coeffs, rs.simple(i).coeffs))
        if min(diff) >= 0 and any(diff) and diff in rs.codes:
            return i, rootsys.Root(diff)
    raise SpanFailure("no descent for %r" % (gamma,))


def sparse_coroots(rs, sh):
    """Root coefficients -> the sparse coroot over the H_i in sh, with the
    coefficients from the bilinear form."""
    return {r.coeffs: sp_combination(sh, coroot_coefficients(rs, r)) for r in rs.roots}


def sparse_verify_axioms(rs, sh, sx, coroots):
    """The dict-of-dicts sweep over Root values: [H_i, H_j] and [H_i, X_a]
    as in pvext.chevalley._verify_axioms, then for each unordered pair
    {a, b} whose supports chain the bracket as two products and a sum, the
    zero bracket for a pair that does not chain and sums to 0 or a root,
    and the identities of (a, b) on br and of (b, a) on -br."""
    l = rs.rank
    for i, h in enumerate(sh):
        if any(set(row) != {r} for r, row in h.items()):
            raise SpanFailure("H_%d is not diagonal" % (i + 1))
    for i in range(l):
        for j in range(l):
            if sp_bracket(sh[i], sh[j]):
                raise SpanFailure("[H_%d, H_%d] != 0" % (i + 1, j + 1))
    diagonals = [{r: row[r] for r, row in h.items()} for h in sh]
    rows, cols = {}, {}
    for root in rs.roots:
        mat = sx[root.coeffs]
        for i, h in enumerate(diagonals):
            p = rootsys.pairing(rs.cartan, root.coeffs, i)
            if any(h.get(r, 0) - h.get(c, 0) != p for r, row in mat.items() for c in row):
                raise SpanFailure("[H_%d, X_%r] is off" % (i + 1, root.coeffs))
        rows[root.coeffs] = set(mat)
        cols[root.coeffs] = set().union(*mat.values())
    nconst = {}
    roots = rs.roots
    for k, a in enumerate(roots):
        for b in roots[k:]:
            x, y = a.coeffs, b.coeffs
            total = tuple(u + v for u, v in zip(x, y))
            if cols[x] & rows[y] or cols[y] & rows[x]:
                br = sp_bracket(sx[x], sx[y])
            elif not any(total) or total in rs.codes:
                br = {}
            else:
                continue
            _sparse_check_bracket(rs, coroots, sx, a, b, br, nconst)
            if b != a:
                _sparse_check_bracket(rs, coroots, sx, b, a, sp_scale(br, -1), nconst)
    return nconst


def _sparse_ratio(mat, target):
    """The Fraction c with mat == c * target for sparse integer maps, or
    None."""
    want = {(i, j): v for i, row in target.items() for j, v in row.items()}
    got = {(i, j): v for i, row in mat.items() for j, v in row.items()}
    if got.keys() != want.keys():
        return None
    ratios = {Fraction(got[cell], v) for cell, v in want.items()}
    if len(ratios) > 1:
        return None
    return ratios.pop() if ratios else Fraction(0)


def _sparse_check_bracket(rs, coroots, sx, a, b, br, nconst):
    total = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
    if not any(total):
        if br != coroots[a.coeffs]:
            raise SpanFailure("[X_a, X_-a] != H_a for %r" % (a.coeffs,))
    elif total in rs.codes:
        c = _sparse_ratio(br, sx[total])
        if c is None:
            raise SpanFailure("[X_%r, X_%r] not proportional to X_sum" % (a.coeffs, b.coeffs))
        r, _ = root_string(rs, b, a)
        if c.denominator != 1 or abs(c) != r + 1:
            raise SpanFailure("|N| = %s != r+1 = %d for %r, %r" % (c, r + 1, a.coeffs, b.coeffs))
        nconst[(a.coeffs, b.coeffs)] = int(c)
    elif br:
        raise SpanFailure("[X_%r, X_%r] should vanish" % (a.coeffs, b.coeffs))


def build_rep(type_label, rank):
    """The representation as pvext.chevalley.build_rep built it before its
    root codes: the recursion and the sweep over Root values, the coroots
    from the bilinear form, the W coordinates by decomposition; the steps
    this leaves to pvext.chevalley are the generators, the divided powers,
    the complementary roots, the cell maps and the closing W-basis check."""
    rs = rootsys.build_root_system(type_label, rank)
    signs = chevalley._SIGNS.get(rs.label, {})
    n, E, F = chevalley._simple_generators(rs)
    l = rs.rank
    sh = [sp_bracket(E[i], F[i]) for i in range(l)]
    coroots = sparse_coroots(rs, sh)
    sx = {}
    for i in range(l):
        sx[rs.simple(i + 1).coeffs] = E[i]
        sx[(-rs.simple(i + 1)).coeffs] = F[i]
    positives = sorted((r for r in rs.roots if r.height() > 0), key=lambda r: (r.height(), r.coeffs))
    for gamma in positives:
        if gamma.coeffs in sx:
            continue
        i, beta = _decomposition_step(rs, gamma)
        r, _ = root_string(rs, beta, rs.simple(i))
        sign = signs.get(gamma.coeffs, 1)
        xg = sp_divide(sp_scale(sp_bracket(sx[rs.simple(i).coeffs], sx[beta.coeffs]), sign),
                       r + 1, "root vector for %r" % (gamma.coeffs,))
        xn = sp_divide(sp_scale(sp_bracket(sx[(-rs.simple(i)).coeffs], sx[(-beta).coeffs]), -sign),
                       r + 1, "root vector for %r" % ((-gamma).coeffs,))
        if not xg or not xn:
            raise SpanFailure("vanishing root vector for %r" % (gamma.coeffs,))
        hg = coroots[gamma.coeffs]
        br = sp_bracket(xg, xn)
        if br == sp_scale(hg, -1):
            xn = sp_scale(xn, -1)
        elif br != hg:
            raise SpanFailure("[X,Y] not proportional to the coroot for %r" % (gamma.coeffs,))
        sx[gamma.coeffs] = xg
        sx[(-gamma).coeffs] = xn
    nconst = sparse_verify_axioms(rs, sh, sx, coroots)

    a0 = sp_combination([sx[rs.simple(i + 1).coeffs] for i in range(l)], [1] * l)
    w = {b.coeffs: sp_bracket(sx[b.coeffs], a0) for b in rs.neg_order}
    rs = rootsys.finalize_order(rs, chevalley._complementary_root_values(rs, sx, w))
    basis_order = [("H", i + 1) for i in range(l)]
    basis_order += [("X", b.coeffs) for b in rs.neg_order]
    basis_order += [("X", (-b).coeffs) for b in rs.neg_order]
    mats = [sh[key - 1] if kind == "H" else sx[key] for kind, key in basis_order]
    cells = {key: tuple(sorted((r, c, v) for r, row in mat.items() for c, v in row.items()))
             for key, mat in zip(basis_order, mats)}
    rows, cartan_solve = chevalley._cartan_solve(sh, n)
    positions = [r * (n + 1) for r in rows]
    positions += [cells[key][0][0] * n + cells[key][0][1] for key in basis_order[l:]]
    rep = ChevalleyRep(
        rs=rs,
        dim=n,
        H=tuple(chevalley._dense(n, h) for h in sh),
        X={coeffs: chevalley._dense(n, mat) for coeffs, mat in sx.items()},
        nconst=nconst,
        w_coefficients=(),
        exp_cells={coeffs: chevalley._divided_power_cells(mat, n) for coeffs, mat in sx.items()},
        basis_order=tuple(basis_order),
        cells=cells,
        solve_positions=tuple(sorted(positions)),
        cartan_solve=cartan_solve,
    )
    coordinates = tuple(
        chevalley.decompose_in_basis(rep, chevalley._dense(n, w[b.coeffs])) for b in rs.neg_order
    )
    rep = replace(rep, w_coefficients=coordinates)
    chevalley._verify_w_basis(rep, w, sx)
    return rep
