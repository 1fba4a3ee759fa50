"""The construction pipeline: from differential indeterminates to the
Liouvillian defining matrix, its solution tower, the differential
invariants, and the generic defining matrix.

Stages run in order on Chevalley coordinates, ldelta and Ad of u(eta)
being chevalley.unipotent_gauge and unipotent_adjoint folded over its root
factors (_fold); verify_end_to_end re-checks the derivation in matrices.
Every structural claim is asserted as the pipeline runs, and a violation
raises StructureViolation or RankFailure, whose message starts with the
system and the stage.  The shapes and variable ranges are one
invariant, the principal grading, checked on every stage output.  The
report is a tree of the results, written by liouville_expr.json_chunks.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import chevalley, linalg, rootsys
from .diffpoly import DiffPoly, frac_text, lift
from .errors import (
    IdentityFailure,
    RankCeiling,
    RankFailure,
    StructureViolation,
    VerificationFailure,
)
from .liouville_expr import LiouvExpr, json_chunks


@dataclass(frozen=True)
class Stage1Coeffs:
    """v_i for i = l+1..m: the nonlinear X_i-coefficients of ldelta(u)."""

    v: dict


@dataclass(frozen=True)
class Stage2Coeffs:
    """g_i, ell_i, p_i: the coefficients of Ad(u)(A_0^+)."""

    g: tuple
    ell: tuple
    p: tuple


@dataclass(frozen=True)
class LiouvilleData:
    c: tuple
    gbar: tuple
    A_L: tuple
    nw: tuple  # n(wbar) as chevalley.weyl_representative's columns
    z: tuple = ()
    y: tuple = ()


@dataclass(frozen=True)
class InvariantSet:
    f: dict  # non-complementary index -> DiffPoly
    h: dict  # complementary index -> DiffPoly invariant
    lhat: dict
    phat: dict
    lbar: dict = field(default_factory=dict)
    pbar: dict = field(default_factory=dict)


def unipotent_product(rep, args):
    """The matrix u_1(a_1) ... u_m(a_m) over DiffPoly; rationals are lifted."""
    word = [(("X", b.coeffs), lift(a)) for b, a in zip(rep.rs.neg_order, args)]
    return chevalley.word_element(rep, word)


def _fold(step, rep, args, coords):
    """step(u, A) on A's coordinates `coords` for u = u_1(a_1)...u_m(a_m),
    step being chevalley.unipotent_gauge or unipotent_adjoint.  The factors
    act from the last to the first, as Ad(hk) = Ad(h) Ad(k) and gauge(hk, A)
    = gauge(h, gauge(k, A)): both sides are hk A (hk)^-1 + h k' k^-1 h^-1 +
    h' h^-1, since (hk)' = h' k + h k'."""
    for root, a in reversed(list(zip(rep.rs.neg_order, args))):
        coords = step(rep, root, a, coords)
    return coords


def _weights(rs, count):
    """{v: |ht beta_v|} for eta_1..eta_count."""
    return dict(enumerate((-h for h in rs.heights_of_order()[:count]), start=1))


def _graded_split(rs, weights, poly, w, where):
    """The (linear, nonlinear) split of a stage output of weight w under
    `weights`, or a StructureViolation naming the system and `where`.

    The principal grading (Kostant, Amer. J. Math. 81, 1959) gives
    eta_i^(k) the weight |ht beta_i| + k.  A torus element scales X_beta by
    lambda^(ht beta) and the derivation adds one, so v_i, the X_i
    coefficient ell_i + p_i of Ad(u)(A_0^+) and the raw h_i weigh
    |ht beta_i| + 1, g_i weighs 1, and, in eta_1..eta_l, f_k weighs
    |ht beta_k| and h_j |ht beta_j| + 1.  A factor weighs at least 1, so a
    term of weight W >= 1 is not constant and its factor eta_j^(k) weighs
    W less the rest of the term.  With the checks that stay, this implies
    the bounds the stages checked before:
    - g_i (W = 1): one eta_j, k = 0 and |ht beta_j| = 1, so j <= l.
    - ell_i + p_i (order 0): a linear eta_j has |ht beta_j| = W, in the
      band of height ht beta_i - 1 (ell_i = 0 if it is empty); a factor of
      a term of degree >= 2 has |ht beta_j| <= W - 1 = |ht beta_i|.
    - v_i (every term of order 1 and degree >= 2): the rest of a term
      weighs at least 1, or 2 if k = 0, as it then holds a factor of order
      1; so |ht beta_j| <= |ht beta_i| - 1, down to height ht beta_i + 1.
    - q_i = h_i - eta_i' - ell_i, the nonlinear part of h_i: a factor has
      |ht beta_j| + k <= W - 1 = |ht beta_i|, so it lies in the bands down
      to height ht beta_i, and down to ht beta_i + 1 if k >= 1.
    - f_k and h_j (eta_1..eta_l weigh 1): a term weighs its degree plus
      its derivative orders, so lbar_k and lhat_j are purely of order
      W - 1, and pbar_k and phat_j have degree >= 2 and order <= W - 2.
    """
    split = poly.graded_split(weights, w)
    if split is None:
        raise StructureViolation(
            "%s: %s is not homogeneous of weight %d in eta_1..eta_%d"
            % (rs.label, where, w, len(weights))
        )
    return split


def _check_positive_part(rep, dec, where, simple, allow_cartan=False):
    """The simple positive components are `simple`, the other positive ones
    zero, then the Cartan ones zero unless allowed; `where` names the system
    and the stage."""
    for b in rep.rs.neg_order:
        pos = -b
        coef = dec.get(("X", pos.coeffs), DiffPoly.zero())
        if coef != (simple if pos.is_simple() else 0):
            raise StructureViolation("%s: positive component %r is %r" % (where, pos.coeffs, coef))
    for i in range(1, rep.rank + 1):
        if dec.get(("H", i)) and not allow_cartan:
            raise StructureViolation("%s: H_%d component is nonzero" % (where, i))


def logderiv_unipotent(rep, eta):
    """Stage 1: ldelta(u) = gauge(u, 0) for u = u_1(eta_1)...u_m(eta_m).

    Returns Stage1Coeffs; the coefficient of X_i is eta_i' + v_i with the
    shape claims of the first coefficient lemma asserted.
    """
    rs, m = rep.rs, rep.m
    weights = _weights(rs, m)
    where = "%s: logderiv_unipotent" % rs.label
    # formed before the fold, which derives eta_m first, so that eta_1'..eta_m'
    # take the packed-monomial slots after eta_1..eta_m in index order, where
    # the keys of the invariants, in eta_1..eta_l, stay short
    primes = [DiffPoly.eta(i, 1) for i in range(1, m + 1)]
    dec = _fold(chevalley.unipotent_gauge, rep, eta, {})
    _check_positive_part(rep, dec, where, DiffPoly.zero())
    v = {}
    for i, (b, prime) in enumerate(zip(rs.neg_order, primes), start=1):
        vi = dec.get(("X", b.coeffs), DiffPoly.zero()) - prime
        if i <= rep.rank:
            if vi:
                raise StructureViolation("%s: v_%d should vanish" % (where, i))
            continue
        linear, _ = _graded_split(rs, weights, vi, weights[i] + 1, "logderiv_unipotent: v_%d" % i)
        if vi and (vi.order() != 1 or vi.min_term_order() != 1):
            raise StructureViolation("%s: v_%d has a term of order != 1" % (where, i))
        if linear:
            raise StructureViolation("%s: v_%d has a linear term" % (where, i))
        v[i] = vi
    return Stage1Coeffs(v=v)


def adjoint_on_A0(rep, eta):
    """Stage 2: Ad(u)(A_0^+) on coordinates, for u = u_1(eta_1)...u_m(eta_m),
    with its shape asserted.

    eliminate_noncomplementary checks the per-height systems of the ell_i
    square and of full rank: its row for h_i = eta_i' + ell_i + q_i holds
    the coefficients of eta_k, to which eta_i' and q_i add nothing, since
    logderiv_Y refuses a linear term in q_i.
    """
    rs, m, l = rep.rs, rep.m, rep.rank
    weights = _weights(rs, m)
    where = "%s: adjoint_on_A0" % rs.label
    a0 = {("X", rs.simple(i).coeffs): DiffPoly.rational(1) for i in range(1, l + 1)}
    dec = _fold(chevalley.unipotent_adjoint, rep, eta, a0)
    _check_positive_part(rep, dec, where, DiffPoly.rational(1), allow_cartan=True)

    g = tuple(dec.get(("H", i), DiffPoly.zero()) for i in range(1, l + 1))
    gmat = []
    for i, gi in enumerate(g, start=1):
        if gi.is_zero():
            raise StructureViolation("%s: the Cartan coefficient g_%d vanishes" % (where, i))
        _graded_split(rs, weights, gi, 1, "adjoint_on_A0: g_%d" % i)
        gmat.append([gi.coefficient_of_jet(k, 0) for k in range(1, l + 1)])
    if linalg.rank(gmat) != l:
        raise StructureViolation("%s: Cartan coefficients are linearly dependent" % where)

    ell, p = [], []
    for i, b in enumerate(rs.neg_order, start=1):
        coef = dec.get(("X", b.coeffs), DiffPoly.zero())
        what = "adjoint_on_A0: the X_%d coefficient" % i
        li, pi = _graded_split(rs, weights, coef, weights[i] + 1, what)
        if coef.order() != 0:
            raise StructureViolation("%s: the X_%d coefficient contains derivatives" % (where, i))
        ell.append(li)
        p.append(pi)
    return Stage2Coeffs(g=g, ell=tuple(ell), p=tuple(p))


def build_A_L(rep, stage2):
    """Solve for the constants c and the linear forms gbar, assemble A_L.

    c is determined by Ad(n(wbar))(A_0^-(c)) = A_0^+ and gbar by
    Ad(n(wbar))(sum gbar_i H_i) = sum -g_i H_i; both identities are
    re-verified by direct conjugation on the assembled data.  n(wbar) is a
    signed permutation, so each conjugation is a relabelling (weyl_adjoint).
    The X_i and H_i conjugated to find c and gbar are the matrices rep.X
    and rep.H, and the identities are re-verified on matrices composed
    from rep.cells, so each check fires when the two disagree.
    """
    rs, l = rep.rs, rep.rank
    where = "%s: build_A_L" % rs.label
    nw = chevalley.weyl_representative(rep, rootsys.longest_weyl_word(rs))

    c = []
    for i in range(1, l + 1):
        dec = chevalley.decompose_in_basis(rep, chevalley.weyl_adjoint(nw, rep.x_neg(i)))
        live = [(k, val) for k, val in dec.items() if val]
        if len(live) != 1 or live[0][0][0] != "X":
            raise StructureViolation("%s: Ad(n(wbar)) sends X_%d off the root lines" % (where, i))
        c.append(Fraction(1) / live[0][1])
    if not linalg.mat_eq(chevalley.weyl_adjoint(nw, rep.a0_minus(c)), rep.a0_plus()):
        raise VerificationFailure("%s: Ad(n(wbar))(A_0^-(c)) != A_0^+" % where)

    decs = [chevalley.decompose_in_basis(rep, chevalley.weyl_adjoint(nw, h)) for h in rep.H]
    columns = [[dec.get(("H", k), Fraction(0)) for dec in decs] for k in range(1, l + 1)]
    rhs = [[-stage2.g[k] for k in range(l)]]
    gbar = tuple(linalg.solve_exact(columns, rhs)[0])

    zero = DiffPoly.zero()
    cartan = {("H", i): gi for i, gi in enumerate(gbar, start=1)}
    want = {("H", i): -gi for i, gi in enumerate(stage2.g, start=1)}
    lhs = chevalley.weyl_adjoint(nw, chevalley.compose(rep, cartan, zero))
    if not linalg.mat_eq(lhs, chevalley.compose(rep, want, zero)):
        raise VerificationFailure("%s: Ad(n(wbar))(sum gbar_i H_i) != -sum g_i H_i" % where)

    cartan.update((("X", (-rs.simple(i)).coeffs), lift(ci)) for i, ci in enumerate(c, start=1))
    al = chevalley.compose(rep, cartan, zero)
    return LiouvilleData(c=tuple(c), gbar=gbar, A_L=tuple(tuple(r) for r in al), nw=nw)


def _extract_constant(expr):
    """(q, monic) with expr = q * monic for a single-term rational multiple.

    Keeps constants outside the opaque integral atoms, the way the
    solution tower is conventionally written; multi-term integrands are
    left untouched.
    """
    if len(expr.terms) != 1:
        return Fraction(1), expr
    coeff = next(iter(expr.terms.values()))
    if not coeff.is_rational():
        return Fraction(1), expr
    q = coeff.constant_term()
    if q == 1:
        return Fraction(1), expr
    return q, expr * (Fraction(1) / q)


def _dp_order_le_one_eval(poly, values, derivs, where):
    """Evaluate a DiffPoly of order <= 1 with eta_i -> values[i] and
    eta_i' -> derivs[i], over LiouvExpr; a higher derivative raises a
    StructureViolation naming `where`, the system and the stage."""

    def value_of(jv):
        if jv.order == 0:
            return values[jv.var]
        if jv.order == 1:
            return derivs[jv.var]
        raise StructureViolation("%s: integrand of order > 1" % where)

    return poly.evaluate(value_of, LiouvExpr)


def _check_tower_matrix(rep, data):
    """Raise IdentityFailure, naming the system and the first entry, row by
    row, where ldelta(t(z)u(y)) differs from A_L, in matrices.

    T = t(z)u(y) is the word of the letters t_i(z_i), i = 1..l, then
    u_(beta_i)(y_i), i = 1..m.  ldelta(T) = T' T^-1 is built letter by
    letter from the last letter to the first, by ldelta(L R) = ldelta(L) +
    Ad(L)(ldelta(R)): (L R)' (L R)^-1 = L' L^-1 + L R' R^-1 L^-1.  The last
    letter's ldelta is the start, as Ad(L) of the zero matrix is zero.  A
    root letter u_b(y) has ldelta y' X_b (proved in
    chevalley.unipotent_gauge), and a torus letter t_i(z) = diag(z^h_j)
    has ldelta (z'/z) H_i: on the diagonal (z^h)' z^-h = h z'/z.  Each
    ldelta is added at the cells of its basis matrix, into the check's
    own running matrix, and Ad(L) acts by chevalley.letter_adjoint, from
    rep.exp_cells and the integer diagonals of the H_i.  Neither reads the
    structure constants or the characters, which the coordinate check of
    liouville_solutions reads; so the two checks are one identity by two
    independent routes.  A LiouvExpr compares equal to a DiffPoly exactly
    when it is that polynomial as a scalar, so A_L is compared without
    lifting it.
    """
    word = [(("H", i), zi) for i, zi in enumerate(data.z, start=1)]
    word += [(("X", b.coeffs), yi) for b, yi in zip(rep.rs.neg_order, data.y)]
    got = [[LiouvExpr.zero()] * rep.dim for _ in range(rep.dim)]
    for k, letter in enumerate(reversed(word)):
        key, t = letter
        if k:
            got = chevalley.letter_adjoint(rep, letter, got)
        c = linalg.derive(t) * t ** -1 if key[0] == "H" else linalg.derive(t)
        if c:
            for r, col, v in rep.cells[key]:
                got[r][col] = got[r][col] + (c if v == 1 else c * v)
    for r, (row_l, row_r) in enumerate(zip(got, data.A_L)):
        for c, (x, y) in enumerate(zip(row_l, row_r)):
            if x != y:
                raise IdentityFailure(
                    "%s: ldelta(t(z)u(y)) - A_L is nonzero at entry (%d, %d)"
                    % (rep.rs.label, r, c)
                )


def _check_tower_coordinates(rep, data):
    """The coordinates of ldelta(t(z) u(y)) = sum (z_i'/z_i) H_i +
    Ad(t(z))(gauge(u(y), 0)), checked against A_L's: a difference raises
    VerificationFailure naming the basis key.  ldelta(ab) = ldelta(a) +
    Ad(a)(ldelta(b)); the t_i(z_i) are diagonal, so they commute and
    ldelta(t(z)) is the sum (_check_tower_matrix); Ad(t(z)) fixes the H_i
    and scales X_beta by chevalley.character.  The check is exact: the
    basis is independent (decompose_in_basis), and a LiouvExpr equals a
    DiffPoly exactly when it is that polynomial as a scalar."""
    out = {("H", i): linalg.derive(zi) * zi ** -1 for i, zi in enumerate(data.z, start=1)}
    for key, c in _fold(chevalley.unipotent_gauge, rep, data.y, {}).items():
        c = c * chevalley.character(rep.rs, data.z, key[1]) if key[0] == "X" else c
        out[key] = out[key] + c if key in out else c
    for key, c in chevalley.decompose_in_basis(rep, data.A_L).items():
        if out.get(key, LiouvExpr.zero()) != lift(c):
            raise VerificationFailure(
                "%s: liouville_solutions: ldelta(t(z)u(y)) - A_L is nonzero at %s_%s"
                % ((rep.rs.label,) + key)
            )
    return out


def liouville_solutions(rep, data, stage1):
    """Fill in the Liouvillian tower: exponentials z and integrals y.

    z_i = e^{int gbar_i}.  For the simple-root indices the integrand of y_i
    is c_i / chi_i, with chi_i the character of beta_i (chevalley.character);
    deeper integrals integrate -v_i evaluated at y.  The assembled tower
    is verified in coordinates: ldelta(t(z) u(y)) = A_L.
    """
    rs = rep.rs
    l, m = rs.rank, rs.m
    z = tuple(LiouvExpr.exp_integral(LiouvExpr.scalar(g)) for g in data.gbar)

    values = {}
    derivs = {}
    y = []
    for i in range(1, m + 1):
        if i <= l:
            chi = chevalley.character(rs, z, rs.neg_order[i - 1].coeffs)
            integrand = (chi ** -1) * data.c[i - 1]
        else:
            integrand = _dp_order_le_one_eval(
                -stage1.v[i], values, derivs, "%s: liouville_solutions" % rs.label
            )
        q, monic = _extract_constant(integrand)
        yi = LiouvExpr.integral(monic) * q
        y.append(yi)
        values[i] = yi
        derivs[i] = integrand

    data = replace(data, z=z, y=tuple(y))
    _check_tower_coordinates(rep, data)
    return data


def logderiv_Y(rep, eta, stage2):
    """Coefficients h_i of ldelta(Y) for Y = u(eta) n(wbar) T, T = t(z) u(y),
    from stage 2: A_L is not conjugated.

    ldelta(Y) = gauge(u, B), B = ldelta(n(wbar) T) = Ad(n(wbar))(A_L), as
    n(wbar) is constant and ldelta(T) = A_L.  build_A_L checks
    Ad(n(wbar))(A_0^-(c)) = A_0^+ and Ad(n(wbar))(sum gbar_i H_i) =
    -sum g_i H_i, and composes A_L from those c and gbar, so B = A_0^+ -
    sum g_i H_i.  gauge(u, A + A') = gauge(u, A) + Ad(u)(A'), Ad(u) being
    linear over the coefficients; so ldelta(Y) is unipotent_gauge folded
    from -sum g_i H_i, plus Ad(u)(A_0^+), whose coordinates stage 2 holds:
    1 at each simple X, g_i at H_i and ell_i + p_i at X_i.  The Cartan
    components must vanish, the positive part must be exactly A_0^+, and
    h_i = eta_i' + ell_i + q_i with q_i of order <= 1 and no linear term.

    No eta and no stage 2 reach the first two checks.  ldelta(u_b(t)) =
    t' X_b (chevalley.unipotent_gauge), and ad X_b, for b negative, sends
    H_j into the line of X_b and X_g, for g negative, to a multiple of
    X_(b+g) or to 0, as b + g is negative, never 0.  So the fold has only
    negative root and Cartan components, the latter exactly -g_i, and the
    sum has the positive part A_0^+ and no Cartan part.  The checks fire
    when the bracket table sends a pair of negative roots elsewhere.
    """
    rs = rep.rs
    weights = _weights(rs, rep.m)
    cartan = {("H", i): -g for i, g in enumerate(stage2.g, start=1)}
    dec = _fold(chevalley.unipotent_gauge, rep, eta, cartan)
    ad = [(("X", rs.simple(i).coeffs), DiffPoly.rational(1)) for i in range(1, rep.rank + 1)]
    ad += [(("H", i), g) for i, g in enumerate(stage2.g, start=1)]
    ad += [(("X", b.coeffs), e + p) for b, e, p in zip(rs.neg_order, stage2.ell, stage2.p)]
    for key, c in ad:
        dec[key] = dec.get(key, 0) + c
    where = "%s: logderiv_Y" % rs.label
    _check_positive_part(rep, dec, where, DiffPoly.rational(1))

    h = []
    for i, b in enumerate(rs.neg_order, start=1):
        hi = dec[("X", b.coeffs)]
        linear, nonlinear = _graded_split(rs, weights, hi, weights[i] + 1, "logderiv_Y: h_%d" % i)
        if linear != DiffPoly.eta(i, 1) + stage2.ell[i - 1]:
            raise StructureViolation("%s: q_%d has a linear term" % (where, i))
        if nonlinear.order() > 1:
            raise StructureViolation("%s: q_%d has order > 1" % (where, i))
        h.append(hi)
    return h


def eliminate_noncomplementary(rep, h_all):
    """Solve the non-complementary equations h_i = 0 height by height.

    Returns (f, lbar, pbar, sigma, images): eta_i = f_i for every index
    i > l, the linear/nonlinear splits lbar/pbar of the f_i, the
    substitution sigma (eta_i -> eta_i for i <= l, f_i above) and the cache
    of its images that `invariants` reuses.  Every substitution here and
    there shares that one cache.  It is never stale: a cached entry is a
    power of a derivative of sigma[v] for some v already in sigma, and sigma
    only gains keys.  The keys 1..l are set first, and each later key is an
    index of the band of height q - 1 < -1, set once when the height-q
    system is solved; the bands are disjoint and none holds an index
    <= l.  The full-rank facts of the equivalent triangular system are
    asserted on the way.
    """
    rs = rep.rs
    l = rs.rank
    stage = "%s: eliminate_noncomplementary" % rs.label
    weights = _weights(rs, l)
    comp = rs.comp_roots
    noncomp_simple = [i for i in rs.band(-1) if i not in comp]

    sigma = {i: DiffPoly.eta(i) for i in range(1, l + 1)}
    images = {}
    lbar, pbar = {}, {}
    prev_matrix = None
    prev_band = None
    for q, band in rs.bands.items():
        eqs = [i for i in band if i not in comp]
        unknowns = rs.band(q - 1)
        if not eqs:
            if unknowns:
                raise RankFailure("%s: no equations for the height %d band" % (stage, q - 1))
            continue
        if len(eqs) != len(unknowns):
            raise RankFailure("%s: height %d system is not square" % (stage, q))
        a, rhs = [], []
        for i in eqs:
            hi = h_all[i - 1]
            row = [hi.coefficient_of_jet(k, 0) for k in unknowns]
            a.append(row)
            rest = hi - sum(
                (DiffPoly.eta(k) * coef for k, coef in zip(unknowns, row)),
                DiffPoly.zero(),
            )
            rhs.append((-rest).substitute(sigma, images))
        if linalg.rank(a) != len(eqs):
            raise RankFailure("%s: height %d system is rank-deficient" % (stage, q))
        solution = linalg.solve_exact(a, [rhs])[0]
        band_matrix = []
        for k, fk in zip(unknowns, solution):
            where = "eliminate_noncomplementary: f_%d" % k
            lin, nonlin = _graded_split(rs, weights, fk, 1 - q, where)
            for jv in lin.jet_variables():
                if jv.var not in noncomp_simple:
                    raise StructureViolation(
                        "%s: lbar_%d involves eta_%d" % (stage, k, jv.var)
                    )
            sigma[k] = fk
            lbar[k], pbar[k] = lin, nonlin
            band_matrix.append([lin.coefficient_of_jet(v, -q) for v in noncomp_simple])
        if linalg.rank(band_matrix) != len(band_matrix):
            raise RankFailure(
                "%s: lbar system at height %d is rank-deficient" % (stage, q - 1)
            )
        if prev_matrix is not None and q <= -2:
            # the prolonged previous system, with complementary rows gone,
            # must span the same row space as the current one
            keep = [
                row
                for i, row in zip(prev_band, prev_matrix)
                if i not in comp
            ]
            stacked = [list(r) for r in keep] + [list(r) for r in band_matrix]
            if not (
                linalg.rank(keep) == linalg.rank(band_matrix) == linalg.rank(stacked)
            ):
                raise RankFailure(
                    "%s: height %d system is not equivalent to its predecessor" % (stage, q)
                )
        prev_matrix = band_matrix
        prev_band = unknowns
    f = {k: v for k, v in sigma.items() if k > l}
    return f, lbar, pbar, sigma, images


def invariants(rep, h_all, parts):
    """Reduce the complementary h_j to invariants in eta_1..eta_l.

    `parts` is the tuple returned by eliminate_noncomplementary.  Splits
    each invariant into its linear and nonlinear part and asserts the two
    full-rank criteria (the ignored-derivative square system and its
    prolongation to the maximal order).

    No input that passes the first criterion fails the second.  The graded
    split has made lhat_j purely of order |ht beta_j| (_graded_split), and
    deriving c eta_v^(k) n times gives c eta_v^(k+n); so the coefficient of
    eta_v^(top) in the prolonged lhat_j is that of eta_v^(|ht beta_j|) in
    lhat_j, and the two matrices are equal entry by entry.  The second
    check stays as the paper states the criteria.
    """
    l = rep.rank
    stage = "%s: invariants" % rep.rs.label
    weights = _weights(rep.rs, l)
    heights = rep.rs.heights_of_order()
    f, lbar, pbar, sigma, images = parts
    comp = rep.rs.comp_roots
    h, lhat, phat = {}, {}, {}
    for j in comp:
        hj = h_all[j - 1].substitute(sigma, images)
        where = "invariants: h_%d" % j
        lin, nonlin = _graded_split(rep.rs, weights, hj, 1 - heights[j - 1], where)
        h[j], lhat[j], phat[j] = hj, lin, nonlin

    # ignoring derivatives sums the coefficients of eta_v over all orders;
    # lhat_j has the one order |ht beta_j| (_graded_split)
    ignore = [
        [lhat[j].coefficient_of_jet(v, -heights[j - 1]) for v in range(1, l + 1)] for j in comp
    ]
    if linalg.rank(ignore) != l:
        raise RankFailure("%s: ignored-derivative invariant system is rank-deficient" % stage)

    top = abs(heights[-1])
    prolonged = []
    for j in comp:
        prolong = lhat[j].derive(top - abs(heights[j - 1]))
        prolonged.append(
            [prolong.coefficient_of_jet(v, top) for v in range(1, l + 1)]
        )
    if linalg.rank(prolonged) != l:
        raise RankFailure("%s: prolonged invariant system is rank-deficient" % stage)
    return InvariantSet(f=f, h=h, lhat=lhat, phat=phat, lbar=lbar, pbar=pbar)


def assemble_A_G(rep, h):
    """A_G(h) = A_0^+ + sum of h_j X_j over the complementary indices j;
    `h` maps each complementary index to its DiffPoly coefficient."""
    rs = rep.rs
    coords = {("X", rs.simple(i).coeffs): DiffPoly.rational(1) for i in range(1, rs.rank + 1)}
    coords.update((("X", rs.neg_order[j - 1].coeffs), hj) for j, hj in h.items())
    return chevalley.compose(rep, coords, DiffPoly.zero())


def specialize(rep, inv, sigma):
    """Apply a total specialization eta_i -> sigma(eta_i) to the invariants.

    sigma maps each of eta_1..eta_l to a DiffPoly or rational.  Returns the
    specialized invariant values keyed by complementary index together with
    the specialized defining matrix A_G(sigma(h)).
    """
    total = {var: lift(value) for var, value in sigma.items()}
    values = {j: hj.substitute(total) for j, hj in sorted(inv.h.items())}
    return values, assemble_A_G(rep, values)


def verify_end_to_end(rep, data, inv):
    """Check d(Y) = A_G(h) Y through an equivalent DiffPoly identity.

    Write the fundamental matrix Y = U N T with U = u(eta_1..eta_l,
    f_(l+1)..f_m) over DiffPoly, N = n(wbar) a signed permutation and
    T = t(z) u(y) Liouvillian.  ldelta(T) = A_L is re-verified first, so
    dT = A_L T.  Since dN = 0,

        d(Y) - A_G(h) Y = (dU N + U N A_L - A_G(h) U N) T = M N T,
        M = dU + U B - A_G(h) U,  B = N A_L N^-1 = weyl_adjoint(N, A_L).

    N T is invertible (t(z) is diagonal with products of the exponentials
    z_i^(+-1) on the diagonal, u(y) is unipotent), so M N T = 0 if and only
    if M = 0, and row r of d(Y) - A_G(h) Y, row r of M times N T, vanishes
    if and only if row r of M does.  Every factor of M has DiffPoly or rational entries,
    and DiffPoly embeds in the Liouvillian algebra through
    LiouvExpr.scalar, an injective ring map that commutes with the
    derivation; so M = 0 over the Liouvillian algebra if and only if
    M = 0 entrywise over DiffPoly, which is what is checked.
    linalg.gauge_defect sums each entry of M once, from the rows of U, B
    and A_G(h), and tests it for zero exactly, without forming dU, U B or
    A_G(h) U; a failure names the system and the first entry, row by row,
    that is not zero.
    """
    l, m = rep.rank, rep.m
    _check_tower_matrix(rep, data)
    u = unipotent_product(
        rep, [DiffPoly.eta(i) if i <= l else inv.f[i] for i in range(1, m + 1)]
    )
    b = chevalley.weyl_adjoint(data.nw, data.A_L)
    entry = linalg.gauge_defect(u, b, assemble_A_G(rep, inv.h))
    if entry is not None:
        raise IdentityFailure(
            "%s: (d(Y) - A_G(h) Y) (n(wbar) T)^-1 is nonzero at entry (%d, %d)"
            % (rep.rs.label, *entry)
        )
    return {
        "entries_checked": rep.dim * rep.dim,
        "liouville_identity": "ok",
        "status": "ok",
    }


@dataclass(frozen=True)
class PipelineResult:
    rep: object
    stage1: Stage1Coeffs
    stage2: Stage2Coeffs
    liouville: LiouvilleData
    h_raw: tuple
    invariants: InvariantSet
    A_G: tuple


# The derivation's cost grows steeply with the rank: on a 2-core x86_64 host
# whose speed varies by up to 2.7x, the pipeline, the end-to-end check and
# the report take 0.54 s for D5 in its slow phase but 105 s for D7 (73
# reference seconds, perfbench/speed.py: 32 for the pipeline, 29 for the
# check and 12 for the report) in one cold process, whose peak resident set
# is 412 MB after the pipeline, 850 MB after the check and 1.01 GB after
# the report.  A larger request is refused up front instead of running for
# hours.
MAX_RANK = 8


def run_pipeline(type_label, rank):
    """Run every stage for the given system and return the full result.

    Raises UnsupportedType for a system rootsys does not admit, then
    RankCeiling for a rank above MAX_RANK.
    """
    rootsys.check_admissible(type_label, rank)
    if rank > MAX_RANK:
        raise RankCeiling(
            "%s rank %d is above the derivation's rank ceiling of %d"
            % (type_label, rank, MAX_RANK)
        )
    rep = chevalley.build_rep(type_label, rank)
    eta = tuple(DiffPoly.eta(i) for i in range(1, rep.m + 1))
    stage1 = logderiv_unipotent(rep, eta)
    stage2 = adjoint_on_A0(rep, eta)
    data = liouville_solutions(rep, build_A_L(rep, stage2), stage1)
    h_all = logderiv_Y(rep, eta, stage2)
    parts = eliminate_noncomplementary(rep, h_all)
    inv = invariants(rep, h_all, parts)
    ag = assemble_A_G(rep, inv.h)
    return PipelineResult(
        rep=rep,
        stage1=stage1,
        stage2=stage2,
        liouville=data,
        h_raw=tuple(h_all),
        invariants=inv,
        A_G=tuple(tuple(r) for r in ag),
    )


# ----- serialization -----


def _report_tree(result):
    """The report as a tree of dicts, lists, strings, ints and the pipeline's
    own DiffPoly and LiouvExpr values, which `json_chunks` renders."""
    inv = result.invariants
    return {
        "system": {
            "type": result.rep.rs.type_label,
            "rank": result.rep.rs.rank,
            "root_system": result.rep.rs.to_json_obj(),
        },
        "stage1": {"v": {str(i): v for i, v in result.stage1.v.items()}},
        "stage2": {"g": result.stage2.g, "ell": result.stage2.ell, "p": result.stage2.p},
        "A_L": result.liouville.A_L,
        "c": [frac_text(x) for x in result.liouville.c],
        "gbar": result.liouville.gbar,
        "z": result.liouville.z,
        "y": result.liouville.y,
        "h_raw": result.h_raw,
        "f": {str(k): v for k, v in inv.f.items()},
        "invariants": {
            str(k): {"h": inv.h[k], "linear": inv.lhat[k], "nonlinear": inv.phat[k]}
            for k in inv.h
        },
        "A_G": result.A_G,
    }


def report_chunks(result):
    """The JSON report, json.dumps(..., sort_keys=True, indent=1) of the
    pipeline result, as a stream of text chunks."""
    return json_chunks(_report_tree(result))


def report_json(result):
    """The JSON report as one string."""
    return "".join(report_chunks(result))
