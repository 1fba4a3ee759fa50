"""Normalization of defining matrices to the generic shape A_G(f).

A matrix in the plane A_0^+(s) + b^- is gauge equivalent to A_0^+ plus
complementary-root components by a unipotent element (after a torus
rescaling when s != (1,..,1)).  The construction proceeds height by
height: at each level the correction splits over the W-basis, the W part
is removed by one-parameter gauges and the complementary residue is the
output f.  The running matrix is carried in coordinates over the
Chevalley basis: the input is decomposed once, and each root factor gauges
the coordinates by exp(t ad X) plus t' X, read off the checked structure
constants (chevalley.unipotent_gauge, the step the construct stages
share).  Two exact identities close every normalization: the residual
coordinates are those of A_G(f), and the returned element g satisfies
g' + g a = A_G(f) g, i.e. gauge(g, a) = A_G(f), checked in matrices from
the factors alone, every entry summed once by linalg.gauge_defect.
"""

from fractions import Fraction

from . import chevalley, construct, linalg, symgroup
from .diffpoly import DiffPoly, lift_matrix
from .errors import NonUnitScaling, NotInLieAlgebra, VerificationFailure


def _plane_coordinates(rep, a):
    """(coordinates, s) for a matrix in A_0^+(s) + b^-, else (None, None).

    The coordinates are decompose_in_basis's of the lifted a.  The plane
    needs zero coefficients on the non-simple positive roots and nonzero
    constant coefficients s_i on the simple positive roots.  Raises
    DimMismatch unless a is rep.dim x rep.dim.
    """
    try:
        dec = chevalley.decompose_in_basis(rep, lift_matrix(a))
    except NotInLieAlgebra:
        return None, None
    s = []
    for i in range(1, rep.rank + 1):
        coef = dec.get(("X", rep.rs.simple(i).coeffs), DiffPoly.zero())
        if coef.is_zero() or not coef.is_rational():
            return None, None
        s.append(coef.constant_term())
    for b in rep.rs.neg_order:
        pos = -b
        if not pos.is_simple() and dec.get(("X", pos.coeffs)):
            return None, None
    return dec, tuple(s)


def is_in_plane(rep, a):
    """Whether a matrix lies in A_0^+(s) + b^-; returns (flag, s), s None
    outside the plane.  Raises DimMismatch unless a is rep.dim x rep.dim."""
    dec, s = _plane_coordinates(rep, a)
    return dec is not None, s


def _nth_root(q, n):
    """Exact n-th root of a Fraction, or None."""
    q = Fraction(q)
    if n == 1:
        return q
    if q < 0 and n % 2 == 0:
        return None

    def iroot(value, k):
        if value < 0:
            r = iroot(-value, k)
            return None if r is None or k % 2 == 0 else -r
        if value in (0, 1):
            return value
        lo, hi = 0, 1 << (value.bit_length() // k + 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if mid ** k < value:
                lo = mid + 1
            else:
                hi = mid
        return lo if lo ** k == value else None

    num = iroot(q.numerator, n)
    den = iroot(q.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _torus_rescaling(rep, s):
    """Constants z with Ad(t(z))(A_0^+(s)) = A_0^+, or NonUnitScaling."""
    l = rep.rank
    cartan = rep.rs.cartan
    # solve prod_j z_j^{C[i][j]} = 1/s_i multiplicatively: z_j is a product
    # of rational powers of the s_i determined by the inverse Cartan matrix
    cinv = linalg.rational_inverse(cartan)
    z = []
    for j in range(l):
        value = Fraction(1)
        for i in range(l):
            # log z = C^{-1} (-log s), so z_j = prod_i s_i^(-cinv[j][i])
            e = -cinv[j][i]
            if not e:
                continue
            base = Fraction(s[i])
            root = _nth_root(base ** e.numerator, e.denominator)
            if root is None:
                raise NonUnitScaling(
                    "rescaling needs the radical (%s)^(1/%d)" % (base ** abs(e.numerator), e.denominator)
                )
            value *= root
        z.append(value)
    check = [Fraction(s[i]) for i in range(l)]
    for i in range(l):
        acc = Fraction(1)
        for j in range(l):
            acc *= z[j] ** cartan[i][j]
        if acc * check[i] != 1:
            raise NonUnitScaling("rescaling verification failed")
    return z


def normalize_to_AG(rep, a):
    """Gauge a plane matrix to the shape A_0^+ + sum f_j X_j.

    Returns (g, factors, f): g is the transforming matrix (unipotent when
    s = (1,..,1), otherwise a unipotent times a constant torus element),
    factors is the ordered list of group factors, applied first to
    last, so g = factors[-1] ... factors[0]; f maps each complementary
    index to its DiffPoly coefficient.  Raises DimMismatch unless a is
    rep.dim x rep.dim (decompose_in_basis, in the plane test).

    The running matrix is carried by its coordinates `current` over the
    Chevalley basis, decompose_in_basis's keys with the zeros left out.
    The input is decomposed once, by the plane test; when s != (1,..,1)
    the torus factor gauges the matrix and the result is decomposed once
    more.  A root factor u_b(t) then acts on the coordinates alone, by
    gauge(u, A) = Ad(u)(A) + t' X_b (chevalley.unipotent_gauge, proved
    there).  So `current` always holds the coordinates of the matrix the
    factors' gauges give, and each level reads its correction there.

    Two exact checks, each raising VerificationFailure:

    - The residual: `current` equals the coordinates of A_G(f), which are
      one on each simple positive root, f_j on X_j and zero elsewhere.
      This is the matrix identity "the gauged input is A_G(f)": a matrix
      is the sum of its coordinates times the basis matrices, and two
      such sums agree iff the coordinates do, because the basis is
      independent (build_rep's recipe raises SpanFailure unless it finds
      one independent row of entries per basis element, so the basis has
      full rank).  It fires when the coordinate action goes wrong where
      the level solves do not look, e.g. a wrong [X_b, X_alpha_i] leaves
      a W-component of the image of A_0^+ uncorrected.
    - The returned g: g' + g a = A_G(f) g, in matrices, from the factors'
      rows alone (exp_cells, not nconst), so it also catches coordinates
      that drifted into a wrong x or f the residual accepts, or a factor
      whose rows are wrong.  This is gauge(g, a) = A_G(f).  Proof:
      gauge(g, a) = g a g^{-1} + g' g^{-1}, and g is invertible (each
      factor has its inverse in closed form).  Multiplying g a g^{-1} +
      g' g^{-1} = A_G(f) on the right by g gives the identity checked, and
      multiplying that by g^{-1} gives back the first.  It holds for
      g = factors[-1] ... factors[0] because gauge(h, gauge(k, a)) =
      gauge(h k, a).  linalg.gauge_defect sums each entry of g' + g a -
      A_G(f) g once and tests it for zero, exactly, without forming g',
      g a or A_G(f) g; the failure names the system and the first entry
      that is not zero, row by row.
    """
    current, s = _plane_coordinates(rep, a)
    if current is None:
        raise VerificationFailure("matrix is not in the plane A_0^+(s) + b^-")
    a = lift_matrix(a)
    factors = []
    if any(Fraction(v) != 1 for v in s):
        tm = symgroup.constant_torus(rep, _torus_rescaling(rep, s))
        factors.append(tm)
        current = chevalley.decompose_in_basis(rep, symgroup.gauge(tm, a))
    current = {key: c for key, c in current.items() if c}

    rs = rep.rs
    comp = rs.comp_roots
    zero = DiffPoly.zero()
    f = {}
    for level in [0] + list(rs.bands):
        band, sources = rs.band(level), rs.band(level - 1)
        comp_here = [i for i in band if i in comp]
        if level == 0:
            coords = [("H", i) for i in range(1, rs.rank + 1)]
        else:
            coords = [("X", rs.neg_order[i - 1].coeffs) for i in band]
        target = [current.get(c, zero) for c in coords]
        columns = []
        for k in sources:
            wdec = rep.w_coefficients[k - 1]
            columns.append([wdec[c] for c in coords])
        for j in comp_here:
            # X_j is a basis vector: its coordinates are a unit vector
            xkey = ("X", rs.neg_order[j - 1].coeffs)
            columns.append([int(c == xkey) for c in coords])
        if not columns:
            continue
        matrix = [list(col) for col in zip(*columns)]
        solution = linalg.solve_exact(matrix, [target])[0]
        xs = solution[: len(sources)]
        residues = solution[len(sources):]
        for j, res in zip(comp_here, residues):
            f[j] = res
        for k, xk in zip(sources, xs):
            root = rs.neg_order[k - 1]
            factors.append(symgroup.unipotent_matrix(rep, root, -xk))
            current = chevalley.unipotent_gauge(rep, root, -xk, current)

    # deepest complementary components are whatever remains
    for j in comp:
        if j not in f:
            f[j] = current.get(("X", rs.neg_order[j - 1].coeffs), zero)

    g = linalg.eye(rep.dim)
    for factor in factors:
        g = linalg.mat_mul(factor.rows, g)

    residual = {("X", rs.simple(i).coeffs): DiffPoly.rational(1) for i in range(1, rs.rank + 1)}
    residual.update((("X", rs.neg_order[j - 1].coeffs), fj) for j, fj in f.items() if fj)
    if current != residual:
        raise VerificationFailure("residual coordinates are not those of A_G(f)")
    entry = linalg.gauge_defect(g, a, construct.assemble_A_G(rep, f))
    if entry is not None:
        raise VerificationFailure(
            "%s: normalize_to_AG: g' + g a - A_G(f) g is nonzero at entry (%d, %d)"
            % (rs.label, *entry)
        )
    return g, factors, f
