"""Normalization of defining matrices to the generic shape A_G(f).

A matrix in the plane A_0^+(s) + b^- is gauge equivalent to A_0^+ plus
complementary-root components by a unipotent element (after a constant
torus rescaling when s != (1,..,1)).  The construction proceeds height by
height: at each level the correction splits over the W-basis, the W part
is removed by one-parameter gauges and the complementary residue is the
output f.  It runs on Chevalley coordinates and a word of letters (key, t)
alone: the torus scales root coordinates by their characters, and a root
letter gauges them by the step the construct stages share
(chevalley.unipotent_gauge).  Two exact identities close every
normalization, the residual coordinates and g' + g a = A_G(f) g for the
word's matrix g, and every failure names the system and the stage.
"""

from fractions import Fraction

from . import chevalley, construct, linalg
from .diffpoly import DiffPoly, lift_matrix
from .errors import NonUnitScaling, NotInLieAlgebra, VerificationFailure


def _plane_coordinates(rep, a):
    """(coordinates, s, None) for a matrix in A_0^+(s) + b^-, else
    (None, None, the offending coordinate or entry).

    The coordinates are decompose_in_basis's of the lifted a, the one lift
    of a normalization.  The plane needs zero coefficients on the
    non-simple positive roots and nonzero constant coefficients s_i on the
    simple positive roots.  Raises DimMismatch unless a is rep.dim x
    rep.dim.
    """
    try:
        dec = chevalley.decompose_in_basis(rep, lift_matrix(a))
    except NotInLieAlgebra as exc:
        return None, None, str(exc)
    s = []
    for i in range(1, rep.rank + 1):
        key = ("X", rep.rs.simple(i).coeffs)
        if dec[key].is_zero() or not dec[key].is_rational():
            return None, None, "the X_%r coefficient is not a nonzero constant" % (key[1],)
        s.append(dec[key].constant_term())
    for b in rep.rs.neg_order:
        pos = -b
        if not pos.is_simple() and dec[("X", pos.coeffs)]:
            return None, None, "the X_%r coefficient is nonzero" % (pos.coeffs,)
    return dec, tuple(s), None


def is_in_plane(rep, a):
    """Whether a matrix lies in A_0^+(s) + b^-; returns (flag, s), s None
    outside the plane.  Raises DimMismatch unless a is rep.dim x rep.dim."""
    dec, s, _ = _plane_coordinates(rep, a)
    return dec is not None, s


def _nth_root(q, n):
    """Exact real n-th root of a Fraction, or None; the positive one for
    an even n."""
    q = Fraction(q)

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
    """Rational z with Ad(t(z))(A_0^+(s)) = A_0^+, or NonUnitScaling.

    Ad(t(z)) scales X_alpha_i by chi_alpha_i(z) = prod_j z_j^C[i][j]
    (chevalley.character), so z solves chi_alpha_i(z) s_i = 1: log z =
    C^{-1} (-log s), z_j = prod_i s_i^(-C^{-1}[j][i]), each power an exact
    rational root or a NonUnitScaling.  The check chi_alpha_i(z) s_i = 1
    guards chevalley.character, by which the coordinates are rescaled; no
    input reaches its raise.  Proof: _nth_root(s^p, q) is the real root of
    s^p, positive for an even q, and for an even q of an exponent p/q in
    lowest terms p is odd, so an s_i < 0 gets a root only for odd q.  e ->
    x^e turns sums into products on rational e for x > 0, and on e with
    odd denominators for x < 0, so chi_alpha_i(z) = prod_k s_k^e_k with
    e_k = -sum_j C[i][j] C^{-1}[j][k] = -delta_ik, which is 1/s_i.
    """
    rs = rep.rs
    z = []
    for row in linalg.rational_inverse(rs.cartan):
        value = Fraction(1)
        for si, c in zip(s, row):
            if c:
                e, base = -c, Fraction(si)
                root = _nth_root(base ** e.numerator, e.denominator)
                if root is None:
                    raise NonUnitScaling(
                        "%s: normalize_to_AG: rescaling needs the radical (%s)^(1/%d)"
                        % (rs.label, base ** abs(e.numerator), e.denominator)
                    )
                value *= root
        z.append(value)
    for i, si in enumerate(s, start=1):
        if chevalley.character(rs, z, rs.simple(i).coeffs) * si != 1:
            raise NonUnitScaling(
                "%s: normalize_to_AG: chi_alpha_%d(z) s_%d != 1" % (rs.label, i, i)
            )
    return z


def normalize_to_AG(rep, a):
    """Gauge a plane matrix to the shape A_0^+ + sum f_j X_j.

    Returns (g, word, f).  word lists the letters (key, t) of the
    transform, applied first to last: (("H", j), z_j) for the constant
    torus t(z) when s != (1,..,1), then (("X", b), t) for each root letter
    u_b(t), t = 0 included.  g = letter_k ... letter_1 is the word's
    matrix (chevalley.word_element, which multiplies by each letter
    through its cells), with DiffPoly entries.  f maps each
    complementary index to its DiffPoly coefficient.  Raises DimMismatch
    unless a is rep.dim x rep.dim (decompose_in_basis, in the plane test).

    The running matrix is carried by its coordinates `current` over the
    Chevalley basis, decompose_in_basis's keys with the zeros left out.
    The input is lifted and decomposed once, by the plane test.  t(z) is
    constant, so gauge(t(z), A) = Ad(t(z))(A), which fixes the H_i and
    scales X_b by chi_b(z) (chevalley.character, proved there).  A root
    letter acts by gauge(u, A) = Ad(u)(A) + t' X_b (chevalley.unipotent_gauge,
    proved there), which derives t once.  So `current` always holds the
    coordinates of the matrix the letters' gauges give, and each level
    reads its correction there.

    Two exact checks, each raising VerificationFailure:

    - The residual: `current` equals the coordinates of A_G(f), which are
      one on each simple positive root, f_j on X_j and zero elsewhere.
      Two sums of basis matrices agree iff their coordinates do, the basis
      being independent (decompose_in_basis), so this is the matrix
      identity "the gauged input is A_G(f)".  It fires when the coordinate
      action goes wrong where the level solves do not look, e.g. a wrong
      [X_b, X_alpha_i] leaves a W-component of the image of A_0^+
      uncorrected.
    - The returned g: g' + g a = A_G(f) g, in matrices, from the letters'
      matrices alone (exp_cells and the H_i diagonals, not nconst or the
      characters), so it also catches coordinates that drifted into a
      wrong x or f the residual accepts, or a letter whose matrix is
      wrong.  This is gauge(g, a) = A_G(f).  Proof: gauge(g, a) = g a
      g^{-1} + g' g^{-1}, and g is invertible (u_b(t)^-1 = u_b(-t) and
      t(z)^-1 = t(1/z)).  Multiplying g a g^{-1} + g' g^{-1} = A_G(f) on
      the right by g gives the identity checked, and multiplying that by
      g^{-1} gives back the first.  It holds for g = letter_k ...
      letter_1 because gauge(h, gauge(k, a)) = gauge(h k, a).
      linalg.gauge_defect sums each entry of g' + g a - A_G(f) g once,
      over the input a as given, and tests it for zero, exactly, without
      forming g', g a or A_G(f) g; the failure names the first entry that
      is not zero, row by row.
    """
    rs = rep.rs
    current, s, offence = _plane_coordinates(rep, a)
    if current is None:
        raise VerificationFailure(
            "%s: normalize_to_AG: matrix is not in the plane A_0^+(s) + b^-: %s"
            % (rs.label, offence)
        )
    current = {key: c for key, c in current.items() if c}
    word = []
    if any(v != 1 for v in s):
        z = _torus_rescaling(rep, s)
        word = [(("H", j), zj) for j, zj in enumerate(z, start=1)]
        current = {
            key: c * chevalley.character(rs, z, key[1]) if key[0] == "X" else c
            for key, c in current.items()
        }

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
        columns = [[rep.w_coefficients[k - 1][c] for c in coords] for k in sources]
        for j in comp_here:
            # X_j is a basis vector: its coordinates are a unit vector
            xkey = ("X", rs.neg_order[j - 1].coeffs)
            columns.append([int(c == xkey) for c in coords])
        if not columns:
            continue
        matrix = [list(col) for col in zip(*columns)]
        solution = linalg.solve_exact(matrix, [target])[0]
        f.update(zip(comp_here, solution[len(sources):]))
        for k, xk in zip(sources, solution):
            root, t = rs.neg_order[k - 1], -xk
            word.append((("X", root.coeffs), t))
            current = chevalley.unipotent_gauge(rep, root, t, current)

    # deepest complementary components are whatever remains
    for j in comp:
        if j not in f:
            f[j] = current.get(("X", rs.neg_order[j - 1].coeffs), zero)

    residual = {("X", rs.simple(i).coeffs): DiffPoly.rational(1) for i in range(1, rs.rank + 1)}
    residual.update((("X", rs.neg_order[j - 1].coeffs), fj) for j, fj in f.items() if fj)
    if current != residual:
        raise VerificationFailure(
            "%s: normalize_to_AG: residual coordinates are not those of A_G(f)" % rs.label
        )
    g = chevalley.word_element(rep, word[::-1])
    entry = linalg.gauge_defect(g, a, construct.assemble_A_G(rep, f))
    if entry is not None:
        raise VerificationFailure(
            "%s: normalize_to_AG: g' + g a - A_G(f) g is nonzero at entry (%d, %d)"
            % (rs.label, *entry)
        )
    return g, word, f
