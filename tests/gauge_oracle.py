"""The matrix loop pvext.gauge.normalize_to_AG ran before it carried the
running matrix in coordinates, as a test oracle.

The torus and each root factor gauge the whole DiffPoly matrix as
symgroup.Factor matrices, every height level decomposes the result again,
and g is the product of the factors' rows.  The tests require the
coordinate loop to return the same transform (entry types included), word
of letters and f.
"""

from fractions import Fraction

from pvext import chevalley, construct, linalg, symgroup
from pvext.diffpoly import DiffPoly, lift_matrix
from pvext.errors import VerificationFailure
from pvext.gauge import _torus_rescaling, is_in_plane

import factor_oracle
from conftest import constant_factor
import linalg_oracle


def normalize_to_AG(rep, a):
    """(g, word, f) as pvext.gauge.normalize_to_AG returns them."""
    ok, s = is_in_plane(rep, a)
    if not ok:
        raise VerificationFailure("matrix is not in the plane A_0^+(s) + b^-")
    a = lift_matrix(a)
    current = a
    factors, word = [], []
    if any(Fraction(v) != 1 for v in s):
        z = _torus_rescaling(rep, s)
        word = [(("H", j + 1), zj) for j, zj in enumerate(z)]
        torus = linalg.eye(rep.dim)
        for j in range(rep.rank):
            torus = linalg.mat_mul(torus, chevalley.torus_element(rep, j + 1, z[j]))
        tm = constant_factor(torus)
        factors.append(tm)
        current = symgroup.gauge(tm, current)

    rs = rep.rs
    comp = rs.comp_roots
    f = {}
    for level in [0] + list(rs.bands):
        band, sources = rs.band(level), rs.band(level - 1)
        comp_here = [i for i in band if i in comp]
        dec = chevalley.decompose_in_basis(rep, current)
        if level == 0:
            coords = [("H", i) for i in range(1, rs.rank + 1)]
        else:
            coords = [("X", rs.neg_order[i - 1].coeffs) for i in band]
        target = [dec.get(c, DiffPoly.zero()) for c in coords]
        columns = [[rep.w_coefficients[k - 1][c] for c in coords] for k in sources]
        for j in comp_here:
            xkey = ("X", rs.neg_order[j - 1].coeffs)
            columns.append([int(c == xkey) for c in coords])
        if not columns:
            continue
        matrix = [list(col) for col in zip(*columns)]
        solution = linalg.solve_exact(matrix, [target])[0]
        for j, res in zip(comp_here, solution[len(sources):]):
            f[j] = res
        for k, xk in zip(sources, solution[: len(sources)]):
            factor = factor_oracle.unipotent_matrix(rep, rs.neg_order[k - 1], -xk)
            factors.append(factor)
            word.append((("X", rs.neg_order[k - 1].coeffs), -xk))
            current = symgroup.gauge(factor, current)

    dec = chevalley.decompose_in_basis(rep, current)
    for j in comp:
        if j not in f:
            f[j] = dec.get(("X", rs.neg_order[j - 1].coeffs), DiffPoly.zero())

    g = linalg.eye(rep.dim)
    for factor in factors:
        g = linalg.mat_mul(factor.rows, g)

    want = construct.assemble_A_G(rep, f)
    if not linalg.mat_eq(current, want):
        raise VerificationFailure("residual matrix is not A_G(f)")
    lg = lift_matrix(g)
    lhs = linalg.mat_add(linalg_oracle.mat_derive(lg), linalg.mat_mul(lg, a))
    if not linalg.mat_eq(lhs, linalg.mat_mul(want, lg)):
        raise VerificationFailure("the returned g fails g' + g a = A_G(f) g")
    return g, word, f
