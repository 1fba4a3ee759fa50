"""The construct stages' coordinates by the matrix path, as a test oracle.

This is how pvext.construct computed its stages before they acted on
Chevalley coordinates: u = u_1(a_1)...u_m(a_m) and its inverse
u_m(-a_m)...u_1(-a_1) as n x n matrices multiplied out of the group
factors, ldelta(u) = du u^-1 and Ad(u)(A) = u A u^-1 in matrices, and
decompose_in_basis of each result; the Liouvillian tower is ldelta of the
factor product t(z) u(y), over LiouvExpr.  Every map leaves out its zero
coordinates, as the coordinate stages do.  Two routes of the stages
themselves are kept beside it: ldelta(Y) by conjugating A_L, and the
integrands of the tower's y_i.
"""

from functools import reduce

from pvext import chevalley, linalg, symgroup
from pvext.diffpoly import DiffPoly, lift
from pvext.liouville_expr import LiouvExpr

import factor_oracle
import linalg_oracle


def product(mats):
    """The matrix product of a word, one linalg.mat_mul per letter."""
    return [list(r) for r in reduce(linalg.mat_mul, mats)]


def coordinates(rep, a):
    """decompose_in_basis of a matrix, zeros left out."""
    return {key: c for key, c in chevalley.decompose_in_basis(rep, a).items() if c}


class UnipotentPath:
    """u(args) and u^-1 built once from the factors, acting in matrices."""

    def __init__(self, rep, args):
        factors = [factor_oracle.unipotent_matrix(rep, b, a) for b, a in zip(rep.rs.neg_order, args)]
        self.rep = rep
        self.u = product(f.rows for f in factors)
        self.uinv = product(f.inv for f in reversed(factors))
        self.ldelta = linalg.mat_mul(linalg_oracle.mat_derive(self.u), self.uinv)

    def adjoint(self, a):
        """u a u^-1."""
        return linalg.mat_mul(linalg.mat_mul(self.u, a), self.uinv)

    def ldelta_coordinates(self):
        """Stage 1: the coordinates of ldelta(u)."""
        return coordinates(self.rep, self.ldelta)

    def adjoint_coordinates(self, a):
        """Stage 2 for a = A_0^+: the coordinates of Ad(u)(a)."""
        return coordinates(self.rep, self.adjoint(a))

    def gauge_coordinates(self, a):
        """ldelta(Y) for a = Ad(n(wbar))(A_L): the coordinates of
        ldelta(u) + Ad(u)(a)."""
        return coordinates(self.rep, linalg.mat_add(self.ldelta, self.adjoint(a)))


def tower_coordinates(rep, z, y):
    """The coordinates of ldelta(t(z) u(y)) from the group factors' matrices."""
    torus = [factor_oracle.torus_matrix(rep, i, zi) for i, zi in enumerate(z, start=1)]
    unipotent = [factor_oracle.unipotent_matrix(rep, b, yi) for b, yi in zip(rep.rs.neg_order, y)]
    return coordinates(rep, symgroup.log_derivative(torus + unipotent))


def logderiv_Y_by_conjugation(rep, eta, data):
    """The h_i of ldelta(Y) = gauge(u(eta), Ad(n(wbar))(A_L)), the
    unipotent_gauge fold started from the coordinates of the conjugated
    A_L, as pvext.construct computed them before it took them from stage 2."""
    ad = chevalley.decompose_in_basis(rep, chevalley.weyl_adjoint(data.nw, data.A_L))
    coords = {key: lift(c) for key, c in ad.items() if c}
    for root, a in reversed(list(zip(rep.rs.neg_order, eta))):
        coords = chevalley.unipotent_gauge(rep, root, a, coords)
    return [coords.get(("X", b.coeffs), DiffPoly.zero()) for b in rep.rs.neg_order]


def y_integrands(rep, data, stage1):
    """The integrand of each y_i of the tower: c_i / chi_i at a simple
    index, chi_i the character of beta_i at z, and -v_i above, evaluated at
    the y_k and, for y_k', at the integrands already found, never at a
    derivative of y_k."""
    rs = rep.rs
    out = []
    for i, b in enumerate(rs.neg_order, start=1):
        if i <= rep.rank:
            out.append(chevalley.character(rs, data.z, b.coeffs) ** -1 * data.c[i - 1])
        else:
            def value_of(jv):
                return (data.y, out)[jv.order][jv.var - 1]

            out.append((-stage1.v[i]).evaluate(value_of, LiouvExpr))
    return out
