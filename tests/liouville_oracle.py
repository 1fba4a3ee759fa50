"""The defining identity checked the slow way, as a test oracle.

Multiplies the fundamental matrix Y = u(eta_1..eta_l, f_(l+1)..f_m)
n(wbar) t(z) u(y) out over the Liouvillian expression algebra and compares
d(Y) with A_G(h) Y entrywise.  It relies on no identity of the pipeline,
so it cross-checks construct.verify_end_to_end, which checks an equivalent
polynomial identity; n(wbar) is chevalley_oracle's dense product, not
pvext's relabelling.  It takes seconds from rank 4 on, so the tests run it
on small systems only.
"""

from pvext import construct, linalg, rootsys
from pvext.diffpoly import DiffPoly
from pvext.errors import IdentityFailure
from pvext.liouville_expr import LiouvExpr

import chevalley_oracle
import factor_oracle
import linalg_oracle


def verify_by_liouville_product(rep, data, inv):
    """Raise IdentityFailure unless d(Y) = A_G(h) Y over LiouvExpr."""
    l, m = rep.rank, rep.m
    args = [
        LiouvExpr.scalar(DiffPoly.eta(i) if i <= l else inv.f[i]) for i in range(1, m + 1)
    ]
    y_mat = linalg_oracle.eye(rep.dim, LiouvExpr.rational(1), LiouvExpr.zero())
    for root, a in zip(rep.rs.neg_order, args):
        y_mat = linalg.mat_mul(y_mat, factor_oracle.unipotent_matrix(rep, root, a).rows)
    nw = chevalley_oracle.weyl_representative(rep, rootsys.longest_weyl_word(rep.rs))
    y_mat = linalg.mat_mul(y_mat, [[LiouvExpr.rational(x) for x in row] for row in nw])
    for i, zi in enumerate(data.z, start=1):
        y_mat = linalg.mat_mul(y_mat, factor_oracle.torus_matrix(rep, i, zi).rows)
    for root, yi in zip(rep.rs.neg_order, data.y):
        y_mat = linalg.mat_mul(y_mat, factor_oracle.unipotent_matrix(rep, root, yi).rows)
    ag = [[LiouvExpr.scalar(x) for x in row] for row in construct.assemble_A_G(rep, inv.h)]
    if not linalg.mat_eq(linalg_oracle.mat_derive(y_mat), linalg.mat_mul(ag, y_mat)):
        raise IdentityFailure("d(Y) - A_G(h) Y is nonzero over LiouvExpr")
