"""The letters u_root(x) and t_i(z) as symgroup.Factor matrices, as a test
oracle.

A Factor holds a group element's matrix, its inverse and its logarithmic
derivative ldelta = d(M) M^{-1}, all three in closed form from the group
law.  This is how pvext.construct re-checked the Liouvillian tower, and
pvext.gauge carried its transform, before both acted through the letters'
cells (pvext.chevalley.letter_adjoint and letter_product).  The tests hold
the letter kernels, the group law and pvext.symgroup's product rule to
these matrices.
"""

from pvext import chevalley, linalg, symgroup


def _freeze(m):
    return tuple(tuple(row) for row in m)


def unipotent_matrix(rep, root, x):
    """u_root(x) = exp(x X_root), its inverse u_root(-x), ldelta x' X_root.

    X = X_root is constant and nilpotent, so exp(xX) = sum_k x^k X^k / k!
    is a finite sum.  Differentiating it term by term,
    d exp(xX) = sum_k k x^(k-1) x' X^k / k! = x' X exp(xX), since X^k
    commutes with x' X; so ldelta(exp(xX)) = x' X.  xX and -xX commute,
    so exp(xX) exp(-xX) = exp(0) = 1.

    u_root(-x) is u_root(x) with the cells of odd k negated: each cell
    (r, c, k, p) of rep.exp_cells holds the single term x^k p
    (chevalley.unipotent_element proves that no cell gets two), and
    (-x)^k p = (-1)^k x^k p.  The diagonal and the zero cells keep their
    entries, as unipotent_element(rep, root, -x) builds them.
    """
    rows = chevalley.unipotent_element(rep, root, x)
    inv = [list(row) for row in rows]
    if x:
        for r, c, k, _ in rep.exp_cells[root.coeffs]:
            if k % 2:
                inv[r][c] = -inv[r][c]
    dx = linalg.derive(x)
    ldelta = chevalley.compose(rep, {("X", root.coeffs): dx}, linalg.zero_of(dx))
    return symgroup.Factor(_freeze(rows), _freeze(inv), _freeze(ldelta))


def torus_matrix(rep, i, z):
    """t_i(z) = z^(H_i) = diag(z^(h_j)), its inverse t_i(1/z), ldelta (z'/z) H_i.

    The h_j are the integer diagonal entries of H_i.  On the diagonal,
    d(z^h) z^(-h) = h z^(h-1) z' z^(-h) = h z'/z, and z^h z^(-h) = 1.
    """
    zinv = z ** -1
    c = linalg.derive(z) * zinv
    return symgroup.Factor(
        _freeze(chevalley.torus_element(rep, i, z)),
        _freeze(chevalley.torus_element(rep, i, zinv)),
        _freeze(chevalley.compose(rep, {("H", i): c}, linalg.zero_of(c))),
    )
