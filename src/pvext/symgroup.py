"""Group elements as words in one-parameter subgroups, in matrices.

A Factor is one letter of such a word, u_root(x) or t_i(z), as its matrix,
its inverse and its logarithmic derivative ldelta = d(M) M^{-1}, all three
in closed form from the group law, so no symbolic inversion is ever
attempted.  On products of factors this module computes the logarithmic
derivative by the product rule, the adjoint action and the gauge action.
The end-to-end check's tower identity and the test oracles use them; the
stages and the gauge normalization act on Chevalley coordinates instead,
and form a word's matrix alone by chevalley.word_element.
"""

from dataclasses import dataclass

from . import chevalley, linalg
from .errors import NotClosedFormInvertible


@dataclass(frozen=True)
class Factor:
    """A group element with its inverse and ldelta; ldelta None means 0."""

    rows: tuple
    inv: tuple
    ldelta: tuple = None


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
    return Factor(_freeze(rows), _freeze(inv), _freeze(ldelta))


def torus_matrix(rep, i, z):
    """t_i(z) = z^(H_i) = diag(z^(h_j)), its inverse t_i(1/z), ldelta (z'/z) H_i.

    The h_j are the integer diagonal entries of H_i.  On the diagonal,
    d(z^h) z^(-h) = h z^(h-1) z' z^(-h) = h z'/z, and z^h z^(-h) = 1.
    """
    zinv = z ** -1
    c = linalg.derive(z) * zinv
    return Factor(
        _freeze(chevalley.torus_element(rep, i, z)),
        _freeze(chevalley.torus_element(rep, i, zinv)),
        _freeze(chevalley.compose(rep, {("H", i): c}, linalg.zero_of(c))),
    )


def _factors(g):
    """g as a list of factors; a plain matrix has no closed-form inverse."""
    factors = [g] if isinstance(g, Factor) else list(g)
    if not factors or not all(isinstance(f, Factor) for f in factors):
        raise NotClosedFormInvertible("not a product of group factors")
    return factors


def log_derivative(g):
    """ldelta(g) = d(g) g^{-1} for a factor or an ordered list of factors.

    Products use ldelta(AB) = ldelta(A) + Ad(A)(ldelta(B)).
    """
    factors = _factors(g)
    out = None
    for f in reversed(factors):
        if out is not None:
            out = adjoint(f, out)
        if f.ldelta is not None:
            out = f.ldelta if out is None else linalg.mat_add(f.ldelta, out)
    if out is None:
        return linalg.zeros(len(factors[0].rows))
    return [list(r) for r in out]


def adjoint(g, a):
    """Ad(g)(A) = g A g^{-1} for a factor or an ordered list of factors."""
    for f in reversed(_factors(g)):
        a = linalg.mat_mul(linalg.mat_mul(f.rows, a), f.inv)
    return a


def gauge(g, a):
    """Gauge transformation Ad(g)(A) + ldelta(g)."""
    return linalg.mat_add(adjoint(g, a), log_derivative(g))
