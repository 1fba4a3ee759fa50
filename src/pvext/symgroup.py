"""Group elements as words in one-parameter subgroups.

A Factor is one letter of such a word: u_root(x), t_i(z) or a constant
rational matrix such as n(w).  Each carries its matrix, its inverse and its
logarithmic derivative ldelta = d(M) M^{-1}, all three in closed form from
the group law, so no symbolic inversion is ever attempted.  A root subgroup
letter u_root(x) = 1 + N also carries the few cells of N and of the N of
its inverse, read off the integer divided powers of X_root, and multiplies
a matrix through them (linalg.unipotent_mul); the torus and constant
letters multiply by linalg.mat_mul.  On products of factors this module
computes the logarithmic derivative by the product rule, the adjoint action
and the gauge action.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from . import chevalley, linalg
from .errors import NotClosedFormInvertible


@dataclass(frozen=True)
class Factor:
    """A group element with its inverse and ldelta; ldelta None means 0.

    A root subgroup element also has `cells` and `inv_cells`, the cells
    {(r, c): v} of rows - 1 and of inv - 1 (see root_element); they are
    None for every other factor.  They are read off rows and inv, so
    equality and the hash leave them out.
    """

    rows: tuple
    inv: tuple
    ldelta: tuple = None
    cells: dict = field(default=None, compare=False)
    inv_cells: dict = field(default=None, compare=False)


def _freeze(m):
    return tuple(tuple(row) for row in m)


def _scaled(mat, c):
    """c M for an integer basis matrix M, in the ring of c."""
    return _freeze(linalg.combination([(c, mat)], len(mat), linalg.zero_of(c)))


def root_element(rep, root, x):
    """u_root(x) = exp(x X_root) and the cells {(r, c): v} of u_root(x) - 1.

    The cells are the places of rep.exp_cells[root], where some divided
    power X^k/k!, k >= 1, is non-zero, or none when x = 0; no entry of the
    matrix is tested.  These are the non-zero entries of u - 1: the
    diagonal of u is the ring's one, and off it an entry is x^k times a
    non-zero int at a cell (chevalley.unipotent_element) and zero
    elsewhere; x^k p is non-zero when x is, since Fractions, DiffPolys and
    LiouvExprs form domains.
    """
    m = chevalley.unipotent_element(rep, root, x)
    return m, {(r, c): m[r][c] for r, c, _, _ in rep.exp_cells[root.coeffs]} if x else {}


def unipotent_matrix(rep, root, x):
    """u_root(x) = exp(x X_root), its inverse u_root(-x), ldelta x' X_root,
    and the cells of both (root_element).

    X = X_root is constant and nilpotent, so exp(xX) = sum_k x^k X^k / k!
    is a finite sum.  Differentiating it term by term,
    d exp(xX) = sum_k k x^(k-1) x' X^k / k! = x' X exp(xX), since X^k
    commutes with x' X; so ldelta(exp(xX)) = x' X.  xX and -xX commute,
    so exp(xX) exp(-xX) = exp(0) = 1.
    """
    rows, cells = root_element(rep, root, x)
    inv, inv_cells = root_element(rep, root, -x)
    return Factor(
        _freeze(rows),
        _freeze(inv),
        _scaled(rep.X[root.coeffs], linalg.derive(x)),
        cells,
        inv_cells,
    )


def torus_matrix(rep, i, z):
    """t_i(z) = z^(H_i) = diag(z^(h_j)), its inverse t_i(1/z), ldelta (z'/z) H_i.

    The h_j are the integer diagonal entries of H_i.  On the diagonal,
    d(z^h) z^(-h) = h z^(h-1) z' z^(-h) = h z'/z, and z^h z^(-h) = 1.
    """
    zinv = z ** -1
    return Factor(
        _freeze(chevalley.torus_element(rep, i, z)),
        _freeze(chevalley.torus_element(rep, i, zinv)),
        _scaled(rep.H[i - 1], linalg.derive(z) * zinv),
    )


def constant_matrix(m):
    """A constant invertible rational matrix, e.g. n(w); its ldelta is 0."""
    rows = _freeze(m)
    if not all(isinstance(x, (int, Fraction)) for row in rows for x in row):
        raise ValueError("a constant factor needs rational entries")
    return Factor(rows, _freeze(linalg.rational_inverse(rows)))


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


def left_multiply(f, a):
    """f a for a factor f, as linalg.mat_mul(f.rows, a) forms it."""
    if f.cells is None:
        return linalg.mat_mul(f.rows, a)
    return linalg.unipotent_mul(f.rows, f.cells, a)


def adjoint(g, a):
    """Ad(g)(A) = g A g^{-1} for a factor or an ordered list of factors,
    each letter as mat_mul(mat_mul(f.rows, A), f.inv) forms it."""
    for f in reversed(_factors(g)):
        a = left_multiply(f, a)
        if f.inv_cells is None:
            a = linalg.mat_mul(a, f.inv)
        else:
            a = linalg.unipotent_mul(f.inv, f.inv_cells, a, right=True)
    return a


def gauge(g, a):
    """Gauge transformation Ad(g)(A) + ldelta(g)."""
    return linalg.mat_add(adjoint(g, a), log_derivative(g))
