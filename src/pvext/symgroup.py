"""Symbolic matrix calculus: logarithmic derivative, adjoint, gauge action.

Matrices carry a structural tag that determines how they are inverted:
unipotent matrices through the finite Neumann series, diagonal torus
matrices entrywise, constant rational matrices by exact elimination.
General symbolic inversion is refused rather than attempted.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import chevalley, linalg
from .diffpoly import DiffPoly
from .errors import NotClosedFormInvertible
from .liouville_expr import LiouvExpr

TAGS = ("unipotent_lower", "torus_diagonal", "constant", "general")


@dataclass(frozen=True)
class SymMatrix:
    """A square matrix over an exact coefficient domain with a structure tag."""

    rows: tuple
    tag: str = "general"

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if self.tag not in TAGS:
            raise ValueError("unknown tag %r" % self.tag)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix is not square")
        if self.tag == "unipotent_lower":
            one = _one_like(rows)
            for i in range(n):
                if rows[i][i] != one:
                    raise ValueError("unipotent tag needs unit diagonal")
            nil = linalg.mat_sub(self.lists(), linalg.eye(n, one, one * 0))
            power = nil
            for _ in range(n):
                if linalg.mat_is_zero(power):
                    break
                power = linalg.mat_mul(power, nil)
            if not linalg.mat_is_zero(power):
                raise ValueError("unipotent tag needs nilpotent off-diagonal part")
        elif self.tag == "torus_diagonal":
            for i in range(n):
                for j in range(n):
                    if i != j and rows[i][j]:
                        raise ValueError("torus tag needs a diagonal matrix")
                if not rows[i][i]:
                    raise ValueError("torus tag needs invertible entries")
        elif self.tag == "constant":
            for row in rows:
                for x in row:
                    if not (isinstance(x, (int, Fraction)) or x.is_rational()):
                        raise ValueError("constant tag needs rational entries")

    @property
    def n(self):
        return len(self.rows)

    def lists(self):
        return [list(r) for r in self.rows]

    def inverse(self):
        if self.tag == "unipotent_lower":
            return linalg.unipotent_inverse(self.lists(), _one_like(self.rows))
        if self.tag == "torus_diagonal":
            n = self.n
            one = _one_like(self.rows)
            zero = one * 0
            out = [[zero for _ in range(n)] for _ in range(n)]
            for i in range(n):
                out[i][i] = _entry_inverse(self.rows[i][i])
            return out
        if self.tag == "constant":
            return linalg.rational_inverse(
                [[_as_fraction(x) for x in row] for row in self.rows]
            )
        raise NotClosedFormInvertible(
            "no closed-form inverse for tag %r" % self.tag
        )

    def derived(self):
        return linalg.mat_derive(self.rows)


def _one_like(rows):
    sample = next((x for row in rows for x in row if x), Fraction(1))
    if isinstance(sample, (int, Fraction)):
        return Fraction(1)
    return type(sample).rational(1)


def _entry_inverse(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(1) / Fraction(x)
    if isinstance(x, DiffPoly):
        if list(x.terms) == [()]:
            return DiffPoly.rational(Fraction(1) / x.constant_term())
        raise NotClosedFormInvertible("non-constant polynomial diagonal entry")
    if isinstance(x, LiouvExpr):
        return x ** -1
    raise NotClosedFormInvertible("cannot invert %r" % type(x))


def _as_fraction(x):
    return Fraction(x) if isinstance(x, (int, Fraction)) else x.rational_value()


def _as_symmatrix(m, tag="general"):
    if isinstance(m, SymMatrix):
        return m
    return SymMatrix(tuple(tuple(r) for r in m), tag)


def log_derivative(m):
    """ldelta(M) = d(M) M^{-1} for a structurally invertible matrix.

    Accepts a SymMatrix or an ordered list of SymMatrix factors; products
    use ldelta(AB) = ldelta(A) + Ad(A)(ldelta(B)).
    """
    if isinstance(m, (list, tuple)) and m and isinstance(m[0], SymMatrix):
        return _log_derivative_product(list(m))
    m = _as_symmatrix(m)
    if m.tag == "constant":
        zero = Fraction(0)
        return [[zero for _ in range(m.n)] for _ in range(m.n)]
    return linalg.mat_mul(m.derived(), m.inverse())


def _log_derivative_product(factors):
    head = factors[0]
    if len(factors) == 1:
        return log_derivative(head)
    tail = _log_derivative_product(factors[1:])
    return linalg.mat_add(log_derivative(head), adjoint(head, tail))


def adjoint(g, a):
    """Ad(g)(A) = g A g^{-1}; g must be structurally invertible."""
    if isinstance(g, (list, tuple)) and g and isinstance(g[0], SymMatrix):
        out = a
        for factor in reversed(g):
            out = adjoint(factor, out)
        return out
    g = _as_symmatrix(g)
    rows = a.lists() if isinstance(a, SymMatrix) else [list(r) for r in a]
    return linalg.mat_mul(linalg.mat_mul(g.lists(), rows), g.inverse())


def gauge(g, a):
    """Gauge transformation Ad(g)(A) + ldelta(g)."""
    return linalg.mat_add(adjoint(g, a), log_derivative(g))


def unipotent_matrix(rep, root, x):
    return SymMatrix(
        tuple(tuple(r) for r in chevalley.unipotent_element(rep, root, x)),
        "unipotent_lower",
    )


def torus_matrix(rep, i, z):
    return SymMatrix(
        tuple(tuple(r) for r in chevalley.torus_element(rep, i, z)),
        "torus_diagonal",
    )
