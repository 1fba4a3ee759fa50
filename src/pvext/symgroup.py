"""Group elements as words of factors, in matrices.

A Factor is a group element as its matrix, its inverse and its
logarithmic derivative ldelta = d(M) M^{-1}, so no symbolic inversion is
ever attempted.  On products of factors this module computes the
logarithmic derivative by the product rule, the adjoint action and the
gauge action.  No other module of pvext calls it: the stages and the gauge
act on Chevalley coordinates, and the end-to-end check acts with the
letters through their cells (chevalley.letter_adjoint).  The test oracles
build factors (tests/factor_oracle.py) and hold the letter kernels to
these products.  The module stays while the benchmark's layer trace names
log_derivative and gauge.
"""

from dataclasses import dataclass

from . import linalg
from .errors import NotClosedFormInvertible


@dataclass(frozen=True)
class Factor:
    """A group element with its inverse and ldelta; ldelta None means 0."""

    rows: tuple
    inv: tuple
    ldelta: tuple = None


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
