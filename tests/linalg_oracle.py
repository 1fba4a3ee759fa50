"""The dense exact matrix product and the Weyl representatives built with it,
as a test oracle.

This is how pvext.linalg multiplied matrices before its row-by-row product
over the non-zero entries, and how pvext.bruhat built n(w) before its column
moves: one row-by-column dot product per entry, and one matrix product per
letter of the word.  The tests require both to agree, value and type.
"""

from fractions import Fraction

from pvext import linalg
from pvext.errors import DimMismatch


def mat_mul(a, b):
    """a b; an entry where every product vanishes is the zero of a's ring."""
    n = len(a)
    if n != len(b):
        raise DimMismatch("matrix sizes differ")
    bt = list(zip(*b))
    zero = linalg.zero_of(a[0][0]) if n else Fraction(0)
    return [[linalg.dot(row, col, zero) for col in bt] for row in a]


def simple_block(n, i):
    """The canonical representative of the i-th simple reflection."""
    out = linalg.eye(n)
    out[i - 1][i - 1] = Fraction(0)
    out[i][i] = Fraction(0)
    out[i - 1][i] = Fraction(1)
    out[i][i - 1] = Fraction(-1)
    return out


def representative_matrix(n, word):
    out = linalg.eye(n)
    for i in word:
        out = mat_mul(out, simple_block(n, i))
    return out
