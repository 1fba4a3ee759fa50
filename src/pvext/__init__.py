"""pvext: generic Picard-Vessiot extensions for the classical groups.

From root-system data the package derives, by exact symbolic computation,
the Liouvillian solution tower of the associated solvable system, the
reduction of the auxiliary indeterminates, the rank-many differential
invariants, and the generic defining matrix they parameterize - verifying
every stage through exact identities.

Entry points:
    rootsys.build_root_system    root systems of types A, B, C, D, G2
    chevalley.build_rep          concrete Chevalley bases with axiom checks
    construct.run_pipeline       the full derivation for a type and rank
    construct.verify_end_to_end  the defining identity d(Y) = A_G(h) Y, checked
                                 as an equivalent differential-polynomial identity
    bruhat.bruhat_decompose      exact Bruhat normal forms for SL_n
    gauge.normalize_to_AG        gauge normalization to the generic shape
"""

from . import bruhat, chevalley, construct, diffpoly, gauge, liouville_expr
from . import linalg, rootsys, symgroup
from .diffpoly import DiffPoly, JetVar
from .liouville_expr import LiouvExpr

__all__ = [
    "bruhat",
    "chevalley",
    "construct",
    "diffpoly",
    "gauge",
    "liouville_expr",
    "linalg",
    "rootsys",
    "symgroup",
    "DiffPoly",
    "JetVar",
    "LiouvExpr",
]

__version__ = "0.1.0"
