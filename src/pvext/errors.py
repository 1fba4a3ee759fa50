"""Exception hierarchy for the pvext package."""


class PvextError(Exception):
    """Base class for all pvext errors."""


class UnsupportedType(PvextError):
    """Root system type/rank combination is not admissible."""


class NotARoot(PvextError):
    """A coefficient vector is not a root of the given system."""


class DependentRoots(PvextError):
    """Root string requested for linearly dependent roots."""


class RankCeiling(PvextError):
    """The full derivation refuses ranks above its ceiling."""


class UnsupportedRep(PvextError):
    """No concrete matrix representation is available for this system."""


class DimMismatch(PvextError):
    """Matrix dimensions are incompatible."""


class SpanFailure(PvextError):
    """A span completion failed; indicates an inconsistent representation."""


class NonDiagonalCartan(PvextError):
    """Torus elements require diagonal integer Cartan matrices."""


class MissingAssignment(PvextError):
    """A substitution map does not cover every variable present."""


class NotClosedFormInvertible(PvextError):
    """Matrix inversion refused: no structural closed-form inverse known."""


class NotInLieAlgebra(PvextError):
    """A matrix does not lie in the span of the Chevalley basis."""


class StructureViolation(PvextError):
    """A structural claim of the construction failed to hold."""


class NoRationalSolution(PvextError):
    """An exact linear system has no rational solution."""


class VerificationFailure(PvextError):
    """A symbolic verification identity did not reduce to zero."""


class RankFailure(PvextError):
    """An elimination step met a linear system without full rank."""


class IdentityFailure(PvextError):
    """The end-to-end defining identity has a nonzero entry."""


class NotUnimodular(PvextError):
    """Bruhat decomposition requires determinant one."""


class CellDegeneration(PvextError):
    """A translated matrix left the open Bruhat cell."""


class NonUnitScaling(PvextError):
    """Normalization needs a torus rescaling with no rational solution."""


class ExponentOverflow(PvextError):
    """A monomial would not fit the packed exponent fields of a DiffPoly."""
