"""Exception types shared across the package.

Every error raised on a mathematically meaningful failure path derives from
SpectralFractalError so the command line layer can map failure modes to exit
codes without string matching.
"""

from __future__ import annotations


class SpectralFractalError(Exception):
    """Base class for all structured failures."""


class InvalidInput(SpectralFractalError):
    """Malformed user input (bad shapes, unknown keys, non-integer entries)."""


class SizeMismatch(InvalidInput):
    """Dimensions of matrices / digit vectors do not line up."""


class AmbiguousSpectrum(SpectralFractalError):
    """An eigenvalue modulus sits too close to 1 to classify reliably."""


class RankDeficient(SpectralFractalError):
    """A full-rank matrix was required but a singular one was supplied."""


class NotHadamard(SpectralFractalError):
    """The supplied (matrix, digits, frequencies) data fails the unitarity test."""


class ResidueCollision(SpectralFractalError):
    """Two frequency vectors share a residue class that must stay distinct."""


class CapExceeded(SpectralFractalError):
    """An enumeration would exceed its configured size cap."""

    def __init__(self, what: str, needed: int, cap: int):
        super().__init__(f"{what}: needs {needed} elements, cap is {cap}")
        self.what = what
        self.needed = needed
        self.cap = cap


class NoShiftFound(SpectralFractalError):
    """No integer shift inside the search window rescues the transform modulus."""


class ZeroSetNonEmpty(SpectralFractalError):
    """A certified common zero blocks the orthonormal construction."""

    def __init__(self, witness):
        super().__init__(f"certified periodic zero at {witness}")
        self.witness = witness


class Undecided(SpectralFractalError):
    """The scan produced candidates that could be neither certified nor refuted."""


class NotInvariant(SpectralFractalError):
    """The supplied subspace is not invariant under the required matrix."""


class NotCompleteReps(SpectralFractalError):
    """A digit slice fails to be a complete residue system for the lower block."""


class GammaFullOrTrivial(SpectralFractalError):
    """The frequency sublattice is all of Z^(d-r); no product structure exists."""


class InconsistentDecomposition(SpectralFractalError):
    """Internal cross-checks of the product form failed (bad cycle data)."""


class NoBetaAccepted(SpectralFractalError):
    """No candidate lattice density passed the quadrature sweep."""


class DimensionUnsupported(SpectralFractalError):
    """The operation is only implemented for low dimensions."""


class CycleNotFound(SpectralFractalError):
    """No certified invariant cycle exists within the search bounds."""
