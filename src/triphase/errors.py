"""Exception types shared across the package."""


class TriphaseError(Exception):
    """Base class for every error raised by this library."""


class NotNormalized(TriphaseError):
    """State vector norm differs from 1 beyond tolerance."""


class NotSpecialUnitary(TriphaseError):
    """Matrix is not special unitary within tolerance."""


class NotOnO(TriphaseError):
    """Eight-vector does not represent a pure state (fails n.n = 1 or n*n = n)."""


class ChartSingular(TriphaseError):
    """State lies on the singular set of the octant chart (third component zero)."""


class OutOfRange(TriphaseError):
    """Angle or parameter outside its documented range."""


class NotInSubspace(TriphaseError):
    """State does not lie in the required subspace."""


class OrthogonalityError(TriphaseError):
    """Base for errors caused by (near-)orthogonal states."""


class OrthogonalEndpoints(OrthogonalityError):
    """Geodesic endpoints are orthogonal; no unique shortest curve."""


class OrthogonalStates(OrthogonalityError):
    """Relative phase of orthogonal states is undefined."""


class OrthogonalConsecutive(OrthogonalityError):
    """A cyclically consecutive pair in a state polygon is orthogonal."""


class OrthogonalPair(OrthogonalityError):
    """A triangle has an orthogonal vertex pair; canonical form undefined."""


class CoincidentEndpoints(TriphaseError):
    """Endpoints coincide where a distinct pair is required."""


class DegenerateTriangle(TriphaseError):
    """Triangle vertices too close to coincident for a canonical form."""


class TooFewSamples(TriphaseError):
    """Not enough samples for the requested quadrature or rank test."""


class InvalidStep(TriphaseError):
    """Integrator step size must be positive and finite."""


class NotTwoLevel(TriphaseError):
    """Triangle does not lie in a two-level subspace."""
