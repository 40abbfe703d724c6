"""Geodesics between pure states and Hamiltonians that generate them.

A geodesic between nonorthogonal rays lifts to

    psi(s) = psi(0) cos(s) + v sin(s),      0 <= s <= alpha,

where v is the unit tangent orthogonal to psi(0) and alpha =
arccos(psi(0), psi(1)) is the opening angle of in-phase endpoint lifts
(real positive inner product).  Along such a lift (psi, dpsi/ds) = 0, so
geodesics carry no dynamical phase and their geometric phase vanishes.

Projected to eight-vector space a geodesic is a plane curve (affine rank
2) but not a central-plane curve: the plane misses the origin, so three
samples of n(s) are linearly independent (rank 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import states, su3
from .errors import (
    CoincidentEndpoints,
    OrthogonalEndpoints,
    TooFewSamples,
)

COINCIDENT_TOL = 1e-12
NEAR_TOL = 1e-2  # sin^2 below which 1 - c*c, off by ~1e-15/sin^2, is too coarse for a norm
TANGENT_TOL = 1e-12  # largest |(psi0, tangent)| a GeodesicCurve takes as orthogonal
RANK_RTOL = 1e-8  # singular values below this share of the largest count as zero


# A dataclass, not a NamedTuple, for the norm and orthogonality checks of __post_init__.
@dataclass(frozen=True)
class GeodesicCurve:
    """Great-circle lift psi(s) = psi0 cos(s) + tangent sin(s) on [0, length]."""

    psi0: np.ndarray
    tangent: np.ndarray
    length: float

    def __post_init__(self):
        # written as not (defect <= tol), so that a nan defect fails too
        for name, v in (("psi0", self.psi0), ("tangent", self.tangent)):
            if not (abs(np.vdot(v, v).real - 1.0) <= states.NORM_TOL):
                raise ValueError(f"{name} is not normalized")
        if not (abs(np.vdot(self.psi0, self.tangent)) <= TANGENT_TOL):
            raise ValueError("tangent is not orthogonal to psi0")
        if not (0.0 <= self.length < np.inf):  # 0 for coincident endpoints
            raise ValueError(f"length {self.length} is not finite and >= 0")

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return (
            np.multiply.outer(np.cos(s), self.psi0)
            + np.multiply.outer(np.sin(s), self.tangent)
        )

    @property
    def endpoint(self):
        return self(self.length)


def in_phase_lift(rho1, rho2):
    """Lift two nonorthogonal pure densities to states with real positive overlap.

    psi1 follows the deterministic gauge of lift_of_density; psi2 is the
    lift of rho2 rephased so that (psi1, psi2) > 0.
    """
    psi1, psi2 = _in_phase(states.lift_of_density([rho1, rho2]))
    return psi1, psi2


def _in_phase(chain):
    # rephase (k, 3) rows in place, each overlap with the row before real and positive
    for row in range(1, len(chain)):  # each rephasing needs the one before
        ip = states.nonorthogonal(np.vdot(chain[row - 1], chain[row]), OrthogonalEndpoints)
        chain[row] *= np.exp(-1j * np.angle(ip))
    return chain


def _geodesics_from_in_phase(starts, ends):
    # a curve per row of two (k, 3) in-phase stacks; coincident rows get length 0
    c = np.vecdot(starts, ends).real
    sin2 = 1.0 - c * c
    near = sin2 < NEAR_TOL
    residuals = ends - c[:, None] * starts
    tangents = residuals / np.sqrt(np.where(near, 1.0, sin2))[:, None]
    lengths = np.arccos(np.where(near, 1.0, c))
    if near.any():
        # project the residual off the start again and take its own norm; a coincident
        # row completes from the basis vector least aligned with its start instead
        base, coincident = starts[near], sin2[near] < COINCIDENT_TOL
        picks = np.eye(3, dtype=complex)[np.abs(base).argmin(axis=1)]
        r = np.where(coincident[:, None], picks, residuals[near])
        r -= base * np.vecdot(base, r)[:, None]
        norms = np.sqrt(np.vecdot(r.real, r.real) + np.vecdot(r.imag, r.imag))
        tangents[near] = r / norms[:, None]
        lengths[near] = np.where(coincident, 0.0, np.arctan2(norms, c[near]))
    return [GeodesicCurve(*side) for side in zip(starts, tangents, lengths.tolist())]


def geodesic_between(rho1, rho2):
    """Shortest curve between two nonorthogonal pure densities.

    Endpoints count as coincident when sin^2 of their opening angle is
    below COINCIDENT_TOL (1e-12), an angle below about 1e-6; they give a
    degenerate curve of length 0.  Every pair farther apart gets a curve.
    """
    chain = _in_phase(states.lift_of_density([rho1, rho2]))
    return _geodesics_from_in_phase(chain[:1], chain[1:])[0]


def polygon_sides(rhos):
    """Continuous piecewise-geodesic lift through a cyclic list of densities.

    Returns one GeodesicCurve per side.  Every vertex is lifted once, and
    consecutive sides share their junction lift, so the sides chain into
    a continuous curve; it closes in ray space but in general not in
    state space, and the mismatch angle is the geometric phase of the loop.
    """
    if len(rhos) < 3:
        raise TooFewSamples("a polygon needs at least three vertices")
    chain = _in_phase(states.lift_of_density(rhos)[[*range(len(rhos)), 0]])  # a copy, closed by lift 0
    return _geodesics_from_in_phase(chain[:-1], chain[1:])


def curve_length(s, psis):
    """Length of a sampled curve under the Fubini-Study functional.

    Integrates sqrt((dpsi, dpsi) - |(psi, dpsi)|^2) with second-order
    central differences and composite trapezoid quadrature.  The value is
    invariant under smooth rephasing psi -> e^{i gamma(s)} psi.
    """
    s = np.asarray(s, dtype=float)
    psis = np.asarray(psis, dtype=complex)
    if len(s) < 2 or psis.shape[0] != len(s):
        raise TooFewSamples("need at least two parametrized samples")
    dpsi = np.gradient(psis, s, axis=0, edge_order=2 if len(s) > 2 else 1)
    quad = np.einsum("ki,ki->k", dpsi.conj(), dpsi).real
    cross = np.einsum("ki,ki->k", psis.conj(), dpsi)
    integrand = np.sqrt(np.clip(quad - np.abs(cross) ** 2, 0.0, None))
    return float(np.trapezoid(integrand, s))


def span_rank(points):
    """Dimension of the linear span of eight-vector samples."""
    return int(np.linalg.matrix_rank(np.asarray(points, dtype=float), rtol=RANK_RTOL))


def planarity_test(points):
    """(is_planar, affine_rank) of eight-vector samples.

    Affine rank is the rank of the differences to the first sample with a
    relative singular-value cutoff; at most 2 counts as planar.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 4:
        raise TooFewSamples("need at least four samples for a meaningful rank test")
    affine_rank = int(np.linalg.matrix_rank(pts[1:] - pts[0], rtol=RANK_RTOL))
    return affine_rank <= 2, affine_rank


class HamiltonianCoeffs(NamedTuple):
    """Hamiltonian H = h0 I + h.l given by its identity and l coefficients.

    A stack of k Hamiltonians has h0 of shape (k,) and h of shape (k, 8);
    matrix() then returns the (k, 3, 3) stack, each entry bit-identical to
    the matrix of that Hamiltonian alone: it is the contraction
    h0 I + einsum('...r,rij->...ij', h, LAMBDA), and an h whose last axis
    is not 8 raises ValueError.
    """

    h0: float
    h: np.ndarray

    def matrix(self):
        h = np.asarray(self.h, dtype=float)
        if h.shape[-1:] != (8,):
            raise ValueError(f"matrix() got h of shape {h.shape}, expected (..., 8)")
        return np.multiply.outer(self.h0, np.eye(3)) + np.einsum("...r,rij->...ij", h, su3.LAMBDA)


def constant_hamiltonian(n1, n2):
    """Constant traceful Hamiltonian whose flow moves n1 to n2 along the geodesic.

    With alpha recovered from n1.n2 = (3 cos^2(alpha) - 1)/2,

        h = 2 (n1 ^ n2) / (3 sin(alpha) cos(alpha)),   h0 = 0,

    and evolving for parameter time alpha lands exactly on n2.  The
    expectation Tr(rho(s) H) vanishes along the whole flow.
    """
    overlap = states.overlap(n1, n2)
    if overlap <= states.EPS_ORTH:
        raise OrthogonalEndpoints(f"transition probability {overlap:.3e} below cutoff")
    if 1.0 - overlap < COINCIDENT_TOL:
        raise CoincidentEndpoints("endpoints coincide; direction is undefined")
    sin_cos = np.sqrt(overlap * (1.0 - overlap))
    return HamiltonianCoeffs(0.0, 2.0 * su3.wedge(n1, n2) / (3.0 * sin_cos))


def geodesic_angle(n1, n2):
    """Opening angle alpha in (0, pi/2) between two nonorthogonal points of O."""
    return float(np.arccos(np.sqrt(states.overlap(n1, n2))))


def geodesic_hamiltonian_family(s, a, b, c, d):
    """Four-parameter family of Hamiltonians transporting the reference geodesic.

    Every member reproduces the lift (0, sin s, cos s) exactly, for any
    choice of the four real functions sampled here at parameter s.  The
    constant choice a = b = d = 0 reduces to
    ((2/sqrt(3)) I + sqrt(3) l_3 + l_8) c - l_7, and c = 0 leaves -l_7.
    A scalar s gives h of shape (8,); an array of k parameters gives the
    stack with h0 of shape (k,) and h of shape (k, 8), row for row the same
    doubles as the scalar calls.  The stack's h is a view of an (8, k)
    array, whose component rows are written contiguously.
    """
    sin_s, cos_s = np.sin(s), np.cos(s)
    h = np.empty((8,) + np.broadcast_shapes(*map(np.shape, (s, a, b, c, d))))
    h[0], h[1] = a * cos_s, b * cos_s
    h[2] = su3.SQRT3 * c + d * (cos_s * cos_s - sin_s * sin_s)
    h[3], h[4], h[5] = -a * sin_s, -b * sin_s, d * cos_s * sin_s
    h[6], h[7] = -1.0, c
    return HamiltonianCoeffs((2.0 / su3.SQRT3) * c - d * sin_s * sin_s, np.moveaxis(h, 0, -1))
