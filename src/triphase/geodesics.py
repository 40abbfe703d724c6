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

import numpy as np

from . import states, su3
from .errors import (
    CoincidentEndpoints,
    OrthogonalEndpoints,
    TooFewSamples,
)

COINCIDENT_TOL = 1e-12


@dataclass(frozen=True)
class GeodesicCurve:
    """Great-circle lift psi(s) = psi0 cos(s) + tangent sin(s) on [0, length]."""

    psi0: np.ndarray
    tangent: np.ndarray
    length: float

    def __post_init__(self):
        for name, v in (("psi0", self.psi0), ("tangent", self.tangent)):
            if abs(np.vdot(v, v).real - 1.0) > states.NORM_TOL:
                raise ValueError(f"{name} is not normalized")
        if abs(np.vdot(self.psi0, self.tangent)) > 1e-12:
            raise ValueError("tangent is not orthogonal to psi0")

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
    psi1 = states.lift_of_density(rho1)
    psi2 = states.lift_of_density(rho2)
    ip = states.nonorthogonal(np.vdot(psi1, psi2), OrthogonalEndpoints)
    return psi1, psi2 * np.exp(-1j * np.angle(ip))


def _unit_vector_orthogonal_to(psi):
    # deterministic completion: start from the basis vector least aligned with psi
    k = int(np.argmin(np.abs(psi)))
    v = np.zeros(3, dtype=complex)
    v[k] = 1.0
    v = v - psi * np.vdot(psi, v)
    return v / np.linalg.norm(v)


def _geodesic_from_in_phase(psi1, psi2):
    c = np.vdot(psi1, psi2).real
    if 1.0 - c * c < COINCIDENT_TOL:
        return GeodesicCurve(psi1, _unit_vector_orthogonal_to(psi1), 0.0)
    tangent = (psi2 - c * psi1) / np.sqrt(1.0 - c * c)
    return GeodesicCurve(psi1, tangent, float(np.arccos(np.clip(c, -1.0, 1.0))))


def geodesic_between(rho1, rho2):
    """Shortest curve between two nonorthogonal pure densities.

    Coincident endpoints give a degenerate curve of length 0.
    """
    psi1, psi2 = in_phase_lift(rho1, rho2)
    return _geodesic_from_in_phase(psi1, psi2)


def polygon_lift(rhos, per_arc=2000):
    """Continuous piecewise-geodesic lift through a cyclic list of densities.

    Returns a list of (s, psi_samples) pieces, one per side, each sampled
    at per_arc points.  Consecutive pieces share their junction lift, so
    the concatenation is a continuous curve; it closes in ray space but
    in general not in state space, and the mismatch angle is the
    geometric phase of the loop.
    """
    if len(rhos) < 3:
        raise TooFewSamples("a polygon needs at least three vertices")
    if per_arc < 2:
        raise TooFewSamples("need at least two samples per side")
    lifts = [states.lift_of_density(r) for r in rhos]
    pieces = []
    current = lifts[0]
    for nxt in lifts[1:] + [lifts[0]]:
        ip = states.nonorthogonal(np.vdot(current, nxt), OrthogonalEndpoints)
        ahead = nxt * np.exp(-1j * np.angle(ip))
        g = _geodesic_from_in_phase(current, ahead)
        s = np.linspace(0.0, g.length, per_arc)
        pieces.append((s, g(s)))
        current = ahead
    return pieces


def sample_curve_in_O(curve, count):
    """Eight-vectors of count equally spaced samples of a geodesic."""
    if count < 2:
        raise TooFewSamples("need at least two samples")
    s = np.linspace(0.0, curve.length, count)
    return states.n_vectors_of(curve(s))


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


def _rank(matrix, rel_tol):
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def span_rank(points, rel_tol=1e-8):
    """Dimension of the linear span of eight-vector samples."""
    return _rank(np.asarray(points, dtype=float), rel_tol)


def planarity_test(points, rel_tol=1e-8):
    """(is_planar, affine_rank) of eight-vector samples.

    Affine rank is the rank of the differences to the first sample with a
    relative singular-value cutoff; at most 2 counts as planar.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 4:
        raise TooFewSamples("need at least four samples for a meaningful rank test")
    affine_rank = _rank(pts[1:] - pts[0], rel_tol)
    return affine_rank <= 2, affine_rank


@dataclass(frozen=True)
class HamiltonianCoeffs:
    """Hamiltonian H = h0 I + h.l given by its identity and l coefficients.

    A stack of k Hamiltonians has h0 of shape (k,) and h of shape (k, 8);
    matrix() then returns the (k, 3, 3) stack, each entry bit-identical to
    the matrix of that Hamiltonian alone.  Every entry of h.l has at most
    two terms, so matrix() gathers them (su3.two_term_sum) instead of
    contracting h with LAMBDA, and gives the contraction's doubles,
    h0 I + einsum('...r,rij->...ij', h, LAMBDA), signed zeros included.
    """

    h0: float
    h: np.ndarray

    def matrix(self):
        parts = su3.two_term_sum(self.h, su3.LAMBDA_TERMS)
        # the real parts of the diagonal, entries (i, i, 0), are every eighth
        parts[..., ::8] += np.asarray(self.h0)[..., None]
        return parts.view(complex).reshape(parts.shape[:-1] + (3, 3))


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
    doubles as the scalar calls.
    """
    sin_s, cos_s = np.sin(s), np.cos(s)
    h = np.stack(
        np.broadcast_arrays(
            a * cos_s,
            b * cos_s,
            su3.SQRT3 * c + d * (cos_s * cos_s - sin_s * sin_s),
            -a * sin_s,
            -b * sin_s,
            d * cos_s * sin_s,
            -1.0,
            c,
        ),
        axis=-1,
    )
    return HamiltonianCoeffs((2.0 / su3.SQRT3) * c - d * sin_s * sin_s, h)
