"""Pure three-level states and their eight-vector geometry.

A normalized state psi maps to the real eight-vector

    n_r = (sqrt(3)/2) <psi| l_r |psi>

and its density matrix reconstructs as rho = (1/3)(I + sqrt(3) n.l).
The image of the pure states is the subset of the unit sphere in R^8
singled out by the algebraic condition n * n = n (star product), and
errors below call that locus O.  Antipodes of points on O never lie on O.

The octant chart parametrizes states with nonzero third component as

    psi = (e^{i chi1} sin(theta) cos(phi),
           e^{i chi2} sin(theta) sin(phi),
           cos(theta))

up to a global phase, with theta in [0, pi/2), phi in [0, pi/2] and
chi1, chi2 in [0, 2 pi).  chi1 is undefined at phi = pi/2, chi2 at
phi = 0, and phi itself at theta = 0; the chart omits psi_3 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import su3
from .errors import ChartSingular, NotInSubspace, NotNormalized, NotOnO, OutOfRange

NORM_TOL = 1e-12
PURITY_TOL = 1e-8
COMPONENT_TOL = 1e-12
CHART_TOL = 1e-10
# Orthogonality cutoff on the transition probability Tr(rho1 rho2).
EPS_ORTH = 1e-10

# Eight-vectors of the three basis states, rows in order.
POLES = np.zeros((3, 8))
POLES[0, 2] = su3.SQRT3 / 2
POLES[0, 7] = 0.5
POLES[1, 2] = -su3.SQRT3 / 2
POLES[1, 7] = 0.5
POLES[2, 7] = -1.0


def as_state(psi):
    a = np.asarray(psi, dtype=complex)
    if a.shape != (3,):
        raise ValueError(f"state vector must have shape (3,), got {a.shape}")
    return a


def assert_normalized(psi, tol=NORM_TOL):
    a = as_state(psi)
    defect = abs(np.vdot(a, a).real - 1.0)
    if not (defect <= tol):
        raise NotNormalized(f"norm deviates from 1 by {defect:.3e}")
    return a


def random_state(seed):
    """Haar-random normalized state for a seed (or an existing Generator)."""
    rng = su3.as_generator(seed)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return z / np.linalg.norm(z)


def random_states(seed, count):
    rng = su3.as_generator(seed)
    z = rng.standard_normal((count, 3)) + 1j * rng.standard_normal((count, 3))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def density_of(psi, tol=NORM_TOL):
    """Rank-one projector |psi><psi| of a normalized state."""
    a = assert_normalized(psi, tol)
    return np.outer(a, a.conj())


def n_vector_of(psi, tol=NORM_TOL):
    """Eight-vector n_r = (sqrt(3)/2) <psi| l_r |psi> of a normalized state."""
    a = assert_normalized(psi, tol)
    n = (su3.SQRT3 / 2) * np.einsum("i,rij,j->r", a.conj(), su3.LAMBDA, a)
    return n.real


_ROW_BLOCK = 4096
"""Rows of n_vectors_of evaluated together, bounding its temporaries."""


def n_vectors_of(psis):
    """Row-wise n_vector_of for an (N, 3) array of normalized states.

    The rows go through in blocks of _ROW_BLOCK into the preallocated
    result, so the complex temporaries stay small; each row's doubles do
    not depend on the block it falls in.
    """
    a = np.asarray(psis, dtype=complex)
    ns = np.empty((len(a), 8))
    for first in range(0, len(a), _ROW_BLOCK):
        block = a[first : first + _ROW_BLOCK]
        products = np.einsum("ki,rij,kj->kr", block.conj(), su3.LAMBDA, block)
        ns[first : first + _ROW_BLOCK] = (su3.SQRT3 / 2) * products.real
    return ns


def density_from_n(n):
    """Reconstruct rho = (1/3)(I + sqrt(3) n.l) from an eight-vector."""
    n = np.asarray(n, dtype=float)
    return (np.eye(3) + su3.SQRT3 * np.einsum("r,rij->ij", n, su3.LAMBDA)) / 3.0


def assert_on_O(n, tol=PURITY_TOL):
    """Return n as floats, or raise NotOnO when its norm or star defect
    (|n.n - 1| and max |n * n - n|) exceeds tol."""
    n = np.asarray(n, dtype=float)
    norm_defect = abs(n @ n - 1.0)
    star_defect = np.abs(su3.star(n, n) - n).max()
    if not (norm_defect <= tol and star_defect <= tol):
        raise NotOnO(
            f"norm defect {norm_defect:.3e}, star defect {star_defect:.3e} exceed {tol:.1e}"
        )
    return n


def lift_of_density(rho, tol=PURITY_TOL):
    """Unit eigenvector of a pure density matrix, in a deterministic gauge.

    The gauge makes the largest-modulus component real and positive.
    """
    r = np.asarray(rho, dtype=complex)
    if r.shape != (3, 3):
        raise ValueError(f"density matrix must have shape (3, 3), got {r.shape}")
    hermiticity = np.abs(r - r.conj().T).max()
    purity = np.abs(r @ r - r).max()
    trace = abs(np.trace(r).real - 1.0)
    if max(hermiticity, purity, trace) > tol:
        raise ValueError(
            f"not a pure-state density matrix (defects {hermiticity:.1e}, "
            f"{purity:.1e}, {trace:.1e})"
        )
    _, vecs = np.linalg.eigh(r)
    psi = vecs[:, -1]
    j = int(np.argmax(np.abs(psi)))
    psi = psi * (psi[j].conjugate() / abs(psi[j]))
    return psi / np.linalg.norm(psi)


def state_from_n(n, tol=PURITY_TOL):
    """Lift an eight-vector on O back to a state vector (deterministic gauge)."""
    return lift_of_density(density_from_n(assert_on_O(n, tol)))


def overlap(n1, n2):
    """Transition probability Tr(rho1 rho2) = (1 + 2 n1.n2) / 3, clipped to [0, 1]."""
    n1 = assert_on_O(n1)
    n2 = assert_on_O(n2)
    return float(np.clip((1.0 + 2.0 * n1 @ n2) / 3.0, 0.0, 1.0))


def nonorthogonal(amplitude, error):
    """Return an overlap amplitude, or raise error when its transition
    probability |amplitude|^2 is within the orthogonality cutoff."""
    probability = abs(amplitude) ** 2
    if probability <= EPS_ORTH:
        raise error(f"transition probability {probability:.3e} below cutoff")
    return amplitude


@dataclass(frozen=True)
class OctantCoordinates:
    """Chart angles with validity flags for the singular directions."""

    theta: float
    phi: float
    chi1: float
    chi2: float
    phi_defined: bool = True
    chi1_defined: bool = True
    chi2_defined: bool = True


def to_octant_coords(psi):
    """Chart angles of a state with psi_3 away from zero.

    Raises ChartSingular when |psi_3| <= 1e-10.  Angles on the singular
    directions are set to 0 and flagged undefined.
    """
    a = assert_normalized(psi)
    if abs(a[2]) <= CHART_TOL:
        raise ChartSingular(f"|psi_3| = {abs(a[2]):.3e} is too small for the chart")
    g = a * np.exp(-1j * np.angle(a[2]))
    m1, m2 = abs(g[0]), abs(g[1])
    theta = np.arccos(min(abs(g[2]), 1.0))
    phi_defined = np.hypot(m1, m2) > COMPONENT_TOL
    chi1_defined = m1 > COMPONENT_TOL
    chi2_defined = m2 > COMPONENT_TOL
    phi = float(np.arctan2(m2, m1)) if phi_defined else 0.0
    chi1 = float(np.angle(g[0]) % (2 * np.pi)) if chi1_defined else 0.0
    chi2 = float(np.angle(g[1]) % (2 * np.pi)) if chi2_defined else 0.0
    return OctantCoordinates(
        float(theta), phi, chi1, chi2, phi_defined, chi1_defined, chi2_defined
    )


def _check_chart_ranges(c):
    if not (0.0 <= c.theta < np.pi / 2):
        raise OutOfRange(f"theta = {c.theta!r} outside [0, pi/2)")
    if not (0.0 <= c.phi <= np.pi / 2):
        raise OutOfRange(f"phi = {c.phi!r} outside [0, pi/2]")
    for name, value in (("chi1", c.chi1), ("chi2", c.chi2)):
        if not (0.0 <= value < 2 * np.pi):
            raise OutOfRange(f"{name} = {value!r} outside [0, 2 pi)")


def from_octant_coords(c):
    """State vector of chart angles, with psi_3 real positive."""
    _check_chart_ranges(c)
    st, ct = np.sin(c.theta), np.cos(c.theta)
    return np.array(
        [
            np.exp(1j * c.chi1) * st * np.cos(c.phi),
            np.exp(1j * c.chi2) * st * np.sin(c.phi),
            ct + 0j,
        ]
    )


def n_from_octant_coords(c):
    """Closed-form eight-vector of chart angles (no state construction)."""
    _check_chart_ranges(c)
    st, ct = np.sin(c.theta), np.cos(c.theta)
    sp, cp = np.sin(c.phi), np.cos(c.phi)
    return np.array(
        [
            su3.SQRT3 * st * st * sp * cp * np.cos(c.chi2 - c.chi1),
            su3.SQRT3 * st * st * sp * cp * np.sin(c.chi2 - c.chi1),
            (su3.SQRT3 / 2) * st * st * (cp * cp - sp * sp),
            su3.SQRT3 * st * ct * cp * np.cos(c.chi1),
            -su3.SQRT3 * st * ct * cp * np.sin(c.chi1),
            su3.SQRT3 * st * ct * sp * np.cos(c.chi2),
            -su3.SQRT3 * st * ct * sp * np.sin(c.chi2),
            0.5 * (1.0 - 3.0 * ct * ct),
        ]
    )


def embedded_sphere_check(psi):
    """Verify a psi_3 = 0 state lands on the embedded two-sphere.

    For such states the first three components of n trace a sphere of
    radius sqrt(3)/2 centered at (0, ..., 0, 1/2) while n_4..n_7 vanish.
    Returns (center, radius).
    """
    a = assert_normalized(psi)
    if abs(a[2]) >= 1e-12:
        raise NotInSubspace(f"|psi_3| = {abs(a[2]):.3e}, expected < 1e-12")
    n = n_vector_of(a)
    middle = np.abs(n[3:7]).max()
    plane = abs(n[7] - 0.5)
    radial = abs(np.linalg.norm(n[:3]) - su3.SQRT3 / 2)
    worst = max(middle, plane, radial)
    if worst > 1e-11:
        raise NotOnO(f"embedded-sphere defect {worst:.3e}")
    center = np.zeros(8)
    center[7] = 0.5
    return center, su3.SQRT3 / 2


def state_to_json(psi):
    a = as_state(psi)
    return {"re": [float(x) for x in a.real], "im": [float(x) for x in a.imag]}


def state_from_json(obj):
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ValueError("state object must have exactly the keys 're' and 'im'")
    re, im = obj["re"], obj["im"]
    if len(re) != 3 or len(im) != 3:
        raise ValueError("'re' and 'im' must each hold three numbers")
    return np.array([float(a) + 1j * float(b) for a, b in zip(re, im)])
