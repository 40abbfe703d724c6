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


def assert_normalized(psi):
    a = as_state(psi)
    defect = abs(np.vdot(a, a).real - 1.0)
    if not (defect <= NORM_TOL):
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


def density_of(psi):
    """Rank-one projector |psi><psi| of a normalized state."""
    a = assert_normalized(psi)
    return np.outer(a, a.conj())


def n_vector_of(psi):
    """Eight-vector n_r = (sqrt(3)/2) <psi| l_r |psi> of a normalized state."""
    a = assert_normalized(psi)
    n = (su3.SQRT3 / 2) * np.einsum("i,rij,j->r", a.conj(), su3.LAMBDA, a)
    return n.real


_ROW_BLOCK = 4096
"""Rows of n_vectors_of evaluated together, bounding its temporaries."""

_L8_WEIGHTS = su3.LAMBDA[7].diagonal().real[1:]  # l_8's entries (1, 1) and (2, 2)


def n_vectors_of(psis):
    """Row-wise n_vector_of for an (N, 3) array of normalized states.

    Real arithmetic on each row's doubles x0, y0, ..., y2 gives those of
    (sqrt(3)/2) Re einsum('ki,rij,kj->kr', conj(psis), LAMBDA, psis), signed
    zeros included: with r_ij = x_i x_j + y_i y_j and i_ij = x_i y_j - y_i x_j,
    n_1 = r01 + r01, n_2 = i01 + i01, and so on, each sum in the einsum's
    order.  A row with a non-finite entry gives NaN throughout, as the einsum
    does.  Rows go through in blocks of _ROW_BLOCK; a row's doubles do not
    depend on its block.
    """
    a = np.ascontiguousarray(psis, dtype=complex)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"states must have shape (N, 3), got {a.shape}")
    ns = np.empty((len(a), 8))
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows come out NaN
        for first in range(0, len(a), _ROW_BLOCK):
            ns[first : first + _ROW_BLOCK] = _n_rows(a[first : first + _ROW_BLOCK]).T
    return ns


def _n_rows(block):
    # the (8, k) n-vectors of a (k, 3) block, from contiguous component rows
    x0, y0, x1, y1, x2, y2 = block.view(float).T.copy()
    c, c2 = _L8_WEIGHTS
    n = np.empty((8, len(block)))
    pairs = ((0, x0, y0, x1, y1), (3, x0, y0, x2, y2), (5, x1, y1, x2, y2))
    for k, xi, yi, xj, yj in pairs:
        real, imag = xi * xj + yi * yj, xi * yj - yi * xj
        np.add(real, real, out=n[k])
        np.add(imag, imag, out=n[k + 1])
    np.subtract(x0 * x0 + y0 * y0, x1 * x1 + y1 * y1, out=n[2])
    upper = (x0 * c) * x0 + (y0 * c) * y0 + ((x1 * c) * x1 + (y1 * c) * y1)
    np.add(upper, (x2 * c2) * x2 + (y2 * c2) * y2, out=n[7])
    n *= su3.SQRT3 / 2
    # n_8 - n_8 is +0, turning a -0 into the einsum's +0, or NaN on a non-finite row
    n += n[7] - n[7]
    return n


def density_from_n(n):
    """Reconstruct rho = (1/3)(I + sqrt(3) n.l) from an eight-vector."""
    n = np.asarray(n, dtype=float)
    return (np.eye(3) + su3.SQRT3 * np.einsum("r,rij->ij", n, su3.LAMBDA)) / 3.0


def assert_on_O(n):
    """Return n as floats, or raise NotOnO when its norm or star defect
    (|n.n - 1| and max |n * n - n|) exceeds PURITY_TOL.  A (k, 8) stack raises
    the single call's error for its first row off O."""
    n = np.asarray(n, dtype=float)
    norm_defect = abs(np.vecdot(n, n, keepdims=True) - 1.0)
    star_defect = abs(su3.star(n, n) - n).max(axis=-1, keepdims=True)
    worst = np.maximum(norm_defect, star_defect).ravel()
    if not (worst <= PURITY_TOL).all():  # an empty stack passes
        row = int((~(worst <= PURITY_TOL)).argmax())  # the first row off O, a NaN one too
        defects = norm_defect.flat[row], star_defect.flat[row], PURITY_TOL
        raise NotOnO("norm defect {:.3e}, star defect {:.3e} exceed {:.1e}".format(*defects))
    return n


# the oracles of one triangle share one eigh: without the memo a perfbench oracles item
# took 882 us against 776 us on a 2-vCPU x86 host
_last_lift = None
"""(key, lifts) of the last successful lift_of_density call on at most three matrices.
Replaced whole and never written into, so a reader always sees a matching pair."""


def lift_of_density(rho):
    """Unit eigenvector of a pure density matrix, in a deterministic gauge.

    The gauge makes the largest-modulus component real and positive.  A
    (k, 3, 3) stack gives (k, 3) lifts, row for row the single calls' doubles,
    and raises the single call's error for its first impure matrix.

    The last successful call on one matrix or a stack of at most three is
    memoised, so the routes that lift one triangle's vertices share one
    eigh.  The key is the exact input: the shape and bytes of the complex
    array.  A hit returns a fresh copy of the stored lifts.  A larger stack
    is neither looked up nor stored, and a call that raises leaves the
    stored entry in place.
    """
    global _last_lift
    r = np.asarray(rho, dtype=complex)
    if r.shape[-2:] != (3, 3) or r.ndim > 3 or r.size == 0:
        raise ValueError(f"density matrix must have shape (3, 3) or (k, 3, 3), got {r.shape}")
    memo = len(r) <= 3  # a single matrix has three rows, so only larger stacks bypass
    if memo:
        key = (r.shape, r.tobytes())
        last = _last_lift
        if last is not None and last[0] == key:
            return last[1].copy()
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite entries fail below
        hermiticity = np.abs(r - r.conj().swapaxes(-1, -2))
        purity = np.abs(r @ r - r)
        trace = np.abs(r.trace(axis1=-2, axis2=-1).real - 1.0)
    if not all(w.max() <= PURITY_TOL for w in (hermiticity, purity, trace)):
        # judge each matrix as a single call does; a NaN defect fails too
        worst = (hermiticity.reshape(-1, 9).max(1), purity.reshape(-1, 9).max(1), trace.ravel())
        for defects in zip(*(w.tolist() for w in worst)):
            if not all(d <= PURITY_TOL for d in defects):
                message = "not a pure-state density matrix (defects {:.1e}, {:.1e}, {:.1e})"
                raise ValueError(message.format(*defects))
    tops = np.linalg.eigh(r)[1][..., -1]
    lifts = _gauged(tops) if r.ndim == 3 else _gauged(tops[None])[0]
    if memo:
        _last_lift = key, lifts.copy()
    return lifts


def _gauged(tops):
    # a (k, 3) stack at once; np.hypot and real vecdots round like scalar abs and linalg.norm
    top = tops[np.arange(len(tops)), np.abs(tops).argmax(axis=1), None]
    psi = tops * (top.conj() / np.hypot(top.real, top.imag))
    return psi / np.sqrt(np.vecdot(psi.real, psi.real) + np.vecdot(psi.imag, psi.imag))[:, None]


def state_from_n(n):
    """Lift an eight-vector on O back to a state vector (deterministic gauge)."""
    return lift_of_density(density_from_n(assert_on_O(n)))


def overlap(n1, n2):
    """Transition probability Tr(rho1 rho2) = (1 + 2 n1.n2) / 3, clipped to [0, 1]."""
    assert_on_O([n1, n2])  # the dot takes the caller's arrays: it rounds by their strides
    n1, n2 = np.asarray(n1, dtype=float), np.asarray(n2, dtype=float)
    return float(min(max((1.0 + 2.0 * n1 @ n2) / 3.0, 0.0), 1.0))


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


def fold_angle(angle):
    """angle % 2 pi in [0, 2 pi): a second % folds the 2 pi a tiny negative angle rounds to."""
    return float(angle % (2 * np.pi) % (2 * np.pi))


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
    phi_defined = bool(np.hypot(m1, m2) > COMPONENT_TOL)
    chi1_defined = bool(m1 > COMPONENT_TOL)
    chi2_defined = bool(m2 > COMPONENT_TOL)
    phi = float(np.arctan2(m2, m1)) if phi_defined else 0.0
    chi1 = fold_angle(np.angle(g[0])) if chi1_defined else 0.0
    chi2 = fold_angle(np.angle(g[1])) if chi2_defined else 0.0
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
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in [*re, *im]):
        raise ValueError("state entries must be JSON numbers")
    return np.array([float(a) + 1j * float(b) for a, b in zip(re, im)])
