"""Geometric phases of three-level pure states.

The geometric phase of a curve is its total phase minus its dynamical
phase.  For a geodesic polygon it reduces to the Bargmann form

    phi_g = -arg[(psi1, psi2)(psi2, psi3) ... (psik, psi1)],

which is invariant under independent rephasing of every vertex.  A
triangle has a four-parameter canonical form (xi, eta, zeta, chi2) with
vertices

    psi1 = (0, 0, 1)
    psi2 = (0, sin xi, cos xi)
    psi3 = (sin eta cos zeta, e^{i chi2} sin eta sin zeta, cos eta)

and in it the phase collapses to the closed form

    phi_g = arg(cos xi cos eta + sin xi sin eta sin zeta e^{-i chi2}).

Four further routes to the same number are provided: the Bargmann
product, an SU(3)-invariant expression in the eight-vectors alone, a
line integral of the chart one-form

    phi_g = -loop_integral[ sin^2(theta) (cos^2(phi) dchi1
                                          + sin^2(phi) dchi2) ],

and (in the evolution module) integration of the concrete Hamiltonians
that drive the triangle.  All phases live on the principal branch
(-pi, pi].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geodesics, states, su3
from .errors import (
    ChartSingular,
    DegenerateTriangle,
    NotClosed,
    NotTwoLevel,
    OrthogonalConsecutive,
    OrthogonalPair,
    OrthogonalStates,
    OutOfRange,
    TooFewSamples,
)

_COARSE_PER_ARC = 400


@dataclass(frozen=True)
class PhaseResult:
    """An angle in (-pi, pi] tagged with the route that produced it."""

    value: float
    method: str

    def __float__(self):
        return self.value


def _closed_at_pi(angle):
    # arctan2 and angle return values in [-pi, pi]; the branch owns +pi only
    return np.pi if angle == -np.pi else angle


def principal_branch(angle):
    """Reduce an angle to (-pi, pi]."""
    return _closed_at_pi(float(np.arctan2(np.sin(angle), np.cos(angle))))


def phase_distance(a, b):
    """Distance between two angles on the circle."""
    return abs(principal_branch(float(a) - float(b)))


def total_phase(psi1, psi2):
    """Relative phase arg(psi1, psi2) of two nonorthogonal states."""
    a = states.assert_normalized(psi1)
    b = states.assert_normalized(psi2)
    ip = states.nonorthogonal(np.vdot(a, b), OrthogonalStates)
    return PhaseResult(_closed_at_pi(float(np.angle(ip))), "total")


def dynamical_phase(s, psis):
    """Quadrature of Im(psi, dpsi/ds) over one smooth parametrized piece."""
    s = np.asarray(s, dtype=float)
    psis = np.asarray(psis, dtype=complex)
    if len(s) < 3 or psis.shape[0] != len(s):
        raise TooFewSamples("need at least three parametrized samples")
    dpsi = np.gradient(psis, s, axis=0, edge_order=2)
    integrand = np.einsum("ki,ki->k", psis.conj(), dpsi).imag
    return PhaseResult(float(np.trapezoid(integrand, s)), "dynamical")


def geometric_phase_of_curve(s, psis):
    """Total minus dynamical phase of a smooth lift psis sampled at s.

    Geodesics give zero.
    """
    dyn = dynamical_phase(s, psis).value
    psis = np.asarray(psis)
    return PhaseResult(principal_branch(total_phase(psis[0], psis[-1]).value - dyn), "curve")


def bargmann_phase(psis):
    """Negative argument of the cyclic product of inner products.

    Input is a sequence of at least three normalized states; no two
    cyclically consecutive ones may be orthogonal.  The result is
    invariant under independent rephasing of every entry.
    """
    vecs = [states.assert_normalized(p) for p in psis]
    if len(vecs) < 3:
        raise TooFewSamples("a polygon needs at least three vertices")
    product = 1.0 + 0j
    for a, b in zip(vecs, vecs[1:] + [vecs[0]]):
        product *= states.nonorthogonal(np.vdot(a, b), OrthogonalConsecutive)
    return PhaseResult(_closed_at_pi(float(-np.angle(product))), "bargmann")


@dataclass(frozen=True)
class TriangleParams:
    """Canonical triangle parameters xi, eta in (0, pi/2), zeta in [0, pi/2],
    chi2 in [0, 2 pi)."""

    xi: float
    eta: float
    zeta: float
    chi2: float

    def __post_init__(self):
        for name in ("xi", "eta"):
            value = getattr(self, name)
            if not (0.0 < value < np.pi / 2):
                raise OutOfRange(f"{name} = {value!r} outside (0, pi/2)")
        if not (0.0 <= self.zeta <= np.pi / 2):
            raise OutOfRange(f"zeta = {self.zeta!r} outside [0, pi/2]")
        if not (0.0 <= self.chi2 < 2 * np.pi):
            raise OutOfRange(f"chi2 = {self.chi2!r} outside [0, 2 pi)")


def triangle_states(params):
    """Canonical vertex lifts of a parametrized triangle, rows psi1, psi2, psi3."""
    t = params
    return np.array(
        [
            [0.0, 0.0, 1.0],
            [0.0, np.sin(t.xi), np.cos(t.xi)],
            [
                np.sin(t.eta) * np.cos(t.zeta),
                np.exp(1j * t.chi2) * np.sin(t.eta) * np.sin(t.zeta),
                np.cos(t.eta),
            ],
        ],
        dtype=complex,
    )


def canonicalize_triangle(rho1, rho2, rho3):
    """Canonical parameters of a triangle of pure densities.

    The overlaps with the first vertex fix xi and eta.  The remaining two
    parameters come out of the rephasing-invariant Bargmann product B:
    in canonical gauge (psi3, psi2) = conj(B) / (cos xi cos eta), and
    subtracting cos xi cos eta leaves w = sin xi sin eta sin zeta
    e^{-i chi2}, so sin zeta = |w| / (sin xi sin eta) and chi2 = -arg w.
    The parameters only depend on the rays, not on lift gauges or a
    global SU(3) rotation.
    """
    lifts = [states.lift_of_density(r) for r in (rho1, rho2, rho3)]
    ip12 = np.vdot(lifts[0], lifts[1])
    ip23 = np.vdot(lifts[1], lifts[2])
    ip31 = np.vdot(lifts[2], lifts[0])
    for ip in (ip12, ip23, ip31):
        states.nonorthogonal(ip, OrthogonalPair)
    xi = float(np.arccos(np.clip(abs(ip12), 0.0, 1.0)))
    eta = float(np.arccos(np.clip(abs(ip31), 0.0, 1.0)))
    if xi < 1e-8 or eta < 1e-8:
        raise DegenerateTriangle(
            f"vertex coincides with the base vertex (xi = {xi:.2e}, eta = {eta:.2e})"
        )
    bargmann = ip12 * ip23 * ip31
    w = bargmann.conjugate() / (np.cos(xi) * np.cos(eta)) - np.cos(xi) * np.cos(eta)
    sin_zeta = np.clip(abs(w) / (np.sin(xi) * np.sin(eta)), 0.0, 1.0)
    zeta = float(np.arcsin(sin_zeta))
    chi2 = float(-np.angle(w) % (2 * np.pi)) if abs(w) > 1e-15 else 0.0
    return TriangleParams(xi, eta, zeta, chi2)


def pancharatnam_phase(params):
    """Closed-form triangle phase arg(cos xi cos eta + sin xi sin eta sin zeta
    e^{-i chi2})."""
    t = params
    z = np.cos(t.xi) * np.cos(t.eta) + np.sin(t.xi) * np.sin(t.eta) * np.sin(
        t.zeta
    ) * (np.cos(t.chi2) - 1j * np.sin(t.chi2))
    states.nonorthogonal(z, OrthogonalPair)
    return PhaseResult(_closed_at_pi(float(np.angle(z))), "closed-form")


def wedge_star_phase_terms(n1, n2, n3):
    """Numerator and denominator of the eight-vector phase expression.

    The triangle phase equals -atan2(numerator, denominator) with

        numerator   = 2 sqrt(3) n1 . (n2 ^ n3)
        denominator = 1 + 2 (n1 . n2 + n2 . n3 + n3 . n1) + 2 n1 . (n2 * n3),

    matching -arg Tr(rho1 rho2 rho3) branch for branch.  On O the
    denominator also equals |n1 + n2 + n3|^2 + 2 n1 . (n2 * n3) - 2, but
    that square runs up to 9 and loses digits near orthogonality.
    """
    n1, n2, n3 = (np.asarray(n, dtype=float) for n in (n1, n2, n3))
    numerator = 2.0 * su3.SQRT3 * n1 @ su3.wedge(n2, n3)
    denominator = 1.0 + 2.0 * (n1 @ n2 + n2 @ n3 + n3 @ n1 + n1 @ su3.star(n2, n3))
    return float(numerator), float(denominator)


def pancharatnam_phase_from_n(n1, n2, n3):
    """Triangle phase -arg Tr(rho1 rho2 rho3) from eight-vectors alone.

    The phase is the wedge-star formula of wedge_star_phase_terms, since
    Tr(rho1 rho2 rho3) = (denominator + i numerator) / 9; the trace meets
    the same orthogonality cutoff as the other oracles.
    """
    num, den = wedge_star_phase_terms(*(states.assert_on_O(n) for n in (n1, n2, n3)))
    trace = states.nonorthogonal(complex(den, num) / 9.0, OrthogonalPair)
    return PhaseResult(_closed_at_pi(float(-np.angle(trace))), "n-vector")


def _fill_undefined(values, defined):
    if defined.all() or not defined.any():
        return np.where(defined, values, 0.0)
    idx = np.where(defined, np.arange(len(values)), -1)
    idx = np.maximum.accumulate(idx)
    idx[idx < 0] = int(np.argmax(defined))
    return values[idx]


def _chart_line_integral(weight1, weight2, chi1, chi2):
    # trapezoids, with each chi increment unwrapped to the nearest branch
    total = 0.0
    for weight, chi in ((weight1, chi1), (weight2, chi2)):
        d = np.diff(chi)
        d -= 2 * np.pi * np.rint(d / (2 * np.pi))
        total -= 0.5 * (weight[:-1] + weight[1:]) @ d
    return float(total)


def _chart_samples(psis):
    # guarded chart weights |psi_k|^2 and filled angles arg psi_k - arg psi_3
    psis = np.asarray(psis, dtype=complex)
    if psis.ndim != 2 or psis.shape[1] != 3 or psis.shape[0] < 3:
        raise TooFewSamples("need an (N, 3) array with N >= 3")
    squares = psis.real**2 + psis.imag**2
    norms = squares.sum(axis=1)
    weights = squares / norms[:, None]
    closest = np.sqrt(weights[:, 2].min())
    if closest <= states.CHART_TOL:
        raise ChartSingular(f"loop reaches |psi_3| = {closest:.3e}; chart breaks down")
    closure = abs(np.vdot(psis[0], psis[-1])) ** 2 / (norms[0] * norms[-1])
    if abs(closure - 1.0) > 1e-7:
        raise NotClosed(f"endpoint transition probability {closure:.3e} is not 1")
    chi = np.angle(psis[:, :2] * psis[:, 2:].conj())
    filled = [_fill_undefined(c, w > 1e-24) for c, w in zip(chi.T, weights.T)]
    return weights[:, 0], weights[:, 1], *filled


def line_integral_phase_from_states(psis):
    """Loop integral of the chart one-form over sampled state lifts.

    Lifts are reduced to the chart gauge (third component real positive),
    so arbitrary smooth rephasings of the input do not matter.  The third
    component must stay away from zero; the loop must close in ray space.
    """
    value = _chart_line_integral(*_chart_samples(psis))
    return PhaseResult(principal_branch(value), "line-integral")


def triangle_line_integral_phase(rho1, rho2, rho3):
    """Line-integral phase of the geodesic triangle through three densities.

    A 200-sample scan finds the sides' smallest |psi_3| (below 2e-4 the
    chart is unusable) and sets n = max(400, 8 / closest), rounded up to
    even.  Trapezoids on m = 3 n - 2 samples a side (at most 400000) and
    on every third of them are Richardson-extrapolated, (9 fine - coarse)
    / 8, which cancels their h^2 error.  Ratio 3 keeps both counts even
    (ratio 2 would make m odd), so no sample sits on a side's midpoint,
    where a side can cross psi_3 = 0 (xi = eta = 1.2, zeta = pi/2, chi2 = pi).
    """
    rhos = [rho1, rho2, rho3]
    scan = geodesics.polygon_lift(rhos, per_arc=200)
    closest = min(np.abs(p[:, 2]).min() for _, p in scan)
    if closest <= 2e-4:
        raise ChartSingular(
            f"triangle reaches |psi_3| = {closest:.3e}; chart breaks down"
        )
    n = max(_COARSE_PER_ARC, 2 * int(np.ceil(4.0 / closest)))
    pieces = geodesics.polygon_lift(rhos, per_arc=min(3 * n - 2, 400000))
    fine = _chart_samples(np.concatenate([p for _, p in pieces], axis=0))
    coarse = [a.reshape(3, -1)[:, ::3].ravel() for a in fine]
    value = (9.0 * _chart_line_integral(*fine) - _chart_line_integral(*coarse)) / 8.0
    return PhaseResult(principal_branch(value), "line-integral")


class TwoLevelReduction(NamedTuple):
    side_a: float
    side_b: float
    side_c: float
    solid_angle: float


def spherical_excess(a, b, c):
    """Solid angle of a spherical triangle from its sides (l'Huilier)."""
    s = 0.5 * (a + b + c)
    product = (
        np.tan(0.5 * s)
        * np.tan(0.5 * (s - a))
        * np.tan(0.5 * (s - b))
        * np.tan(0.5 * (s - c))
    )
    return float(4.0 * np.arctan(np.sqrt(max(product, 0.0))))


def solid_angle_reduction(params):
    """Two-level reduction of a zeta = pi/2 triangle.

    Such a triangle lives in the 2-3 subspace, where the geometry is the
    familiar two-level sphere.  The sides are a = 2 xi, b = 2 eta and
    cos(c/2) = |cos xi cos eta + sin xi sin eta e^{i chi2}|, and the
    geometric phase obeys

        cos(phi_g) = (1 + cos a + cos b + cos c)
                     / (4 cos(a/2) cos(b/2) cos(c/2))

    with |phi_g| equal to half the solid angle enclosed by the triangle.
    Both identities are verified internally; the sign of phi_g carries
    the orientation and is read off the closed form.  Returns the sides
    and the (unsigned) solid angle.
    """
    t = params
    if abs(t.zeta - np.pi / 2) > 1e-12:
        raise NotTwoLevel(f"zeta = {t.zeta!r} is not pi/2")
    phase = pancharatnam_phase(t).value
    side_a, side_b = 2.0 * t.xi, 2.0 * t.eta
    chord = abs(
        np.cos(t.xi) * np.cos(t.eta)
        + np.sin(t.xi) * np.sin(t.eta) * np.exp(1j * t.chi2)
    )
    side_c = 2.0 * float(np.arccos(np.clip(chord, 0.0, 1.0)))
    excess = spherical_excess(side_a, side_b, side_c)
    half_angle_product = (
        4.0 * np.cos(0.5 * side_a) * np.cos(0.5 * side_b) * np.cos(0.5 * side_c)
    )
    cosine_identity = (
        1.0 + np.cos(side_a) + np.cos(side_b) + np.cos(side_c)
    ) / half_angle_product
    if abs(np.cos(phase) - cosine_identity) > 1e-9:
        raise ValueError("two-level cosine identity failed; inconsistent inputs")
    if abs(abs(phase) - 0.5 * excess) > 1e-8:
        raise ValueError("phase does not match half the solid angle")
    return TwoLevelReduction(side_a, side_b, side_c, excess)
