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
    NotTwoLevel,
    OrthogonalConsecutive,
    OrthogonalPair,
    OrthogonalStates,
    OutOfRange,
    TooFewSamples,
)

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)  # per line-integral panel
_GRADING = 0.3  # ratio of consecutive panel reaches from a side's closest approach
_JUMP_FLOOR = 1e-9  # least innermost reach; below it that panel takes the chi jump
_INNER = 18  # the innermost panel's index; _JUMP_FLOOR / _GRADING**18 > pi / 2
_SPREAD = _GRADING ** -np.arange(_INNER + 1.0)
_SPREAD = np.concatenate([-_SPREAD[::-1], _SPREAD])  # panel edges, in innermost reaches


class PhaseResult(NamedTuple):
    """An angle in (-pi, pi] tagged with the route that produced it."""

    value: float
    method: str

    def __float__(self):
        return self.value


def _closed_at_pi(angle):
    # arctan2 and angle give [-pi, pi]; the branch owns +pi only, and zero is unsigned
    return np.pi if angle == -np.pi else angle + 0.0


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


# A dataclass, not a NamedTuple, for the range checks of __post_init__ and for asdict.
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
    lifts = states.lift_of_density([rho1, rho2, rho3])
    ips = np.vecdot(lifts, lifts[[1, 2, 0]])
    ip12, ip23, ip31 = (states.nonorthogonal(ip, OrthogonalPair) for ip in ips)
    # np.hypot gives scalar abs's doubles (np.abs rounds differently) and is never below 0
    xi, _, eta = np.arccos(np.minimum(np.hypot(ips.real, ips.imag), 1.0)).tolist()
    if xi < 1e-8 or eta < 1e-8:
        raise DegenerateTriangle(
            f"vertex coincides with the base vertex (xi = {xi:.2e}, eta = {eta:.2e})"
        )
    bargmann = ip12 * ip23 * ip31
    w = bargmann.conjugate() / (np.cos(xi) * np.cos(eta)) - np.cos(xi) * np.cos(eta)
    sin_zeta = min(abs(w) / (np.sin(xi) * np.sin(eta)), 1.0)  # never below 0
    zeta = float(np.arcsin(sin_zeta))
    chi2 = states.fold_angle(-np.angle(w)) if abs(w) > 1e-15 else 0.0
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
    states.assert_on_O([n1, n2, n3])  # the terms keep the caller's strides, which round dots
    num, den = wedge_star_phase_terms(n1, n2, n3)
    trace = states.nonorthogonal(complex(den, num) / 9.0, OrthogonalPair)
    return PhaseResult(_closed_at_pi(float(-np.angle(trace))), "n-vector")


def _chart_one_form(psi, dpsi):
    # -(w1 dchi1 + w2 dchi2)/ds as written, w_k dchi_k = Im(conj psi_k dpsi_k)
    # - |psi_k|^2 Im(conj psi_3 dpsi_3) / |psi_3|^2; components first
    flux = (psi.conj() * dpsi).imag
    weights = psi.real**2 + psi.imag**2
    return (weights[0] + weights[1]) * flux[2] / weights[2] - flux[0] - flux[1]


def _sides_line_integral(sides):
    start, tangent = np.array([g.psi0 for g in sides]), np.array([g.tangent for g in sides])
    length = np.array([g.length for g in sides])
    # |psi_3|^2 = p + q cos 2s + r sin 2s is least at the turn, else at the
    # end nearer to it modulo pi
    a, b = start[:, 2], tangent[:, 2]
    turn = 0.5 * (np.arctan2((a.conj() * b).real, 0.5 * (abs(a) ** 2 - abs(b) ** 2)) + np.pi)
    turn = np.where(turn <= length, turn, np.where(2 * turn < np.pi + length, length, 0.0))
    # re-centred at s*, psi = p0 cos u + v0 sin u keeps a small psi_3 exact
    cos, sin = np.cos(turn)[:, None], np.sin(turn)[:, None]
    p0, v0 = start * cos + tangent * sin, tangent * cos - start * sin
    with np.errstate(divide="ignore"):
        delta = abs(p0[:, 2]) / abs(v0[:, 2])
    reach = np.maximum(delta, _JUMP_FLOOR)[:, None] * _SPREAD
    edges = np.clip(reach, -turn[:, None], (length - turn)[:, None])
    lo, hi = edges[:, :-1], edges[:, 1:]
    used, jumps = hi > lo, delta < _JUMP_FLOOR
    total = 0.0
    if jumps.any():
        # arg psi_3 turns by up to pi inside the innermost panel: no node
        # sees that, the wrapped chi increments between its ends do.  Each
        # arg psi_j is wrapped once, so both chi_k take psi_3's half turn with
        # one sign, and as w1 + w2 = 1 either sign gives the same branch
        ends = edges[jumps, _INNER : _INNER + 2, None]
        ends = p0[jumps, None] * np.cos(ends) + v0[jumps, None] * np.sin(ends)
        turns = np.diff(np.angle(ends), axis=1)
        turns -= 2 * np.pi * np.rint(turns / (2 * np.pi))
        step = turns[..., :2] - turns[..., 2:]
        weights = ends[..., :2].real ** 2 + ends[..., :2].imag ** 2
        total -= float((weights.mean(axis=1, keepdims=True) * step).sum())
        used[jumps, _INNER] = False
    rows, half = np.nonzero(used)[0], 0.5 * (hi - lo)[used, None]
    u = 0.5 * (hi + lo)[used, None] + half * _NODES
    cos, sin = np.cos(u), np.sin(u)
    p0, v0 = p0.T[:, rows, None], v0.T[:, rows, None]
    psi, dpsi = p0 * cos + v0 * sin, v0 * cos - p0 * sin
    return total + float((_chart_one_form(psi, dpsi) * (half * _WEIGHTS)).sum())


def triangle_line_integral_phase(rho1, rho2, rho3):
    """Line-integral phase of the geodesic triangle through three densities.

    A vertex lift with |psi_3| <= 2e-4 raises ChartSingular.  The rule
    below loses digits as a side's end nears psi_3 = 0 (2e-11 at 1e-5), not
    as its inside does, down to an exact crossing; a side near psi_3 = 0
    throughout has both ends there.  Each side psi(s) = psi0 cos s + v sin s
    is integrated by one fixed rule, the one-form evaluated on the exact
    tangent.  The side's closest approach s* to psi_3 = 0 comes in
    closed form, and the side is rewritten from there as p0 cos u + v0 sin u,
    u = s - s*, so psi_3 near a near-zero carries no cancellation.  The
    one-form's near-poles lie about delta = |p0_3| / |v0_3| from s*, so
    panels break at s* +- delta / 0.3^k, clipped to the side, each with 24
    Gauss-Legendre nodes.  Below delta = 1e-9 the innermost panel, 1e-9 on
    each side of s*, takes the wrapped chi increments between its ends:
    arg psi_3 turns by up to pi there, all of it when the side crosses
    psi_3 = 0 (xi = eta = 1.2, zeta = pi/2, chi2 = pi).  A side has at
    most 37 panels, so every call has the same cost cap.
    """
    sides = geodesics.polygon_sides([rho1, rho2, rho3])
    closest = min(abs(g.psi0[2]) for g in sides)
    if closest <= 2e-4:
        raise ChartSingular(f"a vertex has |psi_3| = {closest:.3e}; chart breaks down")
    return PhaseResult(principal_branch(_sides_line_integral(sides)), "line-integral")


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

    with |phi_g| equal to half the solid angle enclosed by the triangle;
    the sign of phi_g carries the orientation.  Returns the sides and the
    (unsigned) solid angle; the 'check' sweep check_two_level verifies
    both identities against the closed form.
    """
    t = params
    if abs(t.zeta - np.pi / 2) > 1e-12:
        raise NotTwoLevel(f"zeta = {t.zeta!r} is not pi/2")
    side_a, side_b = 2.0 * t.xi, 2.0 * t.eta
    chord = abs(
        np.cos(t.xi) * np.cos(t.eta)
        + np.sin(t.xi) * np.sin(t.eta) * np.exp(1j * t.chi2)
    )
    side_c = 2.0 * float(np.arccos(np.clip(chord, 0.0, 1.0)))
    return TwoLevelReduction(side_a, side_b, side_c, spherical_excess(side_a, side_b, side_c))
