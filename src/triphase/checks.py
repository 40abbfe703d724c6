"""Seeded invariant sweeps behind the command-line 'check' verb.

Every check draws its randomness from a per-trial seed sequence derived
from (master seed, trial index), so reports are reproducible byte for
byte and independent of execution order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import evolution, geodesics, phases, states, su3
from .errors import ChartSingular, OutOfRange


@dataclass(frozen=True)
class CheckResult:
    """One check's measured value against its tolerance, from BOUNDS or a
    --tol override; bound_kind says how the tolerance judges the value:
    "upper", "lower" (at or above it) or "interval"."""

    name: str
    value: float
    tolerance: object
    passed: bool
    trials: int | None = None
    bound_kind: str = "upper"


# Every check's bound, in report order: an upper bound on the measured
# value, the one lower bound (_LOWER_BOUNDED), or an interval (lo, hi).
BOUNDS = {
    "algebra.tables": 1e-14,
    "algebra.trace_orthonormality": 1e-14,
    "algebra.bilinearity": 1e-12,
    "algebra.adjoint_homomorphism": 1e-11,
    "algebra.product_covariance": 1e-11,
    "states.membership": 1e-10,
    "states.opening_angle_excess": 1e-12,
    "states.antipode_excluded": 0.5,
    "states.poles": 1e-15,
    "states.equivariance": 1e-11,
    "states.chart_roundtrip": 1e-10,
    "geodesics.endpoint_roundtrip": 1e-10,
    "geodesics.sample_normalization": 1e-12,
    "geodesics.planarity_failures": 0,
    "geodesics.equivariance": 1e-10,
    "geodesics.length": 1e-6,
    "geodesics.zero_phase": 1e-7,
    "phases.closed_form_agreement": 1e-10,
    "phases.line_integral_agreement": 1e-11,
    "phases.rephasing_invariance": 1e-12,
    "phases.su3_invariance": 1e-10,
    "phases.evolution_agreement": 1e-6,
    "evolution.cyclic_closure": 1e-7,
    "evolution.vanishing_dynamical_phase": 1e-9,
    "phases.chi2_oddness": 1e-12,
    "phases.two_level_cosine": 1e-10,
    "phases.two_level_solid_angle": 1e-9,
    "evolution.two_pictures": 1e-7,
    "evolution.adjoint_norm_drift": 1e-8,
    "evolution.geodesic_generation": 1e-8,
    "evolution.energy_expectation": 1e-9,
    "evolution.convergence_order": (12.0, 20.0),
}
_LOWER_BOUNDED = frozenset({"states.antipode_excluded"})

# Every check with an upper or lower bound, which --tol may override.  The
# names are fixed per sweep, so overrides are validated before any runs.
BOUNDED_CHECKS = frozenset(n for n, b in BOUNDS.items() if not isinstance(b, tuple))


def _result(name, value, trials=None, bound=None):
    """The check's record, value judged against bound (default: its BOUNDS
    entry).  A NaN value fails every kind of bound."""
    bound = BOUNDS[name] if bound is None else bound
    if isinstance(bound, tuple):
        kind, passed = "interval", bound[0] <= value <= bound[1]
    elif name in _LOWER_BOUNDED:
        kind, passed = "lower", value >= bound
    else:
        kind, passed = "upper", value <= bound
    return CheckResult(name, float(value), bound, bool(passed), trials, kind)


def _rng(seed, trial):
    return np.random.default_rng([seed, trial])


def _sweep(*names):
    """Make a per-trial measurement errors(rng), one value per name, into the
    sweep check(seed, trials) judging each name's worst value over the trials.
    Trial k draws from its own generator _rng(seed, k).  The worst is a
    column-wise max, and a name measuring several values takes their np.max:
    unlike a running max(), both keep a NaN."""

    def decorate(errors):
        @functools.wraps(errors)
        def check(seed, trials):
            measured = [errors(_rng(seed, k)) for k in range(trials)]
            worst = np.array(measured, dtype=float).max(axis=0).reshape(len(names))
            return [_result(name, value, trials) for name, value in zip(names, worst)]

        return check

    return decorate


def _nonorthogonal_states(rng, count=3):
    """Haar-random states, redrawn until every cyclically consecutive pair
    has transition probability above 1e-3."""
    while True:
        psis = states.random_states(rng, count)
        pairs = zip(psis, np.roll(psis, -1, axis=0))
        if all(abs(np.vdot(a, b)) ** 2 > 1e-3 for a, b in pairs):
            return psis


# perfbench replays the triangle sweeps' first draw under this name
_nonorthogonal_triangle = _nonorthogonal_states


def check_algebra_tables(seed, trials):
    products = su3.LAMBDA[:, None] @ su3.LAMBDA[None, :]  # l_r l_s, all 64 pairs
    swapped = products.transpose(1, 0, 2, 3)
    recon_f = 2j * np.einsum("rst,tij->rsij", su3.F, su3.LAMBDA)
    recon_d = 2.0 * np.einsum("rst,tij->rsij", su3.D, su3.LAMBDA)
    recon_d += (4.0 / 3.0) * np.einsum("rs,ij->rsij", np.eye(8), np.eye(3))
    worst_f = np.abs(products - swapped - recon_f).max()
    worst_d = np.abs(products + swapped - recon_d).max()
    gram = np.einsum("rij,sji->rs", su3.LAMBDA, su3.LAMBDA)
    trace_err = np.abs(gram - 2.0 * np.eye(8)).max()
    return [
        _result("algebra.tables", np.maximum(worst_f, worst_d)),
        _result("algebra.trace_orthonormality", trace_err),
    ]


@_sweep("algebra.bilinearity")
def check_bilinearity(rng):
    a, b, c = rng.standard_normal((3, 8))
    x, y = rng.standard_normal(2)
    mixed = x * a + y * b
    products = (su3.wedge, su3.star)
    left = [np.abs(p(mixed, c) - x * p(a, c) - y * p(b, c)).max() for p in products]
    right = [np.abs(p(c, mixed) - x * p(c, a) - y * p(c, b)).max() for p in products]
    antisymmetry = np.abs(su3.wedge(a, b) + su3.wedge(b, a)).max()
    symmetry = np.abs(su3.star(a, b) - su3.star(b, a)).max()
    return np.max([*left, *right, antisymmetry, symmetry])


@_sweep("algebra.adjoint_homomorphism", "algebra.product_covariance")
def check_adjoint(rng):
    first = su3.random_special_unitary(rng)
    second = su3.random_special_unitary(rng)
    a, b = rng.standard_normal((2, 8))
    d1 = su3.adjoint_of(first)
    d2 = su3.adjoint_of(second)
    covariance = [np.abs(d1 @ p(a, b) - p(d1 @ a, d1 @ b)).max() for p in (su3.wedge, su3.star)]
    return np.abs(su3.adjoint_of(second @ first) - d2 @ d1).max(), np.max(covariance)


def check_membership(seed, trials):
    ns = states.n_vectors_of(states.random_states(_rng(seed, 0), max(trials, 2)))
    norm_defect = np.abs(np.einsum("kr,kr->k", ns, ns) - 1.0).max()
    star_defect = np.abs(su3.star(ns, ns) - ns).max()
    other = states.n_vectors_of(states.random_states(_rng(seed, 1), max(trials, 2)))
    angles = np.arccos(np.clip(np.einsum("kr,kr->k", ns, other), -1.0, 1.0))
    excess = np.maximum(0.0, angles.max() - 2.0 * np.pi / 3.0)
    flipped = -ns
    antipode = np.abs(su3.star(flipped, flipped) - flipped).max(axis=1).min()
    pole_err = np.abs(states.n_vectors_of(np.eye(3)) - states.POLES).max()
    return [
        _result("states.membership", np.maximum(norm_defect, star_defect), trials),
        _result("states.opening_angle_excess", excess, trials),
        _result("states.antipode_excluded", antipode, trials),
        _result("states.poles", pole_err),
    ]


@_sweep("states.equivariance")
def check_equivariance(rng):
    rotation = su3.random_special_unitary(rng)
    psi = states.random_state(rng)
    image = su3.adjoint_of(rotation) @ states.n_vector_of(psi)
    return np.abs(states.n_vector_of(rotation @ psi) - image).max()


@_sweep("states.chart_roundtrip")
def check_chart_roundtrip(rng):
    psi = states.random_state(rng)
    while abs(psi[2]) <= 0.1:
        psi = states.random_state(rng)
    back = states.from_octant_coords(states.to_octant_coords(psi))
    closed = states.n_from_octant_coords(states.to_octant_coords(psi))
    return np.max((
        abs(abs(np.vdot(psi, back)) ** 2 - 1.0),
        np.abs(closed - states.n_vector_of(psi)).max(),
    ))


@_sweep(
    "geodesics.endpoint_roundtrip",
    "geodesics.sample_normalization",
    "geodesics.planarity_failures",
    "geodesics.equivariance",
)
def check_geodesics(rng):
    pair = _nonorthogonal_states(rng, 2)
    curve = geodesics.geodesic_between(*map(states.density_of, pair))
    end = curve.endpoint
    grid = np.linspace(0.0, curve.length, 50)
    lifts = curve(grid)
    ns = states.n_vectors_of(lifts)
    planar, affine_rank = geodesics.planarity_test(ns)
    unitary = su3.random_special_unitary(rng)
    mapped = geodesics.geodesic_between(*(states.density_of(unitary @ p) for p in pair))
    image = states.n_vectors_of(mapped(grid))
    return (
        np.abs(np.outer(end, end.conj()) - states.density_of(pair[1])).max(),
        np.abs(np.einsum("ki,ki->k", lifts.conj(), lifts).real - 1.0).max(),
        # 1 when the image curve is not planar with affine rank 2 and span rank 3
        float(not planar or affine_rank != 2 or geodesics.span_rank(ns) != 3),
        np.abs(image - ns @ su3.adjoint_of(unitary).T).max(),
    )


@_sweep("geodesics.length", "geodesics.zero_phase")
def check_length_and_zero_phase(rng):
    pair = _nonorthogonal_states(rng, 2)
    curve = geodesics.geodesic_between(*map(states.density_of, pair))
    grid = np.linspace(0.0, curve.length, 2001)
    lifts = curve(grid)
    return (
        abs(geodesics.curve_length(grid, lifts) - curve.length),
        abs(phases.geometric_phase_of_curve(grid, lifts).value),
    )


@_sweep(
    "phases.closed_form_agreement",
    "phases.line_integral_agreement",
    "phases.rephasing_invariance",
    "phases.su3_invariance",
)
def check_triangle_oracles(rng):
    # redraw, like the orthogonality screen, until no vertex is at the chart's edge
    while True:
        psis = _nonorthogonal_states(rng)
        rhos = [states.density_of(p) for p in psis]
        try:
            line = phases.triangle_line_integral_phase(*rhos).value
            break
        except ChartSingular:
            pass
    ns = [states.n_vector_of(p) for p in psis]
    closed = phases.pancharatnam_phase(phases.canonicalize_triangle(*rhos)).value
    barg = phases.bargmann_phase(list(psis)).value
    nvec = phases.pancharatnam_phase_from_n(*ns).value
    rephased = [p * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) for p in psis]
    unitary = su3.random_special_unitary(rng)
    moved = [states.density_of(unitary @ p) for p in psis]
    invariant = phases.pancharatnam_phase(phases.canonicalize_triangle(*moved)).value
    return (
        np.max((
            phases.phase_distance(closed, barg),
            phases.phase_distance(closed, nvec),
            phases.phase_distance(barg, nvec),
        )),
        phases.phase_distance(line, closed),
        phases.phase_distance(phases.bargmann_phase(rephased).value, barg),
        phases.phase_distance(invariant, closed),
    )


@_sweep(
    "phases.evolution_agreement",
    "evolution.cyclic_closure",
    "evolution.vanishing_dynamical_phase",
)
def check_evolution_agreement(rng):
    psis = _nonorthogonal_states(rng)
    rhos = [states.density_of(p) for p in psis]
    closed = phases.pancharatnam_phase(phases.canonicalize_triangle(*rhos)).value
    trajectory, evo, closure = evolution.evolve_triangle(*rhos, step=5e-3)
    return (
        phases.phase_distance(evo.value, closed),
        closure,
        np.abs(trajectory.phi_dyn).max(),
    )


@_sweep("phases.chi2_oddness")
def check_chi2_oddness(rng):
    xi, eta = rng.uniform(0.05, np.pi / 2 - 0.05, 2)
    zeta = rng.uniform(0.0, np.pi / 2)
    chi2 = rng.uniform(1e-6, np.pi)
    plus = phases.pancharatnam_phase(phases.TriangleParams(xi, eta, zeta, chi2))
    minus = phases.pancharatnam_phase(
        phases.TriangleParams(xi, eta, zeta, 2.0 * np.pi - chi2)
    )
    return phases.phase_distance(plus.value, -minus.value)


@_sweep("phases.two_level_cosine", "phases.two_level_solid_angle")
def check_two_level(rng):
    xi, eta = rng.uniform(0.05, np.pi / 2 - 0.05, 2)
    chi2 = rng.uniform(0.0, 2.0 * np.pi)
    params = phases.TriangleParams(xi, eta, np.pi / 2, chi2)
    phase = phases.pancharatnam_phase(params).value
    a, b, c, solid = phases.solid_angle_reduction(params)
    identity = (1.0 + np.cos(a) + np.cos(b) + np.cos(c)) / (
        4.0 * np.cos(a / 2) * np.cos(b / 2) * np.cos(c / 2)
    )
    return abs(np.cos(phase) - identity), abs(abs(phase) - 0.5 * solid)


@_sweep("evolution.two_pictures", "evolution.adjoint_norm_drift")
def check_two_pictures(rng):
    segments = tuple(
        (
            geodesics.HamiltonianCoeffs(
                float(rng.standard_normal()), rng.standard_normal(8) * 0.5
            ),
            float(rng.uniform(0.2, 0.6)),
        )
        for _ in range(3)
    )
    schedule = evolution.Schedule(segments)
    psi0 = states.random_state(rng)
    by_state = evolution.integrate_state(psi0, schedule, 2e-3)
    by_vector = evolution.integrate_nvector(states.n_vector_of(psi0), schedule, 2e-3)
    return (
        np.abs(by_state.n - by_vector.n).max(),
        np.abs(np.linalg.norm(by_vector.n, axis=1) - 1.0).max(),
    )


@_sweep("evolution.geodesic_generation", "evolution.energy_expectation")
def check_geodesic_generation(rng):
    pair = _nonorthogonal_states(rng, 2)
    na, nb = states.n_vectors_of(pair)
    coeffs = geodesics.constant_hamiltonian(na, nb)
    opening = geodesics.geodesic_angle(na, nb)
    schedule = evolution.Schedule(((coeffs, opening),))
    trajectory = evolution.integrate_state(pair[0], schedule, 1e-3)
    final = trajectory.psi[-1]
    energies = np.einsum(
        "ki,ij,kj->k", trajectory.psi.conj(), coeffs.matrix(), trajectory.psi
    ).real
    return (
        np.abs(np.outer(final, final.conj()) - states.density_of(pair[1])).max(),
        np.abs(energies).max(),
    )


def check_convergence_order(seed, trials):
    target = np.array([0.0, np.sin(1.0), np.cos(1.0)], dtype=complex)
    coeffs = geodesics.constant_hamiltonian(states.POLES[2], states.n_vector_of(target))
    schedule = evolution.Schedule(((coeffs, 1.0),))
    errors = []
    for step in (0.02, 0.01):
        final = evolution.integrate_state(np.eye(3, dtype=complex)[2], schedule, step).psi[-1]
        errors.append(np.abs(np.outer(final, final.conj()) - states.density_of(target)).max())
    return [_result("evolution.convergence_order", errors[0] / errors[1])]


ALL_CHECKS = (
    check_algebra_tables,
    check_bilinearity,
    check_adjoint,
    check_membership,
    check_equivariance,
    check_chart_roundtrip,
    check_geodesics,
    check_length_and_zero_phase,
    check_triangle_oracles,
    check_evolution_agreement,
    check_chi2_oddness,
    check_two_level,
    check_two_pictures,
    check_geodesic_generation,
    check_convergence_order,
)


def run_all(seed=0, trials=100, overrides=None):
    """Run every sweep; returns a report dict with per-check records.

    Raises, before any sweep runs, OutOfRange if trials is below 1 and
    KeyError if overrides names a check that is unknown or has an
    interval bound.
    """
    if trials < 1:
        raise OutOfRange(f"trials = {trials}, need at least 1")
    overrides = dict(overrides or {})
    rejected = set(overrides) - BOUNDED_CHECKS
    if rejected:
        raise KeyError(f"no upper or lower bound named {sorted(rejected)}")
    results = [
        _result(r.name, r.value, r.trials, float(overrides[r.name]))
        if r.name in overrides
        else r
        for check in ALL_CHECKS
        for r in check(seed, trials)
    ]
    return {
        "seed": seed,
        "trials": trials,
        "results": results,
        "all_passed": all(r.passed for r in results),
    }
