"""Seeded invariant sweeps behind the command-line 'check' verb.

Every check draws its randomness from a per-trial seed sequence derived
from (master seed, trial index), so reports are reproducible byte for
byte and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evolution, geodesics, phases, states, su3
from .errors import ChartSingular


@dataclass(frozen=True)
class CheckResult:
    """One property sweep: measured value against its bound.

    For most checks the value is a worst-case error and must stay below
    the tolerance; checks marked lower_bound=True require the value to
    stay above it, and interval checks give tolerance as (lo, hi).
    """

    name: str
    value: float
    tolerance: object
    passed: bool
    trials: int | None = None
    lower_bound: bool = False


def _upper(name, value, tol, trials=None):
    return CheckResult(name, float(value), tol, bool(value <= tol), trials)


def _rng(seed, trial):
    return np.random.default_rng([seed, trial])


def _nonorthogonal_states(rng, count=3, floor=1e-3):
    """Haar-random states, redrawn until every cyclically consecutive pair
    has transition probability above floor."""
    while True:
        psis = states.random_states(rng, count)
        pairs = zip(psis, np.roll(psis, -1, axis=0))
        if all(abs(np.vdot(a, b)) ** 2 > floor for a, b in pairs):
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
        _upper("algebra.tables", max(worst_f, worst_d), 1e-14),
        _upper("algebra.trace_orthonormality", trace_err, 1e-14),
    ]


def check_bilinearity(seed, trials):
    worst = 0.0
    for k in range(trials):
        rng = _rng(seed, k)
        a, b, c = rng.standard_normal((3, 8))
        x, y = rng.standard_normal(2)
        for product in (su3.wedge, su3.star):
            worst = max(
                worst,
                np.abs(
                    product(x * a + y * b, c) - x * product(a, c) - y * product(b, c)
                ).max(),
                np.abs(
                    product(c, x * a + y * b) - x * product(c, a) - y * product(c, b)
                ).max(),
            )
        worst = max(worst, np.abs(su3.wedge(a, b) + su3.wedge(b, a)).max())
        worst = max(worst, np.abs(su3.star(a, b) - su3.star(b, a)).max())
    return [_upper("algebra.bilinearity", worst, 1e-12, trials)]


def check_adjoint(seed, trials):
    worst_homo = worst_cov = 0.0
    for k in range(trials):
        rng = _rng(seed, k)
        first = su3.random_special_unitary(rng)
        second = su3.random_special_unitary(rng)
        a, b = rng.standard_normal((2, 8))
        d1 = su3.adjoint_of(first)
        d2 = su3.adjoint_of(second)
        worst_homo = max(
            worst_homo, np.abs(su3.adjoint_of(second @ first) - d2 @ d1).max()
        )
        worst_cov = max(
            worst_cov,
            np.abs(d1 @ su3.wedge(a, b) - su3.wedge(d1 @ a, d1 @ b)).max(),
            np.abs(d1 @ su3.star(a, b) - su3.star(d1 @ a, d1 @ b)).max(),
        )
    return [
        _upper("algebra.adjoint_homomorphism", worst_homo, 1e-11, trials),
        _upper("algebra.product_covariance", worst_cov, 1e-11, trials),
    ]


def check_membership(seed, trials):
    psis = states.random_states(np.random.default_rng([seed, 0]), max(trials, 2))
    ns = states.n_vectors_of(psis)
    norm_defect = np.abs(np.einsum("kr,kr->k", ns, ns) - 1.0).max()
    star_defect = np.abs(su3.star(ns, ns) - ns).max()
    other = states.n_vectors_of(
        states.random_states(np.random.default_rng([seed, 1]), max(trials, 2))
    )
    angles = np.arccos(np.clip(np.einsum("kr,kr->k", ns, other), -1.0, 1.0))
    excess = max(0.0, angles.max() - 2.0 * np.pi / 3.0)
    flipped = -ns
    antipode = np.abs(su3.star(flipped, flipped) - flipped).max(axis=1).min()
    pole_err = np.abs(states.n_vectors_of(np.eye(3)) - states.POLES).max()
    return [
        _upper("states.membership", max(norm_defect, star_defect), 1e-10, trials),
        _upper("states.opening_angle_excess", excess, 1e-12, trials),
        CheckResult(
            "states.antipode_excluded", float(antipode), 0.5, bool(antipode >= 0.5),
            trials, lower_bound=True,
        ),
        _upper("states.poles", pole_err, 1e-15),
    ]


def check_equivariance(seed, trials):
    worst = 0.0
    for k in range(trials):
        rng = _rng(seed, k)
        rotation = su3.random_special_unitary(rng)
        psi = states.random_state(rng)
        image = su3.adjoint_of(rotation) @ states.n_vector_of(psi)
        worst = max(worst, np.abs(states.n_vector_of(rotation @ psi) - image).max())
    return [_upper("states.equivariance", worst, 1e-11, trials)]


def check_chart_roundtrip(seed, trials):
    worst = 0.0
    for k in range(trials):
        rng = _rng(seed, k)
        psi = states.random_state(rng)
        while abs(psi[2]) <= 0.1:
            psi = states.random_state(rng)
        back = states.from_octant_coords(states.to_octant_coords(psi))
        worst = max(worst, abs(abs(np.vdot(psi, back)) ** 2 - 1.0))
        closed = states.n_from_octant_coords(states.to_octant_coords(psi))
        worst = max(worst, np.abs(closed - states.n_vector_of(psi)).max())
    return [_upper("states.chart_roundtrip", worst, 1e-10, trials)]


def check_geodesics(seed, trials):
    worst_end = worst_norm = worst_equi = 0.0
    rank_failures = 0
    for k in range(trials):
        rng = _rng(seed, k)
        pair = _nonorthogonal_states(rng, 2)
        curve = geodesics.geodesic_between(
            states.density_of(pair[0]), states.density_of(pair[1])
        )
        end = curve.endpoint
        worst_end = max(
            worst_end,
            np.abs(np.outer(end, end.conj()) - states.density_of(pair[1])).max(),
        )
        grid = np.linspace(0.0, curve.length, 50)
        lifts = curve(grid)
        worst_norm = max(
            worst_norm,
            np.abs(np.einsum("ki,ki->k", lifts.conj(), lifts).real - 1.0).max(),
        )
        ns = states.n_vectors_of(lifts)
        planar, affine_rank = geodesics.planarity_test(ns)
        if not planar or affine_rank != 2 or geodesics.span_rank(ns) != 3:
            rank_failures += 1
        unitary = su3.random_special_unitary(rng)
        mapped = geodesics.geodesic_between(
            states.density_of(unitary @ pair[0]),
            states.density_of(unitary @ pair[1]),
        )
        image = states.n_vectors_of(mapped(grid))
        worst_equi = max(
            worst_equi,
            np.abs(image - ns @ su3.adjoint_of(unitary).T).max(),
        )
    return [
        _upper("geodesics.endpoint_roundtrip", worst_end, 1e-10, trials),
        _upper("geodesics.sample_normalization", worst_norm, 1e-12, trials),
        _upper("geodesics.planarity_failures", rank_failures, 0, trials),
        _upper("geodesics.equivariance", worst_equi, 1e-10, trials),
    ]


def check_length_and_zero_phase(seed, trials):
    worst_len = worst_phase = 0.0
    for k in range(trials):
        rng = _rng(seed, k)
        pair = _nonorthogonal_states(rng, 2)
        curve = geodesics.geodesic_between(
            states.density_of(pair[0]), states.density_of(pair[1])
        )
        grid = np.linspace(0.0, curve.length, 2001)
        lifts = curve(grid)
        worst_len = max(
            worst_len, abs(geodesics.curve_length(grid, lifts) - curve.length)
        )
        worst_phase = max(
            worst_phase, abs(phases.geometric_phase_of_curve(grid, lifts).value)
        )
    return [
        _upper("geodesics.length", worst_len, 1e-6, trials),
        _upper("geodesics.zero_phase", worst_phase, 1e-7, trials),
    ]


def check_triangle_oracles(seed, trials):
    worst_trio = worst_line = worst_rephase = worst_su3 = 0.0
    for k in range(trials):
        rng = _rng(seed, k)
        # redraw, like the orthogonality screen, until the sides avoid the chart's edge
        while True:
            psis = _nonorthogonal_states(rng)
            rhos = [states.density_of(p) for p in psis]
            try:
                line = phases.triangle_line_integral_phase(*rhos).value
                break
            except ChartSingular:
                pass
        ns = [states.n_vector_of(p) for p in psis]
        closed = phases.pancharatnam_phase(
            phases.canonicalize_triangle(*rhos)
        ).value
        barg = phases.bargmann_phase(list(psis)).value
        nvec = phases.pancharatnam_phase_from_n(*ns).value
        worst_trio = max(
            worst_trio,
            phases.phase_distance(closed, barg),
            phases.phase_distance(closed, nvec),
            phases.phase_distance(barg, nvec),
        )
        worst_line = max(worst_line, phases.phase_distance(line, closed))
        rephased = [p * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) for p in psis]
        worst_rephase = max(
            worst_rephase,
            phases.phase_distance(phases.bargmann_phase(rephased).value, barg),
        )
        unitary = su3.random_special_unitary(rng)
        moved = [states.density_of(unitary @ p) for p in psis]
        invariant = phases.pancharatnam_phase(
            phases.canonicalize_triangle(*moved)
        ).value
        worst_su3 = max(worst_su3, phases.phase_distance(invariant, closed))
    return [
        _upper("phases.closed_form_agreement", worst_trio, 1e-10, trials),
        _upper("phases.line_integral_agreement", worst_line, 1e-5, trials),
        _upper("phases.rephasing_invariance", worst_rephase, 1e-12, trials),
        _upper("phases.su3_invariance", worst_su3, 1e-10, trials),
    ]


def check_evolution_agreement(seed, trials):
    worst_evo = worst_closure = worst_dyn = 0.0
    for k in range(trials):
        rng = _rng(seed, k)
        psis = _nonorthogonal_states(rng)
        rhos = [states.density_of(p) for p in psis]
        closed = phases.pancharatnam_phase(
            phases.canonicalize_triangle(*rhos)
        ).value
        trajectory, evo, closure = evolution.evolve_triangle(*rhos, step=5e-3)
        worst_evo = max(worst_evo, phases.phase_distance(evo.value, closed))
        worst_closure = max(worst_closure, closure)
        worst_dyn = max(worst_dyn, np.abs(trajectory.phi_dyn).max())
    return [
        _upper("phases.evolution_agreement", worst_evo, 1e-6, trials),
        _upper("evolution.cyclic_closure", worst_closure, 1e-7, trials),
        _upper("evolution.vanishing_dynamical_phase", worst_dyn, 1e-9, trials),
    ]


def check_chi2_oddness(seed, trials):
    worst = 0.0
    for k in range(trials):
        rng = _rng(seed, k)
        xi, eta = rng.uniform(0.05, np.pi / 2 - 0.05, 2)
        zeta = rng.uniform(0.0, np.pi / 2)
        chi2 = rng.uniform(1e-6, np.pi)
        plus = phases.pancharatnam_phase(phases.TriangleParams(xi, eta, zeta, chi2))
        minus = phases.pancharatnam_phase(
            phases.TriangleParams(xi, eta, zeta, 2.0 * np.pi - chi2)
        )
        worst = max(worst, phases.phase_distance(plus.value, -minus.value))
    return [_upper("phases.chi2_oddness", worst, 1e-12, trials)]


def check_two_level(seed, trials):
    worst_cos = worst_half = 0.0
    for k in range(trials):
        rng = _rng(seed, k)
        xi, eta = rng.uniform(0.05, np.pi / 2 - 0.05, 2)
        chi2 = rng.uniform(0.0, 2.0 * np.pi)
        params = phases.TriangleParams(xi, eta, np.pi / 2, chi2)
        phase = phases.pancharatnam_phase(params).value
        a, b, c, solid = phases.solid_angle_reduction(params)
        identity = (1.0 + np.cos(a) + np.cos(b) + np.cos(c)) / (
            4.0 * np.cos(a / 2) * np.cos(b / 2) * np.cos(c / 2)
        )
        worst_cos = max(worst_cos, abs(np.cos(phase) - identity))
        worst_half = max(worst_half, abs(abs(phase) - 0.5 * solid))
    return [
        _upper("phases.two_level_cosine", worst_cos, 1e-10, trials),
        _upper("phases.two_level_solid_angle", worst_half, 1e-9, trials),
    ]


def check_two_pictures(seed, trials):
    worst = worst_norm = 0.0
    for k in range(trials):
        rng = _rng(seed, k)
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
        by_vector = evolution.integrate_nvector(
            states.n_vector_of(psi0), schedule, 2e-3
        )
        worst = max(worst, np.abs(by_state.n - by_vector.n).max())
        worst_norm = max(
            worst_norm, np.abs(np.linalg.norm(by_vector.n, axis=1) - 1.0).max()
        )
    return [
        _upper("evolution.two_pictures", worst, 1e-7, trials),
        _upper("evolution.adjoint_norm_drift", worst_norm, 1e-8, trials),
    ]


def check_geodesic_generation(seed, trials):
    worst_end = worst_energy = 0.0
    for k in range(trials):
        rng = _rng(seed, k)
        pair = _nonorthogonal_states(rng, 2)
        na, nb = states.n_vectors_of(pair)
        coeffs = geodesics.constant_hamiltonian(na, nb)
        opening = geodesics.geodesic_angle(na, nb)
        schedule = evolution.Schedule(((coeffs, opening),))
        trajectory = evolution.integrate_state(pair[0], schedule, 1e-3)
        final = trajectory.psi[-1]
        worst_end = max(
            worst_end,
            np.abs(np.outer(final, final.conj()) - states.density_of(pair[1])).max(),
        )
        matrix = coeffs.matrix()
        energies = np.einsum(
            "ki,ij,kj->k", trajectory.psi.conj(), matrix, trajectory.psi
        ).real
        worst_energy = max(worst_energy, np.abs(energies).max())
    return [
        _upper("evolution.geodesic_generation", worst_end, 1e-8, trials),
        _upper("evolution.energy_expectation", worst_energy, 1e-9, trials),
    ]


def check_convergence_order(seed, trials):
    target = np.array([0.0, np.sin(1.0), np.cos(1.0)], dtype=complex)
    coeffs = geodesics.constant_hamiltonian(
        states.POLES[2], states.n_vector_of(target)
    )
    errors = []
    for step in (0.02, 0.01):
        schedule = evolution.Schedule(((coeffs, 1.0),))
        trajectory = evolution.integrate_state(
            np.array([0.0, 0.0, 1.0], dtype=complex), schedule, step
        )
        final = trajectory.psi[-1]
        errors.append(
            np.abs(np.outer(final, final.conj()) - np.outer(target, target.conj())).max()
        )
    ratio = errors[0] / errors[1]
    return [
        CheckResult(
            "evolution.convergence_order", float(ratio), (12.0, 20.0),
            bool(12.0 <= ratio <= 20.0),
        )
    ]


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


# Every check with an upper or lower bound, which --tol may override.  The
# names are fixed per sweep, so overrides are validated before any runs.
BOUNDED_CHECKS = frozenset(
    (
        "algebra.tables",
        "algebra.trace_orthonormality",
        "algebra.bilinearity",
        "algebra.adjoint_homomorphism",
        "algebra.product_covariance",
        "states.membership",
        "states.opening_angle_excess",
        "states.antipode_excluded",
        "states.poles",
        "states.equivariance",
        "states.chart_roundtrip",
        "geodesics.endpoint_roundtrip",
        "geodesics.sample_normalization",
        "geodesics.planarity_failures",
        "geodesics.equivariance",
        "geodesics.length",
        "geodesics.zero_phase",
        "phases.closed_form_agreement",
        "phases.line_integral_agreement",
        "phases.rephasing_invariance",
        "phases.su3_invariance",
        "phases.evolution_agreement",
        "evolution.cyclic_closure",
        "evolution.vanishing_dynamical_phase",
        "phases.chi2_oddness",
        "phases.two_level_cosine",
        "phases.two_level_solid_angle",
        "evolution.two_pictures",
        "evolution.adjoint_norm_drift",
        "evolution.geodesic_generation",
        "evolution.energy_expectation",
    )
)


def run_all(seed=0, trials=100, overrides=None):
    """Run every sweep; returns a report dict with per-check records.

    Raises KeyError, before any sweep runs, if overrides names a check
    that is unknown or has an interval bound.
    """
    overrides = dict(overrides or {})
    rejected = set(overrides) - BOUNDED_CHECKS
    if rejected:
        raise KeyError(f"no upper or lower bound named {sorted(rejected)}")
    results = []
    for check in ALL_CHECKS:
        results.extend(check(seed, trials))
    adjusted = []
    for r in results:
        if r.name in overrides:
            tol = float(overrides[r.name])
            passed = r.value >= tol if r.lower_bound else r.value <= tol
            r = CheckResult(r.name, r.value, tol, passed, r.trials, r.lower_bound)
        adjusted.append(r)
    return {
        "seed": seed,
        "trials": trials,
        "results": adjusted,
        "all_passed": all(r.passed for r in adjusted),
    }
