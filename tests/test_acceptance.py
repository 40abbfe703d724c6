"""Acceptance suite: eleven numbered criteria, one report line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines; each line states the measured worst case next to its
bound.  Ensembles are seeded per trial so every run measures the same
numbers.  Where a `checks` sweep draws the same ensemble, the criterion
calls it and judges its values against the criterion's own bounds.
"""

import numpy as np

from triphase import checks, evolution, geodesics, phases, states, su3

SQRT3 = np.sqrt(3.0)


def report(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {label}: {detail}")
    assert ok, f"criterion {num} {label}: {detail}"


def rng_for(seed, trial):
    return np.random.default_rng([seed, trial])


def swept(check, seed, trials):
    """Measured values of one checks sweep, by check name."""
    return {r.name: r.value for r in check(seed, trials)}


def test_criterion_01_algebra_tables():
    worst = swept(checks.check_algebra_tables, 0, 1)["algebra.tables"]
    report(1, "algebra tables", worst < 1e-14, f"max entrywise error {worst:.2e} < 1e-14")


def test_criterion_02_locus_membership():
    psis = states.random_states(200, 10_000)
    ns = states.n_vectors_of(psis)
    norm_defect = np.abs(np.einsum("kr,kr->k", ns, ns) - 1.0).max()
    star_defect = np.abs(su3.star(ns, ns) - ns).max()
    poles_exact = np.array_equal(states.n_vectors_of(np.eye(3)), states.POLES)
    worst = max(norm_defect, star_defect)
    report(
        2,
        "locus membership",
        worst < 1e-10 and poles_exact,
        f"10^4 states, max defect {worst:.2e} < 1e-10, poles exact: {poles_exact}",
    )


def test_criterion_03_opening_angle():
    first = states.n_vectors_of(states.random_states(300, 10_000))
    second = states.n_vectors_of(states.random_states(301, 10_000))
    angles = np.arccos(np.clip(np.einsum("kr,kr->k", first, second), -1.0, 1.0))
    bound = 2.0 * np.pi / 3.0 + 1e-12
    ok = angles.min() >= 0.0 and angles.max() <= bound
    report(
        3,
        "opening angle",
        ok,
        f"10^4 pairs, range [{angles.min():.6f}, {angles.max():.6f}] within [0, 2pi/3 + 1e-12]",
    )


def test_criterion_04_adjoint_homomorphism_covariance():
    values = swept(checks.check_adjoint, 400, 1000)
    homo = values["algebra.adjoint_homomorphism"]
    cov = values["algebra.product_covariance"]
    report(
        4,
        "adjoint homomorphism and covariance",
        homo < 1e-11 and cov < 1e-11,
        f"10^3 draws, homomorphism {homo:.2e}, covariance {cov:.2e} < 1e-11",
    )


def test_criterion_05_geodesic_zero_phase():
    worst = 0.0
    for k in range(100):
        rng = rng_for(500, k)
        pair = checks._nonorthogonal_states(rng, 2)
        curve = geodesics.geodesic_between(
            states.density_of(pair[0]), states.density_of(pair[1])
        )
        grid = np.linspace(0.0, curve.length, 801)
        worst = max(worst, abs(phases.geometric_phase_of_curve(grid, curve(grid)).value))
    report(
        5,
        "geodesic zero phase",
        worst < 1e-7,
        f"100 geodesics, max |phi_g| {worst:.2e} < 1e-7",
    )


def test_criterion_06_planarity_not_great_circle():
    failures = swept(checks.check_geodesics, 600, 100)["geodesics.planarity_failures"]
    grid = np.linspace(0.0, 2.0 * np.pi, 401)
    lifts = np.stack([np.zeros_like(grid), np.sin(grid), np.cos(grid)], axis=1)
    ns = states.n_vectors_of(lifts.astype(complex))
    plane_residual = np.abs(0.5 * (SQRT3 * ns[:, 2] + ns[:, 7]) + 0.5).max()
    ok = failures == 0 and plane_residual < 1e-12
    report(
        6,
        "planarity",
        ok,
        f"rank failure in any of 100 trials: {failures:.0f}, "
        f"canonical plane residual {plane_residual:.2e} < 1e-12",
    )


def test_criterion_07_oracle_agreement():
    worst_trio = worst_line = worst_evo = 0.0
    for k in range(500):
        rng = rng_for(700, k)
        psis = checks._nonorthogonal_states(rng)
        rhos = [states.density_of(p) for p in psis]
        ns = [states.n_vector_of(p) for p in psis]
        closed = phases.pancharatnam_phase(phases.canonicalize_triangle(*rhos)).value
        barg = phases.bargmann_phase(list(psis)).value
        nvec = phases.pancharatnam_phase_from_n(*ns).value
        worst_trio = max(
            worst_trio,
            phases.phase_distance(closed, barg),
            phases.phase_distance(closed, nvec),
            phases.phase_distance(barg, nvec),
        )
        line = phases.triangle_line_integral_phase(*rhos).value
        worst_line = max(
            worst_line,
            max(phases.phase_distance(line, v) for v in (closed, barg, nvec)),
        )
        _, evo, _ = evolution.evolve_triangle(*rhos, step=5e-3)
        worst_evo = max(
            worst_evo,
            max(phases.phase_distance(evo.value, v) for v in (closed, barg, nvec)),
        )
    spot_params = phases.TriangleParams(np.pi / 4, np.pi / 4, np.pi / 2, np.pi / 2)
    spot_lifts = phases.triangle_states(spot_params)
    spot_rhos = [states.density_of(p) for p in spot_lifts]
    spot = [
        phases.pancharatnam_phase(spot_params).value,
        phases.bargmann_phase(list(spot_lifts)).value,
        phases.pancharatnam_phase_from_n(
            *(states.n_vector_of(p) for p in spot_lifts)
        ).value,
        phases.triangle_line_integral_phase(*spot_rhos).value,
        evolution.evolve_triangle(*spot_rhos, step=1e-3)[1].value,
    ]
    spot_err = max(phases.phase_distance(v, -np.pi / 4) for v in spot)
    ok = (
        worst_trio < 1e-10
        and worst_line < 1e-11
        and worst_evo < 1e-6
        and spot_err < 1e-6
    )
    report(
        7,
        "oracle agreement",
        ok,
        f"500 triangles: trio {worst_trio:.2e} < 1e-10, line {worst_line:.2e} < 1e-11, "
        f"evolution {worst_evo:.2e} < 1e-6; spot -pi/4 within {spot_err:.2e}",
    )


def test_criterion_08_two_level_reduction():
    values = swept(checks.check_two_level, 800, 200)
    worst_cos = values["phases.two_level_cosine"]
    worst_half = values["phases.two_level_solid_angle"]
    octant = phases.solid_angle_reduction(
        phases.TriangleParams(np.pi / 4, np.pi / 4, np.pi / 2, np.pi / 2)
    )
    octant_exact = octant.solid_angle == np.pi / 2
    ok = worst_cos < 1e-10 and worst_half < 1e-9 and octant_exact
    report(
        8,
        "two-level reduction",
        ok,
        f"200 equatorial triangles: cosine identity {worst_cos:.2e} < 1e-10, "
        f"half solid angle {worst_half:.2e} < 1e-9, octant exact: {octant_exact}",
    )


def test_criterion_09_geodesic_generation():
    values = swept(checks.check_geodesic_generation, 900, 100)
    worst_end = values["evolution.geodesic_generation"]
    worst_energy = values["evolution.energy_expectation"]
    ok = worst_end < 1e-8 and worst_energy < 1e-9
    report(
        9,
        "constant-Hamiltonian geodesic generation",
        ok,
        f"100 pairs at step 1e-3: endpoint {worst_end:.2e} < 1e-8, "
        f"max |Tr(rho H)| {worst_energy:.2e} < 1e-9",
    )


def test_criterion_10_rk4_order():
    ratio = swept(checks.check_convergence_order, 1000, 1)["evolution.convergence_order"]
    report(
        10,
        "RK4 order",
        12.0 <= ratio <= 20.0,
        f"halving error ratio {ratio:.3f} in [12, 20]",
    )


def test_criterion_11_canonicalization_invariance():
    worst = 0.0
    for k in range(200):
        rng = rng_for(1100, k)
        psis = checks._nonorthogonal_states(rng)
        base = phases.canonicalize_triangle(*(states.density_of(p) for p in psis))
        unitary = su3.random_special_unitary(rng)
        moved = [
            states.density_of(unitary @ (p * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))))
            for p in psis
        ]
        again = phases.canonicalize_triangle(*moved)
        worst = max(
            worst,
            abs(again.xi - base.xi),
            abs(again.eta - base.eta),
            abs(again.zeta - base.zeta),
            phases.phase_distance(again.chi2, base.chi2),
        )
    report(
        11,
        "canonicalization invariance",
        worst < 1e-9,
        f"200 transported triangles, max parameter drift {worst:.2e} < 1e-9",
    )
