import numpy as np
import pytest

from triphase import checks, geodesics, phases, states, su3
from triphase.errors import (
    CoincidentEndpoints,
    OrthogonalEndpoints,
    TooFewSamples,
)

SQRT3 = np.sqrt(3.0)


def canonical_pair(alpha):
    first = np.array([0.0, 0.0, 1.0], dtype=complex)
    second = np.array([0.0, np.sin(alpha), np.cos(alpha)], dtype=complex)
    return first, second


def random_nonorthogonal_pair(rng):
    while True:
        pair = states.random_states(rng, 2)
        if abs(np.vdot(pair[0], pair[1])) ** 2 > 1e-3:
            return pair


def test_in_phase_lift():
    rng = np.random.default_rng(0)
    for _ in range(30):
        pair = random_nonorthogonal_pair(rng)
        lift1, lift2 = geodesics.in_phase_lift(
            states.density_of(pair[0]), states.density_of(pair[1])
        )
        ip = np.vdot(lift1, lift2)
        assert abs(ip.imag) < 1e-13
        assert ip.real > 0.0


def test_in_phase_lift_orthogonal():
    e1 = states.density_of(np.array([1.0, 0.0, 0.0], dtype=complex))
    e2 = states.density_of(np.array([0.0, 1.0, 0.0], dtype=complex))
    with pytest.raises(OrthogonalEndpoints):
        geodesics.in_phase_lift(e1, e2)
    e3 = states.density_of(np.array([0.0, 0.0, 1.0], dtype=complex))
    with pytest.raises(OrthogonalEndpoints):
        geodesics.polygon_sides([e1, e2, e3])


def test_canonical_geodesic_frozen():
    first, second = canonical_pair(np.pi / 3)
    curve = geodesics.geodesic_between(
        states.density_of(first), states.density_of(second)
    )
    assert curve.length == pytest.approx(np.pi / 3, abs=1e-14)
    end_n = states.n_vectors_of(curve(np.array([curve.length])))[0]
    frozen_end = np.array([0, 0, -3 * SQRT3 / 8, 0, 0, 0.75, 0, 0.125])
    assert np.abs(end_n - frozen_end).max() < 1e-14
    mid_n = states.n_vectors_of(curve(np.array([np.pi / 4])))[0]
    frozen_mid = np.array([0, 0, -SQRT3 / 4, 0, 0, SQRT3 / 2, 0, -0.25])
    assert np.abs(mid_n - frozen_mid).max() < 1e-14


def test_geodesic_hits_endpoint():
    rng = np.random.default_rng(1)
    for _ in range(30):
        pair = random_nonorthogonal_pair(rng)
        rho2 = states.density_of(pair[1])
        curve = geodesics.geodesic_between(states.density_of(pair[0]), rho2)
        end = curve.endpoint
        assert np.abs(np.outer(end, end.conj()) - rho2).max() < 1e-12


def test_geodesic_length_is_arccos_overlap():
    rng = np.random.default_rng(2)
    for _ in range(30):
        pair = random_nonorthogonal_pair(rng)
        curve = geodesics.geodesic_between(
            states.density_of(pair[0]), states.density_of(pair[1])
        )
        expected = np.arccos(abs(np.vdot(pair[0], pair[1])))
        assert abs(curve.length - expected) < 1e-12


def test_coincident_endpoints_degenerate():
    psi = states.random_state(3)
    curve = geodesics.geodesic_between(states.density_of(psi), states.density_of(psi))
    assert curve.length == 0.0
    lift = curve(np.array([0.0]))[0]
    assert abs(abs(np.vdot(lift, psi)) ** 2 - 1.0) < 1e-12


def test_sides_near_coincidence_keep_their_tolerances():
    # opening angles from just above the coincidence cutoff, 1e-6, to near pi/2,
    # every lift in a random gauge; the far vertex is at angle 0.7 from the first
    rng = np.random.default_rng(31)
    for angle in np.geomspace(1.5e-6, 1.5, 300):
        start, *others = states.random_states(rng, 3)
        psis = [start]
        for a, u in zip((angle, 0.7), others):
            u = u - start * np.vdot(start, u)
            psis.append(np.cos(a) * start + np.sin(a) * u / np.linalg.norm(u))
        rhos = [states.density_of(p * np.exp(2j * np.pi * rng.random())) for p in psis]
        for curves in ([geodesics.geodesic_between(*rhos[:2])], geodesics.polygon_sides(rhos)):
            assert abs(curves[0].length - angle) < 1e-13
            for curve, rho in zip(curves, rhos[1:] + rhos[:1]):
                assert abs(np.vdot(curve.tangent, curve.tangent).real - 1.0) <= states.NORM_TOL
                assert abs(np.vdot(curve.psi0, curve.tangent)) <= geodesics.TANGENT_TOL
                end = curve.endpoint
                assert np.abs(np.outer(end, end.conj()) - rho).max() <= 1e-12


def test_lift_stays_unit_and_horizontal():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pair = random_nonorthogonal_pair(rng)
        curve = geodesics.geodesic_between(
            states.density_of(pair[0]), states.density_of(pair[1])
        )
        grid = np.linspace(0.0, curve.length, 101)
        lifts = curve(grid)
        norms = np.einsum("ki,ki->k", lifts.conj(), lifts).real
        assert np.abs(norms - 1.0).max() < 1e-13
        # (psi, dpsi/ds) = 0 exactly for the great-circle lift
        derivs = -np.multiply.outer(np.sin(grid), curve.psi0) + np.multiply.outer(
            np.cos(grid), curve.tangent
        )
        ips = np.einsum("ki,ki->k", lifts.conj(), derivs)
        assert np.abs(ips).max() < 1e-13


def test_geodesic_zero_phases():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pair = random_nonorthogonal_pair(rng)
        curve = geodesics.geodesic_between(
            states.density_of(pair[0]), states.density_of(pair[1])
        )
        grid = np.linspace(0.0, curve.length, 801)
        lifts = curve(grid)
        assert abs(phases.dynamical_phase(grid, lifts).value) < 1e-9
        assert abs(phases.geometric_phase_of_curve(grid, lifts).value) < 1e-7


def test_curve_length_matches():
    rng = np.random.default_rng(6)
    for _ in range(10):
        pair = random_nonorthogonal_pair(rng)
        curve = geodesics.geodesic_between(
            states.density_of(pair[0]), states.density_of(pair[1])
        )
        grid = np.linspace(0.0, curve.length, 2001)
        measured = geodesics.curve_length(grid, curve(grid))
        assert abs(measured - curve.length) < 1e-6


def test_sampled_functionals_invariant_under_rephasing():
    # psi -> e^{i gamma(s)} psi keeps the length and the geometric phase, and adds
    # gamma(L) - gamma(0) to the dynamical phase; an in-phase lift would hide a
    # wrong sign on |(psi, dpsi)|^2, which vanishes there
    rng = np.random.default_rng(8)
    for _ in range(50):
        pair = random_nonorthogonal_pair(rng)
        curve = geodesics.geodesic_between(
            states.density_of(pair[0]), states.density_of(pair[1])
        )
        a, b = rng.uniform(-1.0, 1.0, 2)
        grid = np.linspace(0.0, curve.length, 2001)
        gamma = a * grid + b * np.sin(grid)
        lifts = np.exp(1j * gamma)[:, None] * curve(grid)
        assert abs(geodesics.curve_length(grid, lifts) - curve.length) < 1e-5
        assert abs(phases.geometric_phase_of_curve(grid, lifts).value) < 1e-5
        gained = gamma[-1] - gamma[0]
        assert abs(phases.dynamical_phase(grid, lifts).value - gained) < 1e-5


def test_planarity_affine_two_raw_three():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pair = random_nonorthogonal_pair(rng)
        curve = geodesics.geodesic_between(
            states.density_of(pair[0]), states.density_of(pair[1])
        )
        ns = states.n_vectors_of(curve(np.linspace(0.0, curve.length, 50)))
        planar, affine_rank = geodesics.planarity_test(ns)
        assert planar
        assert affine_rank == 2
        assert geodesics.span_rank(ns) == 3


def test_canonical_plane_equation():
    # the curve (0, sin s, cos s) satisfies (sqrt3 n3 + n8) / 2 = -1/2
    grid = np.linspace(0.0, 2.0 * np.pi, 400)
    lifts = np.stack(
        [np.zeros_like(grid), np.sin(grid), np.cos(grid)], axis=1
    ).astype(complex)
    ns = states.n_vectors_of(lifts)
    residual = 0.5 * (SQRT3 * ns[:, 2] + ns[:, 7]) + 0.5
    assert np.abs(residual).max() < 1e-12


def test_planarity_needs_samples():
    with pytest.raises(TooFewSamples):
        geodesics.planarity_test(np.zeros((3, 8)))


def test_equivariance_of_geodesics():
    rng = np.random.default_rng(8)
    for _ in range(10):
        pair = random_nonorthogonal_pair(rng)
        unitary = su3.random_special_unitary(rng)
        curve = geodesics.geodesic_between(
            states.density_of(pair[0]), states.density_of(pair[1])
        )
        moved = geodesics.geodesic_between(
            states.density_of(unitary @ pair[0]), states.density_of(unitary @ pair[1])
        )
        assert abs(curve.length - moved.length) < 1e-12
        grid = np.linspace(0.0, curve.length, 33)
        image = states.n_vectors_of(curve(grid)) @ su3.adjoint_of(unitary).T
        assert np.abs(states.n_vectors_of(moved(grid)) - image).max() < 1e-11


def test_polygon_sides_continuous():
    rng = np.random.default_rng(9)
    while True:
        psis = states.random_states(rng, 3)
        ips = [abs(np.vdot(psis[i], psis[(i + 1) % 3])) ** 2 for i in range(3)]
        if min(ips) > 1e-3:
            break
    rhos = [states.density_of(p) for p in psis]
    sides = geodesics.polygon_sides(rhos)
    assert len(sides) == 3
    # each side carries its own parameter; the lifts chain continuously
    for side, following in zip(sides, sides[1:]):
        assert np.abs(following(0.0) - side.endpoint).max() < 1e-12
    for k, side in enumerate(sides):
        # the polygon visits every vertex density, and its rays close
        start = side(0.0)
        assert np.abs(np.outer(start, start.conj()) - rhos[k]).max() < 1e-10
        end = side.endpoint
        assert np.abs(np.outer(end, end.conj()) - rhos[(k + 1) % 3]).max() < 1e-10
        # no jump inside a side either: fine samples move by about their step
        lift = side(np.linspace(0.0, side.length, 300))
        step = side.length / 299
        assert np.abs(np.diff(lift, axis=0)).max() <= step * (1 + 1e-9)


def test_constant_hamiltonian_canonical():
    first, second = canonical_pair(np.pi / 3)
    n1, n2 = states.n_vector_of(first), states.n_vector_of(second)
    coeffs = geodesics.constant_hamiltonian(n1, n2)
    frozen = np.zeros(8)
    frozen[6] = -1.0
    assert np.abs(coeffs.h - frozen).max() < 1e-14
    assert coeffs.h0 == 0.0
    assert abs(geodesics.geodesic_angle(n1, n2) - np.pi / 3) < 1e-14
    # matrix() realizes h . lambda
    assert np.abs(coeffs.matrix() + su3.LAMBDA[6]).max() < 1e-14


def test_constant_hamiltonian_unit_norm():
    rng = np.random.default_rng(10)
    for _ in range(30):
        pair = random_nonorthogonal_pair(rng)
        coeffs = geodesics.constant_hamiltonian(
            states.n_vector_of(pair[0]), states.n_vector_of(pair[1])
        )
        assert abs(np.linalg.norm(coeffs.h) - 1.0) < 1e-10


def test_constant_hamiltonian_guards():
    n1 = states.POLES[0]
    with pytest.raises(OrthogonalEndpoints):
        geodesics.constant_hamiltonian(n1, states.POLES[1])
    with pytest.raises(CoincidentEndpoints):
        geodesics.constant_hamiltonian(n1, n1)


def test_hamiltonian_family_frozen():
    coeffs = geodesics.geodesic_hamiltonian_family(0.0, 1.0, 2.0, 3.0, 4.0)
    frozen = np.array([1.0, 2.0, 3.0 * SQRT3 + 4.0, 0.0, 0.0, 0.0, -1.0, 3.0])
    assert np.abs(coeffs.h - frozen).max() < 1e-14
    assert abs(coeffs.h0 - 2.0 * SQRT3) < 1e-14


def _sides_reference(rhos):
    # the per-side loop, one vdot, norm and tangent at a time, written out
    lifts = list(states.lift_of_density(rhos))
    sides, current = [], lifts[0]
    for nxt in lifts[1:] + [lifts[0]]:
        ahead = nxt * np.exp(-1j * np.angle(np.vdot(current, nxt)))
        c = np.vdot(current, ahead).real
        sin2 = 1.0 - c * c
        if sin2 >= geodesics.NEAR_TOL:
            sides.append((current, (ahead - c * current) / np.sqrt(sin2), float(np.arccos(c))))
        else:
            # a coincident side completes from the basis vector least aligned with its start
            coincident = sin2 < geodesics.COINCIDENT_TOL
            if coincident:
                residual = np.zeros(3, dtype=complex)
                residual[np.argmin(np.abs(current))] = 1.0
            else:
                residual = ahead - c * current
            residual = residual - current * np.vdot(current, residual)
            norm = np.linalg.norm(residual)
            length = 0.0 if coincident else float(np.arctan2(norm, c))
            sides.append((current, residual / norm, length))
        current = ahead
    return sides


def test_stacked_sides_match_the_per_side_loop_bit_for_bit():
    rng = np.random.default_rng(23)
    polygons = [[states.density_of(p) for p in checks._nonorthogonal_states(rng)]
                for _ in range(1000)]
    polygons.append([polygons[0][0], polygons[0][0], polygons[0][1]])  # a coincident side
    for rhos in polygons:
        want = _sides_reference(rhos)
        # polygon_sides stacks three sides, geodesic_between one
        for curves in (geodesics.polygon_sides(rhos), [geodesics.geodesic_between(*rhos[:2])]):
            for curve, (psi0, tangent, length) in zip(curves, want):
                assert np.array_equal(curve.psi0.view(np.uint64), psi0.view(np.uint64))
                assert np.array_equal(curve.tangent.view(np.uint64), tangent.view(np.uint64))
                assert np.float64(curve.length).view(np.uint64) == np.float64(length).view(np.uint64)
    assert want[0][2] == 0.0
