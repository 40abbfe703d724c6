import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triphase import checks, evolution, geodesics, phases, states, su3
from triphase.errors import InvalidStep, OutOfRange

E3 = np.array([0.0, 0.0, 1.0], dtype=complex)


def canonical_schedule(alpha):
    target = np.array([0.0, np.sin(alpha), np.cos(alpha)], dtype=complex)
    coeffs = geodesics.constant_hamiltonian(
        states.n_vector_of(E3), states.n_vector_of(target)
    )
    return target, evolution.Schedule(((coeffs, alpha),))


def random_triangle(rng):
    while True:
        psis = states.random_states(rng, 3)
        ips = [abs(np.vdot(psis[i], psis[(i + 1) % 3])) ** 2 for i in range(3)]
        if min(ips) > 1e-3:
            return psis


def test_schedule_validation():
    coeffs = geodesics.HamiltonianCoeffs(0.0, np.eye(8)[2])
    with pytest.raises(OutOfRange):
        evolution.Schedule(())
    with pytest.raises(OutOfRange):
        evolution.Schedule(((coeffs, 0.0),))
    with pytest.raises(OutOfRange):
        evolution.Schedule(((coeffs, -1.0),))
    schedule = evolution.Schedule(((coeffs, 0.25), (coeffs, 0.5)))
    assert schedule.total_duration == 0.75


def test_step_validation():
    _, schedule = canonical_schedule(0.5)
    for bad in (0.0, -1e-3, np.inf, np.nan):
        with pytest.raises(InvalidStep):
            evolution.integrate_state(E3, schedule, bad)


def test_step_budget(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the walk started before the budget was checked")

    monkeypatch.setattr(evolution, "_walk", never)
    _, schedule = canonical_schedule(0.5)
    # a subnormal step would overflow an unclamped step count
    for tiny in (0.5 / (evolution.MAX_STEPS + 1), 1e-12, 5e-324):
        with pytest.raises(InvalidStep, match="budget"):
            evolution.integrate_state(E3, schedule, tiny)
        with pytest.raises(InvalidStep, match="budget"):
            evolution.integrate_nvector(states.n_vector_of(E3), schedule, tiny)


def test_step_budget_allows_its_limit():
    _, schedule = canonical_schedule(0.5)
    counts = evolution._step_counts(schedule, 0.5 / evolution.MAX_STEPS)
    assert counts == [evolution.MAX_STEPS]


def test_lambda3_phases():
    # H = l3 on the first basis state: pure dynamical phase -t, no motion
    coeffs = geodesics.HamiltonianCoeffs(0.0, np.eye(8)[2])
    schedule = evolution.Schedule(((coeffs, 0.7),))
    psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    trajectory = evolution.integrate_state(psi0, schedule, 1e-3)
    assert abs(trajectory.phi_p[-1] + 0.7) < 1e-9
    assert abs(trajectory.phi_dyn[-1] + 0.7) < 1e-9
    assert np.abs(trajectory.n - states.POLES[0]).max() < 1e-10
    geometric = phases.principal_branch(trajectory.phi_p[-1] - trajectory.phi_dyn[-1])
    assert abs(geometric) < 1e-10


def test_trajectory_record():
    _, schedule = canonical_schedule(0.5)
    trajectory = evolution.integrate_state(E3, schedule, 1e-2)
    assert trajectory.s[0] == 0.0
    assert abs(trajectory.s[-1] - 0.5) < 1e-12
    assert np.all(np.diff(trajectory.s) > 0)
    assert trajectory.psi.shape == (len(trajectory.s), 3)
    assert trajectory.n.shape == (len(trajectory.s), 8)
    norms = np.einsum("ki,ki->k", trajectory.psi.conj(), trajectory.psi).real
    assert np.abs(norms - 1.0).max() < 1e-12


def test_constant_hamiltonian_tracks_geodesic():
    target, schedule = canonical_schedule(1.0)
    trajectory = evolution.integrate_state(E3, schedule, 1e-3)
    final = trajectory.psi[-1]
    assert np.abs(np.outer(final, final.conj()) - states.density_of(target)).max() < 1e-10
    curve = geodesics.geodesic_between(states.density_of(E3), states.density_of(target))
    expected = states.n_vectors_of(curve(trajectory.s))
    assert np.abs(trajectory.n - expected).max() < 1e-9


def test_energy_expectation_conserved_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        while True:
            pair = states.random_states(rng, 2)
            if abs(np.vdot(pair[0], pair[1])) ** 2 > 1e-3:
                break
        na, nb = states.n_vectors_of(pair)
        coeffs = geodesics.constant_hamiltonian(na, nb)
        schedule = evolution.Schedule(((coeffs, geodesics.geodesic_angle(na, nb)),))
        trajectory = evolution.integrate_state(pair[0], schedule, 2e-3)
        energies = np.einsum(
            "ki,ij,kj->k", trajectory.psi.conj(), coeffs.matrix(), trajectory.psi
        ).real
        assert np.abs(energies).max() < 1e-10
        assert np.abs(trajectory.phi_dyn).max() < 1e-10


def test_dynamical_phase_under_constant_hamiltonians():
    # <H> is conserved under a constant H, so phi_dyn(T) = -<H> T
    rng = np.random.default_rng(8)
    for _ in range(20):
        coeffs = geodesics.HamiltonianCoeffs(rng.standard_normal(), rng.standard_normal(8))
        psi0 = states.random_state(rng)
        trajectory = evolution.integrate_state(psi0, evolution.Schedule(((coeffs, 1.0),)), 1e-3)
        energy = np.vdot(psi0, coeffs.matrix() @ psi0).real
        assert abs(trajectory.phi_dyn[-1] + energy) < 1e-10


def test_recorded_rows_are_renormalised():
    # before renormalisation these rows drift from unit norm by up to about 4e-7
    rng = np.random.default_rng(9)
    for _ in range(10):
        coeffs = geodesics.HamiltonianCoeffs(rng.standard_normal(), rng.standard_normal(8))
        schedule = evolution.Schedule(((coeffs, 2.0),))
        trajectory = evolution.integrate_state(states.random_state(rng), schedule, 0.02)
        assert np.abs(np.linalg.norm(trajectory.psi, axis=1) - 1.0).max() <= 1e-15


def test_rk4_convergence_ratio():
    target, _ = canonical_schedule(1.0)
    coeffs = geodesics.constant_hamiltonian(
        states.n_vector_of(E3), states.n_vector_of(target)
    )
    errs = []
    for step in (0.02, 0.01):
        schedule = evolution.Schedule(((coeffs, 1.0),))
        trajectory = evolution.integrate_state(E3, schedule, step)
        final = trajectory.psi[-1]
        errs.append(
            np.abs(
                np.outer(final, final.conj()) - states.density_of(target)
            ).max()
        )
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_two_pictures_agree():
    rng = np.random.default_rng(1)
    for _ in range(8):
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
        assert np.abs(by_state.s - by_vector.s).max() == 0.0
        assert np.abs(by_state.n - by_vector.n).max() < 1e-7
        assert by_vector.psi is None
        norms = np.linalg.norm(by_vector.n, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-8


def test_time_dependent_family_transports_reference():
    # any parameter choice moves the lift (0, sin s, cos s) exactly
    def hamiltonian(s):
        return geodesics.geodesic_hamiltonian_family(s, 0.8, -0.3, 0.5, 1.2)

    schedule = evolution.Schedule(((hamiltonian, 1.0),))
    psi0 = np.array([0.0, 0.0, 1.0], dtype=complex)
    trajectory = evolution.integrate_state(psi0, schedule, 1e-3)
    expected = np.stack(
        [
            np.zeros_like(trajectory.s),
            np.sin(trajectory.s),
            np.cos(trajectory.s),
        ],
        axis=1,
    ).astype(complex)
    overlaps = np.abs(np.einsum("ki,ki->k", expected.conj(), trajectory.psi)) ** 2
    assert np.abs(overlaps - 1.0).max() < 1e-10


def test_family_transports_reference_to_first_order():
    # the rows themselves, not |overlap|^2, whose error is second order in theirs
    rng = np.random.default_rng(31)
    for _ in range(20):
        a, b, c, d = rng.standard_normal(4)

        def hamiltonian(s, a=a, b=b, c=c, d=d):
            return geodesics.geodesic_hamiltonian_family(s, a, b, c, d)

        schedule = evolution.Schedule(((hamiltonian, 1.2),))
        trajectory = evolution.integrate_state(E3, schedule, 2e-3)
        s = trajectory.s
        expected = np.stack([np.zeros_like(s), np.sin(s), np.cos(s)], axis=1)
        assert np.abs(trajectory.psi - expected).max() <= 1e-10
        adjoint = evolution.integrate_nvector(states.n_vector_of(E3), schedule, 2e-3)
        assert np.abs(adjoint.n - states.n_vectors_of(expected)).max() <= 1e-9


def test_energy_shift_moves_only_the_dynamical_phase(monkeypatch):
    # H + h0 I multiplies the state by exp(-i h0 s): the geometric phase stays
    rng = np.random.default_rng(78)
    unshifted = evolution.triangle_schedule
    for k in range(20):
        psis = checks._nonorthogonal_states(np.random.default_rng([77, k]))
        rhos = [states.density_of(p) for p in psis]
        _, clean, _ = evolution.evolve_triangle(*rhos, step=5e-3)
        h0 = rng.uniform(-2.0, 2.0)

        def shifted(*rhos, h0=h0):
            segments = unshifted(*rhos).segments
            return evolution.Schedule(
                tuple((geodesics.HamiltonianCoeffs(c.h0 + h0, c.h), t) for c, t in segments)
            )

        monkeypatch.setattr(evolution, "triangle_schedule", shifted)
        trajectory, moved, _ = evolution.evolve_triangle(*rhos, step=5e-3)
        monkeypatch.undo()
        assert phases.phase_distance(moved.value, clean.value) <= 1e-7
        duration = unshifted(*rhos).total_duration
        assert abs(trajectory.phi_dyn[-1] + h0 * duration) <= 1e-7


def test_triangle_schedule_durations():
    lifts = phases.triangle_states(
        phases.TriangleParams(np.pi / 4, np.pi / 4, np.pi / 2, np.pi / 2)
    )
    rhos = [states.density_of(p) for p in lifts]
    schedule = evolution.triangle_schedule(*rhos)
    durations = [seg[1] for seg in schedule.segments]
    assert np.abs(np.array(durations) - np.pi / 4).max() < 1e-12
    assert abs(schedule.total_duration - 3 * np.pi / 4) < 1e-12


def test_evolve_canonical_triangle():
    lifts = phases.triangle_states(
        phases.TriangleParams(np.pi / 4, np.pi / 4, np.pi / 2, np.pi / 2)
    )
    rhos = [states.density_of(p) for p in lifts]
    trajectory, geometric, closure = evolution.evolve_triangle(*rhos, step=1e-3)
    assert geometric.method == "evolution"
    assert phases.phase_distance(geometric.value, -np.pi / 4) < 1e-7
    assert closure < 1e-9
    assert np.abs(trajectory.phi_dyn).max() < 1e-9


def test_evolve_triangle_matches_oracles():
    rng = np.random.default_rng(2)
    for _ in range(5):
        psis = random_triangle(rng)
        rhos = [states.density_of(p) for p in psis]
        closed = phases.pancharatnam_phase(phases.canonicalize_triangle(*rhos)).value
        _, geometric, closure = evolution.evolve_triangle(*rhos, step=5e-3)
        assert phases.phase_distance(geometric.value, closed) < 1e-6
        assert closure < 1e-7


def test_degenerate_triangle_zero_phase():
    # collinear vertices on one geodesic enclose no area
    lifts = [
        np.array([0.0, 0.0, 1.0], dtype=complex),
        np.array([0.0, np.sin(0.5), np.cos(0.5)], dtype=complex),
        np.array([0.0, np.sin(1.0), np.cos(1.0)], dtype=complex),
    ]
    rhos = [states.density_of(p) for p in lifts]
    _, geometric, closure = evolution.evolve_triangle(*rhos, step=1e-3)
    assert abs(geometric.value) < 1e-8
    assert closure < 1e-9


def stage_reference(x, schedule, step, state_picture):
    """Per-step classical RK4 in stage form, renormalizing and taking one
    dynamical-phase trapezoid per step in the state picture."""

    def operator(coeffs):
        if state_picture:
            return coeffs.matrix()
        return 2.0 * np.einsum("rst,s->rt", su3.F, coeffs.h)

    def rate(matrix, y):
        return -1j * (matrix @ y) if state_picture else matrix @ y

    s_values, xs, phi_dyn = [0.0], [x], [0.0]
    s_global = 0.0
    for hamiltonian, duration in schedule.segments:
        varying = callable(hamiltonian)
        start = mid = end = operator(hamiltonian(0.0) if varying else hamiltonian)
        n_steps = max(1, round(duration / step))
        h = duration / n_steps
        local = 0.0
        energy = np.vdot(x, start @ x).real
        for _ in range(n_steps):
            if varying:
                mid = operator(hamiltonian(local + 0.5 * h))
                end = operator(hamiltonian(local + h))
            k1 = rate(start, x)
            k2 = rate(mid, x + 0.5 * h * k1)
            k3 = rate(mid, x + 0.5 * h * k2)
            k4 = rate(end, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if state_picture:
                x = x / np.linalg.norm(x)
                next_energy = np.vdot(x, end @ x).real
                phi_dyn.append(phi_dyn[-1] - 0.5 * h * (energy + next_energy))
                energy = next_energy
            start = end
            local += h
            s_values.append(s_global + local)
            xs.append(x)
        s_global += duration
    return np.array(s_values), np.array(xs), np.array(phi_dyn)


def assert_matches_stage_reference(schedule, step, psi0):
    by_state = evolution.integrate_state(psi0, schedule, step)
    s, psis, phi_dyn = stage_reference(psi0, schedule, step, True)
    assert np.array_equal(by_state.s, s)
    assert np.abs(by_state.psi - psis).max() < 1e-12
    assert np.abs(by_state.n - states.n_vectors_of(psis)).max() < 1e-12
    assert np.abs(by_state.phi_dyn - phi_dyn).max() < 1e-12
    n0 = states.n_vector_of(psi0)
    by_vector = evolution.integrate_nvector(n0, schedule, step)
    s, ns, _ = stage_reference(n0, schedule, step, False)
    assert np.array_equal(by_vector.s, s)
    assert np.abs(by_vector.n - ns).max() < 1e-12


def test_step_matrix_matches_stage_form():
    rng = np.random.default_rng(4)
    for step in (1e-3, 7e-3):
        for _ in range(3):
            segments = tuple(
                (
                    geodesics.HamiltonianCoeffs(
                        float(rng.standard_normal()), rng.standard_normal(8) * 0.5
                    ),
                    float(rng.uniform(0.2, 1.5)),
                )
                for _ in range(3)
            )
            schedule = evolution.Schedule(segments)
            assert_matches_stage_reference(schedule, step, states.random_state(rng))


def test_mixed_schedule_matches_stage_form():
    def family(s):
        return geodesics.geodesic_hamiltonian_family(s, 0.8, -0.3, 0.5, 1.2)

    constant = geodesics.HamiltonianCoeffs(0.3, np.linspace(-1.0, 1.0, 8) * 0.4)
    schedule = evolution.Schedule(((family, 0.7), (constant, 0.45), (family, 0.3)))
    assert_matches_stage_reference(schedule, 1e-3, states.random_state(5))


def test_state_picture_matches_extended_precision():
    # the same RK4 map stepped in long double leaves the walk's own rounding
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double is no wider than double on this platform")
    rng = np.random.default_rng(11)

    def family(s):
        return geodesics.geodesic_hamiltonian_family(s, 0.4, -0.9, 0.6, -0.2)

    runs = []
    for _ in range(2):
        psis = random_triangle(rng)
        rhos = [states.density_of(p) for p in psis]
        runs.append((evolution.triangle_schedule(*rhos), 5e-3, psis[0]))
    runs.append((evolution.Schedule(((family, 0.9),)), 1e-3, states.random_state(rng)))
    for schedule, step, psi0 in runs:
        trajectory = evolution.integrate_state(psi0, schedule, step)
        _, reference, _ = stage_reference(
            psi0.astype(np.clongdouble), schedule, step, True
        )
        assert np.abs(trajectory.psi - reference).max() < 2e-15


def test_norm_drift_grows_with_step():
    def family(s):
        return geodesics.geodesic_hamiltonian_family(s, 0.8, -0.3, 0.5, 1.2)

    constant = geodesics.HamiltonianCoeffs(0.3, np.linspace(-1.0, 1.0, 8) * 0.4)
    schedule = evolution.Schedule(((family, 0.7), (constant, 0.45)))
    psi0 = states.random_state(12)
    fine, coarse = (
        evolution.integrate_state(psi0, schedule, step).norm_drift for step in (1e-3, 5e-2)
    )
    assert 0.0 < fine < coarse
    by_vector = evolution.integrate_nvector(states.n_vector_of(psi0), schedule, 1e-3)
    assert by_vector.norm_drift is None


def test_norm_drift_of_a_run_gone_non_finite_is_nan():
    # Python's max keeps the first 0.0 against a NaN; the drift must not read clean
    h = np.linspace(-1.0, 1.0, 8) * 0.4
    h[2] = np.nan
    constant = geodesics.HamiltonianCoeffs(0.0, h)

    def infinite(s):
        family = geodesics.geodesic_hamiltonian_family(s, 0.8, -0.3, 0.5, 1.2)
        return geodesics.HamiltonianCoeffs(family.h0, np.full_like(family.h, np.inf))

    for hamiltonian in (constant, infinite):
        schedule = evolution.Schedule(((hamiltonian, 0.1),))
        with np.errstate(invalid="ignore", over="ignore"):
            trajectory = evolution.integrate_state(E3, schedule, 1e-2)
        assert np.isnan(trajectory.norm_drift)


unit = st.floats(-1.0, 1.0)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    coefficients=st.tuples(unit, unit, unit, unit),
    duration=st.floats(0.05, 1.5),
    step=st.floats(1e-3, 2e-2),
    one_step=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(coefficients=(0.8, -0.3, 0.5, 1.2), duration=0.05, step=1e-3, one_step=True, seed=0)
@example(coefficients=(-1.0, 1.0, -1.0, 1.0), duration=1.5, step=1e-3, one_step=False, seed=1)
def test_callable_path_matches_stage_form(coefficients, duration, step, one_step, seed):
    # one_step takes the whole segment in a single step; 1.5 at 1e-3 spans two blocks
    def family(s):
        return geodesics.geodesic_hamiltonian_family(s, *coefficients)

    schedule = evolution.Schedule(((family, duration),))
    step = duration if one_step else step
    assert_matches_stage_reference(schedule, step, states.random_state(seed))


def split_family(s):
    return geodesics.geodesic_hamiltonian_family(s, -0.6, 0.9, 0.2, -0.4)


def split_schedule(family=split_family):
    # two callable segments of 350 and 250 steps at 1e-3, around a constant one
    constant = geodesics.HamiltonianCoeffs(-0.2, np.linspace(1.0, -1.0, 8) * 0.3)
    return evolution.Schedule(((family, 0.35), (constant, 0.2), (family, 0.25)))


def both_pictures(schedule):
    psi0 = states.random_state(6)
    by_state = evolution.integrate_state(psi0, schedule, 1e-3)
    return by_state, evolution.integrate_nvector(states.n_vector_of(psi0), schedule, 1e-3)


def result_arrays(by_state, by_vector):
    fields = ("s", "psi", "n", "phi_p", "phi_dyn")
    named = {f"state.{name}": getattr(by_state, name) for name in fields}
    return named | {"nvector.s": by_vector.s, "nvector.n": by_vector.n}


@pytest.mark.parametrize("block", [1, 7, 100])
def test_blocks_split_callable_segments(monkeypatch, block):
    calls = []

    def family(s):
        calls.append(np.size(s))
        return split_family(s)

    schedule = split_schedule(family)
    psi0 = states.random_state(6)
    whole_state = evolution.integrate_state(psi0, schedule, 1e-3)
    whole_vector = evolution.integrate_nvector(states.n_vector_of(psi0), schedule, 1e-3)
    # each picture calls the family once per callable segment, on 2n + 1 stages
    assert calls == [701, 501] * 2
    calls.clear()
    monkeypatch.setattr(evolution, "_BLOCK_STEPS", block)
    split_state = evolution.integrate_state(psi0, schedule, 1e-3)
    split_vector = evolution.integrate_nvector(states.n_vector_of(psi0), schedule, 1e-3)
    assert len(calls) == 2 * (-(-350 // block) - (-250 // block))
    assert all(n <= 2 * block + 1 for n in calls)
    assert_matches_stage_reference(schedule, 1e-3, psi0)
    assert np.array_equal(split_state.s, whole_state.s)
    assert np.abs(split_state.psi - whole_state.psi).max() < 1e-12
    assert np.abs(split_state.n - whole_state.n).max() < 1e-12
    assert np.abs(split_state.phi_dyn - whole_state.phi_dyn).max() < 1e-12
    assert np.array_equal(split_vector.s, whole_vector.s)
    assert np.abs(split_vector.n - whole_vector.n).max() < 1e-12


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


# sha256 of the split schedule's recorded doubles, taken before callable blocks ran in a
# reused workspace: how the block's arrays are held must not move a double
PINNED_CALLABLE = {
    "state.s": "95104f76873ba13854151ebe548236c59939fc370472fe4e0b0e57d381baf70e",
    "state.psi": "41b0a0b2f7239c03409f64204db0645c72d5775a20228e2366ee38ef08b64119",
    "state.n": "c8dcf8f21f40f452c684e1a5f7939e5d132e568ef90830217bdbf50bba688c9d",
    "state.phi_p": "0518abddbbf06aff0455b5d1b907fe8bb638f11320148e46b32687b8ee98d8cd",
    "state.phi_dyn": "4a1c4e6b9aba2673cb2cce4783bf0129d402aa4c6664a7d9afe1e2a794bea52b",
    "nvector.s": "95104f76873ba13854151ebe548236c59939fc370472fe4e0b0e57d381baf70e",
    "nvector.n": "6d44fc4dad9d95a8f3509d1a54ad9bc8f7ee17003cbf4c3acf163b53d5a14795",
}


def test_callable_path_bytes_pinned():
    for _ in range(2):  # a repeat run gives the same doubles
        arrays = result_arrays(*both_pictures(split_schedule()))
        digests = {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in arrays.items()}
        assert digests == PINNED_CALLABLE


@pytest.mark.parametrize("block", [100, 1024])
def test_nested_run_matches_unnested(monkeypatch, block):
    monkeypatch.setattr(evolution, "_BLOCK_STEPS", block)
    n0 = states.POLES[2]
    alone = evolution.integrate_nvector(n0, split_schedule(), 1e-3)
    expected = result_arrays(*both_pictures(split_schedule()))
    inner = []

    def family(s):  # integrates a callable schedule of its own on every call
        inner.append(evolution.integrate_nvector(n0, split_schedule(), 1e-3))
        return split_family(s)

    nested = result_arrays(*both_pictures(split_schedule(family)))
    assert len(inner) == 2 * (-(-350 // block) - (-250 // block))
    assert all(same_bits(nested[name], expected[name]) for name in expected)
    assert all(same_bits(run.n, alone.n) and same_bits(run.s, alone.s) for run in inner)


def test_result_survives_later_calls():
    def family_schedule(duration):
        return evolution.Schedule(((split_family, duration),))

    first = result_arrays(*both_pictures(family_schedule(0.3)))
    kept = {name: a.copy() for name, a in first.items()}
    both_pictures(family_schedule(0.9))
    both_pictures(family_schedule(0.1))
    assert all(same_bits(first[name], kept[name]) for name in kept)


# h0 and h with signed zeros, where a sum of zero terms must come out +0
SIGNED_ZEROS = (
    (0.0, np.zeros(8)),
    (-0.0, np.zeros(8)),
    (0.0, -np.zeros(8)),
    (-0.0, -np.zeros(8)),
    (1.5, np.array([-0.0, 0.7, -0.0, -1.2, 0.0, -0.0, 2.0, -0.0])),
    (-0.0, np.array([0.3, -0.0, -0.4, 0.0, -0.0, 0.9, -0.0, -0.6])),
)


def wide_coefficients(rng, k):
    # h0 and h of magnitudes from subnormal to 1e300, a third of them zero: each
    # product of one GEMM column must round once, whatever its size
    h = rng.standard_normal((k, 8)) * 10.0 ** rng.integers(-320, 300, (k, 8))
    h[rng.random((k, 8)) < 0.3] = 0.0
    h0 = rng.standard_normal(k) * 10.0 ** rng.integers(-320, 300, k)
    return geodesics.HamiltonianCoeffs(h0, h)


def einsum_operators(h0, h):
    # the contractions the operator stacks must reproduce bit for bit
    matrix = np.multiply.outer(h0, np.eye(3)) + np.einsum("...r,rij->...ij", h, su3.LAMBDA)
    return matrix, 2.0 * np.einsum("rst,...s->...rt", su3.F, h)


def complex_generator(matrix):
    # the real form of -iH written block by block from the complex matrix
    generator = np.empty(matrix.shape[:-2] + (3, 2, 3, 2))
    generator[..., :, 0, :, 0] = matrix.imag
    generator[..., :, 0, :, 1] = matrix.real
    generator[..., :, 1, :, 0] = -matrix.real
    generator[..., :, 1, :, 1] = matrix.imag
    return generator.reshape(matrix.shape[:-2] + (6, 6))


def test_stage_operators_broadcast_bit_for_bit():
    rng = np.random.default_rng(9)
    s = np.concatenate(([0.0, -0.0, np.pi / 2], rng.uniform(-3.0, 3.0, 38)))
    a, b, c, d = rng.uniform(-1.0, 1.0, 4)
    stacked = geodesics.geodesic_hamiltonian_family(s, a, b, c, d)
    assert stacked.h0.shape == (41,) and stacked.h.shape == (41, 8)
    matrices = stacked.matrix()
    adjoints = evolution._adjoint_operator(stacked)
    assert matrices.shape == (41, 3, 3) and adjoints.shape == (41, 8, 8)
    for k, value in enumerate(s):
        single = geodesics.geodesic_hamiltonian_family(value, a, b, c, d)
        assert single.h.shape == (8,)
        assert same_bits(single.h0, stacked.h0[k])
        assert same_bits(single.h, stacked.h[k])
        assert same_bits(single.matrix(), matrices[k])
        assert same_bits(evolution._adjoint_operator(single), adjoints[k])
    for coeffs in (
        stacked,
        geodesics.HamiltonianCoeffs(
            np.array([h0 for h0, _ in SIGNED_ZEROS]), np.stack([h for _, h in SIGNED_ZEROS])
        ),
        geodesics.geodesic_hamiltonian_family(s, -0.0, 0.0, -0.0, 0.0),
        wide_coefficients(np.random.default_rng(12), 40),
    ):
        matrix, adjoint = einsum_operators(coeffs.h0, coeffs.h)
        assert same_bits(coeffs.matrix(), matrix)
        assert same_bits(evolution._adjoint_operator(coeffs), adjoint)
        assert same_bits(evolution._state_generator(coeffs), complex_generator(matrix))
        for k in range(len(coeffs.h0)):
            single = geodesics.HamiltonianCoeffs(coeffs.h0[k], coeffs.h[k])
            assert same_bits(single.matrix(), matrix[k])
            assert same_bits(evolution._adjoint_operator(single), adjoint[k])
            assert same_bits(evolution._state_generator(single), complex_generator(matrix[k]))
    # x -> generator x is psi -> -i H psi on psi.view(float)
    psis = states.random_states(rng, len(s))
    rates = np.einsum("kij,kj->ki", evolution._state_generator(stacked), psis.view(float))
    expected = -1j * np.einsum("kij,kj->ki", stacked.matrix(), psis)
    assert np.abs(rates.view(complex) - expected).max() < 1e-12


def test_constant_operators_unchanged():
    # constant segments keep the doubles of the scalar formulas
    rng = np.random.default_rng(10)
    cases = [
        geodesics.HamiltonianCoeffs(float(rng.standard_normal()), rng.standard_normal(8))
        for _ in range(20)
    ]
    cases += [geodesics.HamiltonianCoeffs(h0, h) for h0, h in SIGNED_ZEROS]
    cases += [geodesics.HamiltonianCoeffs(*row) for row in zip(*wide_coefficients(rng, 20))]
    for coeffs in cases:
        matrix = coeffs.h0 * np.eye(3) + np.einsum("r,rij->ij", coeffs.h, su3.LAMBDA)
        assert same_bits(coeffs.matrix(), matrix)
        adjoint = 2.0 * np.einsum("rst,s->rt", su3.F, coeffs.h)
        assert same_bits(evolution._adjoint_operator(coeffs), adjoint)
        assert same_bits(evolution._state_generator(coeffs), complex_generator(matrix))


def test_h0_joins_only_the_diagonal_of_the_generator():
    # beyond _MINUS_I_TERMS, h0 is the generator's one term: at Re H_ii and -Re H_ii
    h0 = np.array([0.7, -0.0, -2.5e-310])
    stacked = geodesics.HamiltonianCoeffs(h0, np.zeros((3, 8)))
    expected = complex_generator(np.multiply.outer(h0, np.eye(3)) + 0j)
    assert same_bits(evolution._state_generator(stacked), expected)
    assert np.count_nonzero(expected[0]) == 6


def term_tables():
    # each two-term form beside the table it stands for, built here from LAMBDA and F
    minus_i = np.zeros((8, 3, 2, 3, 2))
    minus_i[:, :, 0, :, 0] = minus_i[:, :, 1, :, 1] = su3.LAMBDA.imag
    minus_i[:, :, 0, :, 1] = su3.LAMBDA.real
    return (
        (evolution._F_TERMS, su3.F.transpose(1, 0, 2).reshape(8, 64)),
        (evolution._MINUS_I_TERMS, minus_i.reshape(8, 36)),
    )


def test_gemm_tables_have_one_term_a_column():
    # a column with one nonzero row rounds its one product once on any BLAS kernel
    for (table, _), _ in term_tables():
        assert table.shape[0] == 8
        assert np.count_nonzero(table, axis=0).max() <= 1


def test_listed_sums_are_the_entries_of_two_terms():
    for (table, sums), full in term_tables():
        several = np.flatnonzero(np.count_nonzero(full, axis=0) >= 2)
        assert [column for column, *_ in sums] == several.tolist()
        rebuilt = table.copy()
        for column, first, second, a, b in sums:
            assert first < second and not table[:, column].any()
            rebuilt[[first, second], column] = a, b
        assert np.array_equal(rebuilt, full)
    assert len(evolution._F_TERMS[1]) == 4 and len(evolution._MINUS_I_TERMS[1]) == 2


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_h_reaches_a_two_term_column_only_through_its_terms(bad):
    # the GEMM takes bad * 0 in every single-term column but those of bad's own row
    for terms, full in term_tables():
        for row in range(8):
            h = np.zeros(8)
            h[row] = bad
            with np.errstate(invalid="ignore"):
                got = evolution._two_term_sum(h, terms)
            for column, value in enumerate(got):
                rows = np.flatnonzero(full[:, column])
                own = h[rows] @ full[rows, column]
                expected = own if len(rows) == 2 or row in rows else np.nan
                assert np.array_equal(value, expected, equal_nan=True)
    # every two-term column is in h_3 and h_8, so bad in h_1 leaves them 0
    h = np.zeros(8)
    h[0] = bad
    coeffs = geodesics.HamiltonianCoeffs(0.0, h)
    with np.errstate(invalid="ignore"):
        generator = evolution._state_generator(coeffs)
        adjoint = evolution._adjoint_operator(coeffs)
    assert np.flatnonzero(np.isfinite(generator)).tolist() == [1, 6, 15, 20]
    assert np.flatnonzero(np.isfinite(adjoint)).tolist() == [28, 35, 46, 53]


@pytest.mark.parametrize("d", [6, 8])
@pytest.mark.parametrize("k", [1, 2, 750, evolution._BLOCK_STEPS])
def test_stacked_rk4_increment_matches_single_steps(d, k):
    # entries from subnormal to 1, with signed zeros among them
    rng = np.random.default_rng([d, k])
    ops = rng.standard_normal((3, k, d, d)) * 10.0 ** rng.integers(-320, 1, (3, k, d, d))
    ops[rng.random(ops.shape) < 0.3] = 0.0
    ops[rng.random(ops.shape) < 0.1] = -0.0
    stacked = evolution._rk4_increment(1e-3, *ops)
    for step, (start, mid, end) in enumerate(zip(*ops)):
        assert same_bits(stacked[step], evolution._rk4_increment(1e-3, start, mid, end))
    # the cached identities are read-only, so no in-place write reaches a later block
    identities = evolution._identities(d, evolution._BLOCK_STEPS)
    assert identities.shape == (evolution._BLOCK_STEPS, d, d) and not identities.flags.writeable
    with pytest.raises(ValueError):
        identities[:k] += stacked
    assert same_bits(identities, np.broadcast_to(np.eye(d), identities.shape))


def test_identities_follow_the_block_size(monkeypatch):
    # a run at a smaller block size must not cut short a later block's identities
    evolution._identities.cache_clear()
    monkeypatch.setattr(evolution, "_BLOCK_STEPS", 7)
    both_pictures(split_schedule())
    monkeypatch.undo()
    got = result_arrays(*both_pictures(split_schedule()))
    evolution._identities.cache_clear()
    expected = result_arrays(*both_pictures(split_schedule()))
    assert all(same_bits(got[name], expected[name]) for name in expected)


def test_callables_may_return_any_array_like():
    # the split into edges and midpoints takes whatever array-likes a callable gives
    def contiguous(s):
        return geodesics.HamiltonianCoeffs(*map(np.ascontiguousarray, split_family(s)))

    def transposed(s):  # h as the transpose of an (8, k) array
        coeffs = split_family(s)
        h = np.ascontiguousarray(coeffs.h.T).T
        assert not h.flags.c_contiguous
        return coeffs._replace(h=h)

    def nested(s):
        coeffs = split_family(s)
        return geodesics.HamiltonianCoeffs(coeffs.h0.tolist(), coeffs.h.tolist())

    expected = result_arrays(*both_pictures(split_schedule(contiguous)))
    for family in (transposed, nested):
        got = result_arrays(*both_pictures(split_schedule(family)))
        assert all(same_bits(got[name], expected[name]) for name in expected)


@pytest.mark.parametrize("block", [1, 3, 1024])
def test_a_callable_gets_each_block_of_stages_once_in_increasing_order(monkeypatch, block):
    # edges and midpoints interleaved, as in a stage-by-stage RK4 walk
    monkeypatch.setattr(evolution, "_BLOCK_STEPS", block)
    calls = []

    def family(s):
        calls.append(s.copy())
        return split_family(s)

    both_pictures(split_schedule(family))
    expected = []
    for n_steps, duration in ((350, 0.35), (250, 0.25)):
        h = duration / n_steps
        bounds = np.concatenate(([0.0], np.cumsum(np.full(n_steps, h))))
        for first in range(0, n_steps, block):
            edges = bounds[first : first + block + 1]
            stages = np.empty(2 * len(edges) - 1)
            stages[0::2], stages[1::2] = edges, edges[:-1] + 0.5 * h
            expected.append(stages)
    assert len(calls) == 2 * len(expected)
    for got, want in zip(calls, expected * 2):
        assert same_bits(got, want) and np.all(np.diff(got) > 0.0)


@pytest.mark.parametrize("picture", ["state", "nvector"])
def test_callable_of_the_wrong_shape_raises_before_any_step(monkeypatch, picture):
    def fixed(s):  # ignores its argument: one Hamiltonian, h of shape (8,)
        return geodesics.geodesic_hamiltonian_family(0.3, -0.6, 0.9, 0.2, -0.4)

    def three(s):  # always three stages
        return geodesics.geodesic_hamiltonian_family(np.zeros(3), -0.6, 0.9, 0.2, -0.4)

    def never(*args):
        raise AssertionError("an RK4 step ran before the shape was checked")

    monkeypatch.setattr(evolution, "_rk4_increment", never)
    integrate = {"state": evolution.integrate_state, "nvector": evolution.integrate_nvector}
    x0 = states.POLES[2] if picture == "nvector" else E3
    for family, got in ((fixed, "(8,)"), (three, "(3, 8)")):
        schedule = evolution.Schedule(((family, 0.01),))
        with pytest.raises(ValueError) as raised:
            integrate[picture](x0, schedule, 1e-3)
        assert str(raised.value).endswith(f"shape {got}, expected (21, 8)")


@pytest.mark.parametrize("picture", ["state", "nvector"])
def test_callable_h0_of_the_wrong_shape_raises_before_any_step(monkeypatch, picture):
    def family(s):  # h of the right shape (k, 8), h0 the one of the loop below
        return geodesics.HamiltonianCoeffs(h0, split_family(s).h)

    def never(*args):
        raise AssertionError("an RK4 step ran before the shape was checked")

    monkeypatch.setattr(evolution, "_rk4_increment", never)
    integrate = {"state": evolution.integrate_state, "nvector": evolution.integrate_nvector}
    x0 = states.POLES[2] if picture == "nvector" else E3
    schedule = evolution.Schedule(((family, 0.01),))
    for h0, got in ((np.zeros(3), "(3,)"), (np.zeros(()), "()"), (np.zeros((21, 1)), "(21, 1)")):
        with pytest.raises(ValueError, match="h0 of shape") as raised:
            integrate[picture](x0, schedule, 1e-3)
        assert str(raised.value).endswith(f"shape {got}, expected (21,)")


def test_constant_segments_of_the_wrong_shape_raise():
    h = np.linspace(1.0, -1.0, 9) * 0.3
    bad = {
        "h of shape (9,)": geodesics.HamiltonianCoeffs(0.0, h),
        "h of shape (7,)": geodesics.HamiltonianCoeffs(0.0, h[:7]),
        "h of shape (2, 8)": geodesics.HamiltonianCoeffs(0.0, np.stack((h[:8], h[1:]))),
        "h0 of shape (2,)": geodesics.HamiltonianCoeffs(np.zeros(2), h[:8]),
        "a plain array": h[:8],
        "a plain pair": (0.0, h[:8]),
    }
    for name, hamiltonian in bad.items():
        with pytest.raises(ValueError, match="a constant segment"):
            evolution.Schedule(((hamiltonian, 0.5),))
        with pytest.raises(ValueError, match="a constant segment"):  # not only the first segment
            evolution.Schedule(((split_family, 0.1), (hamiltonian, 0.5)))
    good = geodesics.HamiltonianCoeffs(np.float64(0.2), list(h[:8]))
    assert evolution.Schedule(((good, 0.5),)).total_duration == 0.5


@pytest.mark.parametrize("shape", [(9,), (7,), (2, 9), ()])
def test_matrix_takes_only_eight_coefficients(shape):
    coeffs = geodesics.HamiltonianCoeffs(0.0, np.ones(shape))
    with pytest.raises(ValueError, match=r"expected \(\.\.\., 8\)"):
        coeffs.matrix()
    with pytest.raises(ValueError, match=r"expected \(\.\.\., 8\)"):
        evolution._adjoint_operator(coeffs)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_matrix_is_the_einsum_for_a_non_finite_h(bad):
    # the einsum meets bad * 0 in every entry, Re H_00 too, whose own terms are h_3 and h_8
    for row in range(8):
        h = np.zeros((2, 8))
        h[:, row] = bad
        for coeffs in (
            geodesics.HamiltonianCoeffs(np.array([0.5, -0.0]), h),
            geodesics.HamiltonianCoeffs(0.0, h[0]),
        ):
            with np.errstate(invalid="ignore"):
                got = coeffs.matrix()
            assert same_bits(got, einsum_operators(coeffs.h0, coeffs.h)[0])


def test_integrate_nvector_takes_one_eight_vector():
    n0 = states.n_vectors_of(states.random_states(3, 2))
    schedules = split_schedule(), evolution.Schedule(((split_family, 0.01),))
    for bad in (n0, n0[:0], n0[:, :, None], n0[0, :7]):
        for schedule in schedules:
            with pytest.raises(ValueError, match=r"expected \(8,\)"):
                evolution.integrate_nvector(bad, schedule, 1e-3)


def test_integrate_nvector_doubles_do_not_depend_on_layout():
    n0 = states.n_vector_of(states.random_state(6))
    assert not n0.flags.c_contiguous  # the real part of a complex einsum
    wide = np.zeros((8, 3))
    wide[:, 1] = n0
    layouts = n0, wide[:, 1], np.ascontiguousarray(n0[::-1])[::-1], n0.copy()
    for schedule in (split_schedule(), canonical_schedule(0.6)[1]):
        runs = [evolution.integrate_nvector(x, schedule, 1e-3).n for x in layouts]
        assert all(same_bits(run, runs[-1]) for run in runs)
