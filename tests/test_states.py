import numpy as np
import pytest

from triphase import states, su3
from triphase.errors import (
    ChartSingular,
    NotInSubspace,
    NotNormalized,
    NotOnO,
    OutOfRange,
)

SQRT3 = np.sqrt(3.0)


def test_poles_exact():
    ns = states.n_vectors_of(np.eye(3))
    assert np.array_equal(ns, states.POLES)
    assert np.array_equal(
        states.POLES[0], [0, 0, SQRT3 / 2, 0, 0, 0, 0, 0.5]
    )
    assert np.array_equal(
        states.POLES[1], [0, 0, -SQRT3 / 2, 0, 0, 0, 0, 0.5]
    )
    assert np.array_equal(states.POLES[2], [0, 0, 0, 0, 0, 0, 0, -1.0])


def test_random_states_on_locus():
    psis = states.random_states(0, 500)
    ns = states.n_vectors_of(psis)
    assert np.abs(np.einsum("kr,kr->k", ns, ns) - 1.0).max() < 1e-12
    assert np.abs(su3.star(ns, ns) - ns).max() < 1e-12


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_n_vectors_blocked_bit_for_bit(monkeypatch, block):
    psis = states.random_states(2, 1000)
    whole = (SQRT3 / 2) * np.einsum("ki,rij,kj->kr", psis.conj(), su3.LAMBDA, psis).real
    monkeypatch.setattr(states, "_ROW_BLOCK", block)
    assert states.n_vectors_of(psis).tobytes() == whole.tobytes()


def test_antipode_off_locus():
    ns = states.n_vectors_of(states.random_states(1, 200))
    defect = np.abs(su3.star(-ns, -ns) + ns).max(axis=1)
    assert defect.min() > 0.5
    with pytest.raises(NotOnO):
        states.assert_on_O(-ns[0])


def test_density_example():
    # psi = (1/sqrt2, 0, (1-i)/2)
    psi = np.array([1 / np.sqrt(2), 0.0, (1 - 1j) / 2])
    rho = states.density_of(psi)
    assert abs(rho[0, 0] - 0.5) < 1e-15
    assert abs(rho[0, 2] - (1 + 1j) / (2 * np.sqrt(2))) < 1e-15
    assert np.abs(rho - rho.conj().T).max() == 0.0
    assert abs(np.trace(rho) - 1.0) < 1e-15


def test_density_roundtrip_through_n():
    rng = np.random.default_rng(2)
    for _ in range(50):
        psi = states.random_state(rng)
        n = states.n_vector_of(psi)
        rho = states.density_from_n(n)
        assert np.abs(rho - states.density_of(psi)).max() < 1e-13


def test_lift_gauge():
    rng = np.random.default_rng(3)
    for _ in range(50):
        psi = states.random_state(rng)
        lift = states.lift_of_density(states.density_of(psi))
        j = np.argmax(np.abs(lift))
        assert lift[j].imag == pytest.approx(0.0, abs=1e-14)
        assert lift[j].real > 0.0
        assert abs(abs(np.vdot(psi, lift)) ** 2 - 1.0) < 1e-12


def test_lift_rejects_mixed():
    with pytest.raises(ValueError):
        states.lift_of_density(np.eye(3) / 3.0)


def test_overlap_matches_trace():
    rng = np.random.default_rng(4)
    for _ in range(50):
        psi1, psi2 = states.random_states(rng, 2)
        n1, n2 = states.n_vector_of(psi1), states.n_vector_of(psi2)
        by_n = states.overlap(n1, n2)
        by_trace = np.trace(
            states.density_of(psi1) @ states.density_of(psi2)
        ).real
        assert abs(by_n - by_trace) < 1e-12
        assert abs(by_n - abs(np.vdot(psi1, psi2)) ** 2) < 1e-12


def test_overlap_quarter():
    third = np.array([0.0, np.sin(np.pi / 3), np.cos(np.pi / 3)], dtype=complex)
    n1 = states.POLES[2]
    n2 = states.n_vector_of(third)
    assert abs(states.overlap(n1, n2) - 0.25) < 1e-15


def test_opening_angle_bound_and_attained():
    ns = states.n_vectors_of(states.random_states(5, 300))
    other = states.n_vectors_of(states.random_states(6, 300))
    cosines = np.einsum("kr,kr->k", ns, other)
    assert cosines.min() >= -0.5 - 1e-12
    # orthogonal basis states realize the maximum opening angle
    assert abs(states.POLES[0] @ states.POLES[1] + 0.5) < 1e-15
    assert abs(np.arccos(-0.5) - 2 * np.pi / 3) < 1e-15


def test_equivariance():
    rng = np.random.default_rng(7)
    for _ in range(30):
        u = su3.random_special_unitary(rng)
        psi = states.random_state(rng)
        err = np.abs(
            states.n_vector_of(u @ psi) - su3.adjoint_of(u) @ states.n_vector_of(psi)
        ).max()
        assert err < 1e-13


def test_assert_on_O():
    n = states.n_vector_of(states.random_state(8))
    states.assert_on_O(n)
    with pytest.raises(NotOnO):
        states.assert_on_O(-n)
    with pytest.raises(NotOnO):
        states.assert_on_O(np.zeros(8))
    n[3] = np.nan
    with pytest.raises(NotOnO):
        states.assert_on_O(n)


def test_state_from_n_inverts():
    rng = np.random.default_rng(9)
    for _ in range(30):
        psi = states.random_state(rng)
        back = states.state_from_n(states.n_vector_of(psi))
        assert abs(abs(np.vdot(psi, back)) ** 2 - 1.0) < 1e-10


def test_normalization_guard():
    with pytest.raises(NotNormalized):
        states.assert_normalized(np.array([1.0, 1.0, 0.0]))
    states.assert_normalized(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(NotNormalized):
        states.assert_normalized(np.array([np.nan, 0.0, 1.0]))


def test_octant_roundtrip():
    rng = np.random.default_rng(10)
    count = 0
    while count < 40:
        psi = states.random_state(rng)
        if abs(psi[2]) <= 0.05:
            continue
        count += 1
        coords = states.to_octant_coords(psi)
        back = states.from_octant_coords(coords)
        assert abs(abs(np.vdot(psi, back)) ** 2 - 1.0) < 1e-12
        closed = states.n_from_octant_coords(coords)
        assert np.abs(closed - states.n_vector_of(psi)).max() < 1e-12


def test_octant_frozen_component():
    coords = states.OctantCoordinates(np.pi / 3, np.pi / 4, 0.0, np.pi / 2)
    n = states.n_from_octant_coords(coords)
    assert abs(n[1] - 3 * SQRT3 / 8) < 1e-15
    assert abs(n[7] - 0.125) < 1e-15
    # n8 depends on theta alone
    rng = np.random.default_rng(11)
    for _ in range(20):
        theta = rng.uniform(0.0, np.pi / 2 - 1e-3)
        c = states.OctantCoordinates(
            theta, rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)
        )
        n = states.n_from_octant_coords(c)
        assert abs(n[7] - 0.5 * (1.0 - 3.0 * np.cos(theta) ** 2)) < 1e-14


def test_octant_singular_and_ranges():
    with pytest.raises(ChartSingular):
        states.to_octant_coords(np.array([1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(OutOfRange):
        states.from_octant_coords(states.OctantCoordinates(np.pi / 2, 0.1, 0.1, 0.1))
    with pytest.raises(OutOfRange):
        states.from_octant_coords(states.OctantCoordinates(0.3, -0.1, 0.1, 0.1))
    with pytest.raises(OutOfRange):
        states.from_octant_coords(states.OctantCoordinates(0.3, 0.1, 7.0, 0.1))


def test_octant_undefined_flags():
    coords = states.to_octant_coords(np.array([0.0, 0.0, 1.0], dtype=complex))
    assert coords.theta == 0.0
    assert not coords.phi_defined
    assert not coords.chi1_defined
    assert not coords.chi2_defined
    one_axis = states.to_octant_coords(
        np.array([np.sin(0.4), 0.0, np.cos(0.4)], dtype=complex)
    )
    assert one_axis.chi1_defined
    assert not one_axis.chi2_defined
    assert one_axis.phi == 0.0


def test_embedded_sphere():
    rng = np.random.default_rng(12)
    center = np.zeros(8)
    center[7] = 0.5
    for _ in range(30):
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = np.zeros(3, dtype=complex)
        psi[:2] = raw / np.linalg.norm(raw)
        got_center, radius = states.embedded_sphere_check(psi)
        assert np.array_equal(got_center, center)
        assert radius == pytest.approx(SQRT3 / 2, abs=0)
        n = states.n_vector_of(psi)
        assert abs(np.linalg.norm(n - center) - SQRT3 / 2) < 1e-12
    with pytest.raises(NotInSubspace):
        states.embedded_sphere_check(np.array([0.0, 0.0, 1.0], dtype=complex))


def test_json_roundtrip():
    psi = states.random_state(13)
    obj = states.state_to_json(psi)
    assert set(obj) == {"re", "im"}
    back = states.state_from_json(obj)
    assert np.abs(back - psi).max() == 0.0


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        states.state_from_json({"re": [1, 0, 0]})
    with pytest.raises(ValueError):
        states.state_from_json({"re": [1, 0], "im": [0, 0]})
