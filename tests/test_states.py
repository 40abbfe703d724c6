import dataclasses
import itertools
import json

import numpy as np
import pytest

from triphase import evolution, phases, states, su3
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


def einsum_n_vectors(psis):
    # the contraction n_vectors_of's real arithmetic must reproduce bit for bit
    return (SQRT3 / 2) * np.einsum("ki,rij,kj->kr", psis.conj(), su3.LAMBDA, psis).real


def n_vector_pools():
    # Haar rows, every row with components in {0, -0, 0.6, -0.8} (signed
    # zeros on every product), the basis states and rows at 1e-200 scale
    haar = states.random_states(2, 20000)
    grid = np.array(list(itertools.product([0.0, -0.0, 0.6, -0.8], repeat=6))).view(complex)
    basis = np.concatenate((np.eye(3), -np.eye(3), 1j * np.eye(3), -1j * np.eye(3)))
    return haar, grid, basis.astype(complex), 1e-200 * haar[:500]


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_n_vectors_blocked_bit_for_bit(monkeypatch, block):
    monkeypatch.setattr(states, "_ROW_BLOCK", block)
    limit = 1000 if block == 1 else None  # a block of one row is one Python pass per row
    for psis in n_vector_pools():
        psis = psis[:limit]
        assert states.n_vectors_of(psis).tobytes() == einsum_n_vectors(psis).tobytes()


def test_n_vectors_of_rejects_bad_shapes():
    for shape in [(3,), (2, 4), (2, 3, 1), (3, 3, 3)]:
        with pytest.raises(ValueError, match=r"shape \(N, 3\)"):
            states.n_vectors_of(np.zeros(shape, dtype=complex))
    assert states.n_vectors_of(np.zeros((0, 3))).shape == (0, 8)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_row_gives_nan_n_vector(value):
    psis = states.random_states(3, 7)
    for k in range(6):
        bad = psis.copy()
        bad.view(float)[4, k] = value
        ns = states.n_vectors_of(bad)
        assert np.isnan(ns[4]).all()
        assert np.isnan(einsum_n_vectors(bad)[4]).all()
        others = np.arange(7) != 4
        assert ns[others].tobytes() == einsum_n_vectors(psis)[others].tobytes()


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
    empty = np.zeros((0, 8))  # every row of an empty stack is on O
    assert states.assert_on_O(empty) is empty


def test_stacked_on_O_raises_the_first_row_off_O():
    ns = states.n_vectors_of(states.random_states(14, 4))
    assert states.assert_on_O(ns) is not None
    nan_row = ns[0].copy()
    nan_row[3] = np.nan
    for bad in (-ns[1], np.zeros(8), nan_row):
        with pytest.raises(NotOnO) as single:
            states.assert_on_O(bad)
        for stack in ([ns[0], bad, -ns[2]], [bad, ns[3]]):
            with pytest.raises(NotOnO) as stacked:
                states.assert_on_O(stack)
            assert str(stacked.value) == str(single.value)


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


@pytest.mark.parametrize(
    "chart, defined",
    [
        ((0.7, 0.4, 1.1, 2.3), (True, True, True)),
        ((0.0, 0.4, 1.1, 2.3), (False, False, False)),
        ((0.7, 0.0, 1.1, 2.3), (True, True, False)),
        ((0.7, np.pi / 2, 1.1, 2.3), (True, False, True)),
    ],
)
def test_octant_flags_are_python_bools(chart, defined):
    # generic, then theta = 0, phi = 0 and phi = pi/2, each flagging its undefined angles
    psi = states.from_octant_coords(states.OctantCoordinates(*chart))
    coords = states.to_octant_coords(psi)
    flags = (coords.phi_defined, coords.chi1_defined, coords.chi2_defined)
    assert flags == defined and all(type(flag) is bool for flag in flags)
    fields = dataclasses.asdict(coords)
    assert states.OctantCoordinates(**json.loads(json.dumps(fields))) == coords


def test_octant_singular_and_ranges():
    with pytest.raises(ChartSingular):
        states.to_octant_coords(np.array([1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(OutOfRange):
        states.from_octant_coords(states.OctantCoordinates(np.pi / 2, 0.1, 0.1, 0.1))
    with pytest.raises(OutOfRange):
        states.from_octant_coords(states.OctantCoordinates(0.3, -0.1, 0.1, 0.1))
    with pytest.raises(OutOfRange):
        states.from_octant_coords(states.OctantCoordinates(0.3, 0.1, 7.0, 0.1))


@pytest.mark.parametrize("slot", [0, 1])
def test_octant_tiny_negative_chi_folds_to_zero(slot):
    # arg psi_k = -1e-17 used to fold to exactly 2 pi, which the chart rejects
    psi = np.zeros(3, dtype=complex)
    psi[slot], psi[2] = 0.6 * np.exp(-1e-17j), 0.8
    coords = states.to_octant_coords(psi)
    assert (coords.chi1, coords.chi2) == (0.0, 0.0)
    back = states.from_octant_coords(coords)
    assert abs(abs(np.vdot(psi, back)) ** 2 - 1.0) < 1e-15
    assert np.abs(states.n_from_octant_coords(coords) - states.n_vector_of(psi)).max() < 1e-15


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
    # only JSON numbers: no strings, no booleans
    for entry in ("1", True, None, [1]):
        with pytest.raises(ValueError, match="JSON numbers"):
            states.state_from_json({"re": [entry, 0, 0], "im": [0, 0, 0]})


def _tie_states():
    r2, r3 = 1 / np.sqrt(2.0), 1 / np.sqrt(3.0)
    return [
        np.array([r2, r2, 0.0], dtype=complex),
        np.array([r2, 1j * r2, 0.0], dtype=complex),
        np.array([0.0, -r2, r2], dtype=complex),
        np.array([r3, r3, r3], dtype=complex),
        np.array([r3, -1j * r3, r3], dtype=complex),
    ]


def test_stacked_lift_matches_single_calls_bit_for_bit():
    rng = np.random.default_rng(11)
    psis = list(states.random_states(rng, 300)) + list(np.eye(3, dtype=complex))
    psis += _tie_states()
    rhos = np.array([states.density_of(p) for p in psis])
    stacked = states.lift_of_density(rhos)
    assert stacked.shape == (len(psis), 3) and stacked.flags.c_contiguous
    for rho, row in zip(rhos, stacked):
        single = states.lift_of_density(rho)
        assert single.shape == (3,) and single.flags.c_contiguous
        assert np.array_equal(row, single)
        assert np.array_equal(np.signbit(row.view(float)), np.signbit(single.view(float)))
    # a list of matrices is a stack too, and so is a stack of one
    assert np.array_equal(states.lift_of_density(list(rhos[:3])), stacked[:3])
    assert np.array_equal(states.lift_of_density(rhos[:1]), stacked[:1])


def _gauge_reference(psi):
    # the per-row gauge as a scalar factor and np.linalg.norm, written out
    j = int(np.abs(psi).argmax())
    psi = psi * (psi[j].conjugate() / abs(psi[j]))
    return psi / np.linalg.norm(psi)


def test_stacked_lift_matches_the_per_row_gauge_bit_for_bit():
    rng = np.random.default_rng(15)
    z = rng.standard_normal((12_000, 3)) + 1j * rng.standard_normal((12_000, 3))
    z[::3, 0] = 0.0  # an exact-zero component in every third row ...
    z[1::3, 2] = 0.0
    z[2::6, 1] = 1j * z[2::6, 0]  # ... and two components of equal modulus
    psis = np.concatenate([z / np.linalg.norm(z, axis=1, keepdims=True), _tie_states()])
    rhos = np.einsum("ki,kj->kij", psis, psis.conj())
    want = np.array([_gauge_reference(top) for top in np.linalg.eigh(rhos)[1][..., -1]])
    assert np.array_equal(states.lift_of_density(rhos).view(np.uint64), want.view(np.uint64))
    for rho, row in zip(rhos[::60], want[::60]):
        assert np.array_equal(states.lift_of_density(rho).view(np.uint64), row.view(np.uint64))


def test_stacked_lift_raises_the_first_failing_matrix():
    good = states.density_of(states.random_state(12))
    mixed = np.eye(3) / 3.0
    skew = good.copy()
    skew[0, 1] += 1e-3
    for stack, first_bad in (([good, mixed, skew], mixed), ([good, skew, mixed], skew)):
        with pytest.raises(ValueError) as single:
            states.lift_of_density(first_bad)
        with pytest.raises(ValueError) as stacked:
            states.lift_of_density(stack)
        assert "not a pure-state density matrix" in str(single.value)
        assert str(stacked.value) == str(single.value)
    for shape in ((3,), (2, 2), (2, 3, 2), (1, 2, 3, 3), (0, 3, 3)):
        with pytest.raises(ValueError, match="shape"):
            states.lift_of_density(np.zeros(shape))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("entry", [(0, 0), (1, 2), (2, 1)])
def test_non_finite_density_raises_value_error(value, entry):
    good = states.density_of(states.random_state(13))
    bad = good.copy()
    bad[entry] = value
    with pytest.raises(ValueError, match="not a pure-state density matrix") as single:
        states.lift_of_density(bad)
    for stack in ([good, bad], [bad, good, good]):
        with pytest.raises(ValueError) as stacked:
            states.lift_of_density(stack)
        assert str(stacked.value) == str(single.value)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Clear the lift memo and record the input shape of every np.linalg.eigh call."""
    monkeypatch.setattr(states, "_last_lift", None)
    calls, eigh = [], np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def _triangle_densities(seed):
    return np.array([states.density_of(p) for p in states.random_states(seed, 3)])


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_lift_memo_hit_returns_the_fresh_doubles(eigh_calls):
    ties = np.array([states.density_of(p) for p in _tie_states()])
    haar = [_triangle_densities(seed) for seed in range(40)]
    inputs = haar + [ties[:3], ties[2:], ties[[0, 3, 4]], ties[:2], *ties]
    for rhos in inputs:
        fresh = states.lift_of_density(rhos)
        assert len(eigh_calls) == 1
        for hit in (states.lift_of_density(rhos), states.lift_of_density(list(rhos))):
            assert hit.shape == fresh.shape and np.array_equal(_bits(hit), _bits(fresh))
        assert len(eigh_calls) == 1
        eigh_calls.clear()


def test_lift_memo_returns_new_arrays_that_writes_do_not_reach(eigh_calls):
    rhos, other = _triangle_densities(31), _triangle_densities(32)
    want, want_other = states.lift_of_density(rhos), states.lift_of_density(other)
    first = states.lift_of_density(rhos)
    second = states.lift_of_density(rhos)  # a hit
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(second, states._last_lift[1])
    first[:] = 0.0
    second[1] = np.nan
    assert np.array_equal(_bits(states.lift_of_density(rhos)), _bits(want))
    # the key is a copy of the input, so a write into the input makes the next call miss
    kept = rhos.copy()
    rhos[:] = other
    assert np.array_equal(_bits(states.lift_of_density(rhos)), _bits(want_other))
    rhos[:] = kept
    assert np.array_equal(_bits(states.lift_of_density(rhos)), _bits(want))
    listed = [rho.copy() for rho in kept]  # the same key as rhos, so a hit
    assert np.array_equal(_bits(states.lift_of_density(listed)), _bits(want))
    listed[1][:] = other[1]
    moved = states.lift_of_density(listed)
    assert np.array_equal(_bits(moved), _bits(states.lift_of_density([kept[0], other[1], kept[2]])))
    assert len(eigh_calls) == 6


def test_lift_memo_misses_on_any_other_key(eigh_calls):
    rhos = _triangle_densities(33)
    ulp = rhos.copy()
    ulp[1, 0, 0] = np.nextafter(ulp[1, 0, 0].real, np.inf)
    zero = np.diag([0.0, 0.0, 1.0]).astype(complex)
    signed = zero.copy()
    signed[0, 1] = -0.0
    assert not np.signbit(zero[0, 1].real) and np.signbit(signed[0, 1].real)
    cases = [
        ((rhos,), (ulp,)),
        ((zero,), (signed,)),
        ((rhos[0],), (rhos[:1],)),
    ]
    for a, b in cases:
        eigh_calls.clear()
        lifts = [states.lift_of_density(*args) for args in (a, b, a, b)]
        assert len(eigh_calls) == 4  # every call misses ...
        assert np.array_equal(_bits(states.lift_of_density(*b)), _bits(lifts[3]))
        assert len(eigh_calls) == 4  # ... though the last key hits
    assert states.lift_of_density(rhos[0]).shape == (3,)
    assert states.lift_of_density(rhos[:1]).shape == (1, 3)


def test_lift_memo_keeps_its_entry_when_a_call_raises(eigh_calls):
    rhos = _triangle_densities(34)
    want = states.lift_of_density(rhos)
    mixed = np.eye(3) / 3.0
    nan = rhos.copy()
    nan[2, 1, 1] = np.nan
    inf, empty = np.full((3, 3), np.inf), np.zeros((0, 3, 3))
    for bad in (mixed, [rhos[0], mixed, rhos[2]], nan, inf, empty):
        for _ in range(2):
            with pytest.raises(ValueError):
                states.lift_of_density(bad)
    assert np.array_equal(_bits(states.lift_of_density(rhos)), _bits(want))
    assert len(eigh_calls) == 1


def test_lift_memo_never_stores_a_larger_stack(eigh_calls):
    four = np.array([states.density_of(p) for p in states.random_states(35, 4)])
    first, second = states.lift_of_density(four), states.lift_of_density(four)
    assert len(eigh_calls) == 2 and states._last_lift is None
    assert np.array_equal(_bits(first), _bits(second))
    states.lift_of_density(four[:3])
    states.lift_of_density(four)  # neither looked up nor stored ...
    states.lift_of_density(four[:3])  # ... so the triangle still hits
    assert eigh_calls == [(4, 3, 3)] * 2 + [(3, 3, 3), (4, 3, 3)]


def test_one_eigh_per_triangle_across_its_routes(eigh_calls):
    rhos = list(_triangle_densities(36))
    phases.canonicalize_triangle(*rhos)
    phases.triangle_line_integral_phase(*rhos)
    assert eigh_calls == [(3, 3, 3)]
    eigh_calls.clear()
    states._last_lift = None
    evolution.evolve_triangle(*rhos, step=5e-3)
    assert eigh_calls == [(3, 3, 3)]
