"""Phase oracles: closed form, Bargmann product, eight-vector formula,
chart line integral.  The sweeps here drive every pair of oracles
against each other; the frozen values pin the canonical triangle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triphase import geodesics, phases, states, su3
from triphase.errors import (
    ChartSingular,
    DegenerateTriangle,
    NotClosed,
    NotOnO,
    NotTwoLevel,
    OrthogonalConsecutive,
    OrthogonalPair,
    OrthogonalStates,
    OutOfRange,
    TooFewSamples,
)

CANONICAL = (np.pi / 4, np.pi / 4, np.pi / 2, np.pi / 2)


def random_triangle(rng):
    while True:
        psis = states.random_states(rng, 3)
        ips = [abs(np.vdot(psis[i], psis[(i + 1) % 3])) ** 2 for i in range(3)]
        if min(ips) > 1e-3:
            return psis


def test_principal_branch():
    assert phases.principal_branch(0.0) == 0.0
    assert abs(phases.principal_branch(3 * np.pi / 2) + np.pi / 2) < 1e-15
    assert abs(phases.principal_branch(-3 * np.pi / 2) - np.pi / 2) < 1e-15
    assert abs(phases.principal_branch(np.pi) - np.pi) < 1e-12
    assert abs(phases.phase_distance(np.pi, -np.pi)) < 1e-12
    assert abs(phases.phase_distance(0.1, 2 * np.pi + 0.1)) < 1e-13


def test_total_phase():
    psi = states.random_state(0)
    rotated = psi * np.exp(0.3j)
    assert phases.total_phase(psi, rotated).value == pytest.approx(0.3, abs=1e-14)
    with pytest.raises(OrthogonalStates):
        phases.total_phase(
            np.array([1.0, 0, 0], dtype=complex), np.array([0, 1.0, 0], dtype=complex)
        )


def test_bargmann_canonical():
    lifts = phases.triangle_states(phases.TriangleParams(*CANONICAL))
    result = phases.bargmann_phase(list(lifts))
    assert result.method == "bargmann"
    assert result.value == pytest.approx(-np.pi / 4, abs=1e-13)


def test_bargmann_rephasing_invariance():
    rng = np.random.default_rng(1)
    for _ in range(30):
        psis = list(random_triangle(rng))
        base = phases.bargmann_phase(psis).value
        rephased = [p * np.exp(1j * rng.uniform(0, 2 * np.pi)) for p in psis]
        assert phases.phase_distance(phases.bargmann_phase(rephased).value, base) < 1e-12


def test_bargmann_polygon_additivity():
    # splitting a polygon along a diagonal adds the pieces' phases
    rng = np.random.default_rng(2)
    for _ in range(20):
        while True:
            psis = list(states.random_states(rng, 4))
            pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
            if min(abs(np.vdot(psis[i], psis[j])) ** 2 for i, j in pairs) > 1e-3:
                break
        whole = phases.bargmann_phase(psis).value
        first = phases.bargmann_phase([psis[0], psis[1], psis[2]]).value
        second = phases.bargmann_phase([psis[0], psis[2], psis[3]]).value
        assert phases.phase_distance(whole, first + second) < 1e-12


def test_bargmann_guards():
    with pytest.raises(TooFewSamples):
        phases.bargmann_phase(
            [np.array([1.0, 0, 0], dtype=complex), np.array([1.0, 0, 0], dtype=complex)]
        )
    basis = [np.eye(3, dtype=complex)[k] for k in range(3)]
    with pytest.raises(OrthogonalConsecutive):
        phases.bargmann_phase(basis)


def test_triangle_params_validation():
    with pytest.raises(OutOfRange):
        phases.TriangleParams(0.0, 0.3, 0.3, 0.3)
    with pytest.raises(OutOfRange):
        phases.TriangleParams(0.3, np.pi / 2, 0.3, 0.3)
    with pytest.raises(OutOfRange):
        phases.TriangleParams(0.3, 0.3, -0.1, 0.3)
    with pytest.raises(OutOfRange):
        phases.TriangleParams(0.3, 0.3, 0.3, 2 * np.pi)


def test_triangle_states_overlaps():
    params = phases.TriangleParams(0.5, 0.7, 1.1, 2.3)
    lifts = phases.triangle_states(params)
    norms = np.einsum("ki,ki->k", lifts.conj(), lifts).real
    assert np.abs(norms - 1.0).max() < 1e-14
    assert abs(abs(np.vdot(lifts[0], lifts[1])) - np.cos(0.5)) < 1e-14
    assert abs(abs(np.vdot(lifts[0], lifts[2])) - np.cos(0.7)) < 1e-14


def test_closed_form_canonical():
    result = phases.pancharatnam_phase(phases.TriangleParams(*CANONICAL))
    assert result.method == "closed-form"
    assert result.value == pytest.approx(-np.pi / 4, abs=1e-13)
    zero = phases.pancharatnam_phase(phases.TriangleParams(0.4, 0.9, 1.2, 0.0))
    assert zero.value == 0.0


def test_closed_form_chi2_odd():
    rng = np.random.default_rng(3)
    for _ in range(30):
        xi, eta = rng.uniform(0.05, np.pi / 2 - 0.05, 2)
        zeta = rng.uniform(0.0, np.pi / 2)
        chi2 = rng.uniform(1e-6, np.pi)
        plus = phases.pancharatnam_phase(phases.TriangleParams(xi, eta, zeta, chi2))
        minus = phases.pancharatnam_phase(
            phases.TriangleParams(xi, eta, zeta, 2 * np.pi - chi2)
        )
        assert phases.phase_distance(plus.value, -minus.value) < 1e-12


def test_canonicalize_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(30):
        params = phases.TriangleParams(
            rng.uniform(0.1, np.pi / 2 - 0.1),
            rng.uniform(0.1, np.pi / 2 - 0.1),
            rng.uniform(0.05, np.pi / 2),
            rng.uniform(0.1, 2 * np.pi - 0.1),
        )
        lifts = phases.triangle_states(params)
        back = phases.canonicalize_triangle(*(states.density_of(p) for p in lifts))
        assert abs(back.xi - params.xi) < 1e-10
        assert abs(back.eta - params.eta) < 1e-10
        assert abs(back.zeta - params.zeta) < 1e-8
        assert phases.phase_distance(back.chi2, params.chi2) < 1e-8


def test_canonicalize_invariance():
    rng = np.random.default_rng(5)
    for _ in range(30):
        psis = random_triangle(rng)
        rhos = [states.density_of(p) for p in psis]
        base = phases.canonicalize_triangle(*rhos)
        unitary = su3.random_special_unitary(rng)
        moved = [states.density_of(unitary @ p * np.exp(1j * rng.uniform(0, 2 * np.pi))) for p in psis]
        again = phases.canonicalize_triangle(*moved)
        assert abs(again.xi - base.xi) < 1e-9
        assert abs(again.eta - base.eta) < 1e-9
        assert abs(again.zeta - base.zeta) < 1e-7
        if base.zeta > 1e-3 and min(base.xi, base.eta) > 1e-3:
            assert phases.phase_distance(again.chi2, base.chi2) < 1e-6


def test_canonicalize_guards():
    e1 = states.density_of(np.array([1.0, 0, 0], dtype=complex))
    e2 = states.density_of(np.array([0, 1.0, 0], dtype=complex))
    third = states.density_of(np.array([1.0, 1.0, 1.0], dtype=complex) / np.sqrt(3))
    with pytest.raises(OrthogonalPair):
        phases.canonicalize_triangle(e1, e2, third)
    with pytest.raises(DegenerateTriangle):
        phases.canonicalize_triangle(e1, e1, third)


def test_n_vector_oracle_matches():
    rng = np.random.default_rng(6)
    for _ in range(40):
        psis = random_triangle(rng)
        rhos = [states.density_of(p) for p in psis]
        ns = [states.n_vector_of(p) for p in psis]
        closed = phases.pancharatnam_phase(phases.canonicalize_triangle(*rhos)).value
        by_n = phases.pancharatnam_phase_from_n(*ns)
        assert by_n.method == "n-vector"
        assert phases.phase_distance(by_n.value, closed) < 1e-10
        num, den = phases.wedge_star_phase_terms(*ns)
        assert phases.phase_distance(-np.arctan2(num, den), by_n.value) < 1e-12


def test_wedge_star_terms_frozen():
    lifts = phases.triangle_states(phases.TriangleParams(*CANONICAL))
    ns = [states.n_vector_of(p) for p in lifts]
    num, den = phases.wedge_star_phase_terms(*ns)
    # Tr(rho1 rho2 rho3) = (den + i num) / 9 = (1 + i) / 4 here
    assert abs(num - 2.25) < 1e-13
    assert abs(den - 2.25) < 1e-13


def test_n_vector_oracle_orthogonal():
    with pytest.raises(OrthogonalPair):
        phases.pancharatnam_phase_from_n(
            states.POLES[0], states.POLES[1], states.POLES[2]
        )
    with pytest.raises(OrthogonalPair):
        phases.pancharatnam_phase(
            phases.TriangleParams(np.pi / 4, np.pi / 4, np.pi / 2, np.pi)
        )


@pytest.mark.parametrize(
    "off_locus",
    [-states.POLES[0], np.zeros(8), np.array([np.nan, 0, 0, 0, 0, 0, 0, -1.0])],
    ids=["antipode", "zero", "nan"],
)
def test_n_vector_oracle_rejects_points_off_O(off_locus):
    lifts = phases.triangle_states(phases.TriangleParams(*CANONICAL))
    for k in range(3):
        ns = list(states.n_vectors_of(lifts))
        ns[k] = off_locus
        with pytest.raises(NotOnO):
            phases.pancharatnam_phase_from_n(*ns)


def test_branch_cut_at_chi2_pi():
    # the closed form lands exactly on the cut here; the branch keeps +pi
    assert phases.principal_branch(-np.pi) == np.pi
    params = phases.TriangleParams(1.2, 1.2, np.pi / 2, np.pi)
    lifts = phases.triangle_states(params)
    assert phases.pancharatnam_phase(params).value == np.pi
    assert phases.bargmann_phase(list(lifts)).value == np.pi
    ns = [states.n_vector_of(p) for p in lifts]
    assert phases.pancharatnam_phase_from_n(*ns).value == np.pi
    for angle in (-3.0, -np.pi + 1e-12, np.pi, 2.5):
        wrapped = np.arctan2(np.sin(angle), np.cos(angle))
        assert phases.principal_branch(angle) == wrapped


def chart_states(theta, phi, chi1, chi2):
    st = np.sin(theta)
    return np.stack(
        [
            np.exp(1j * chi1) * st * np.cos(phi),
            np.exp(1j * chi2) * st * np.sin(phi),
            np.cos(theta) + 0j,
        ],
        axis=1,
    )


def test_line_integral_synthetic_loop():
    # fixed theta, phi; chi1 winds once: phase = -sin^2(theta) cos^2(phi) 2 pi
    count = 20001
    theta = np.full(count, np.pi / 4)
    phi = np.full(count, np.pi / 3)
    chi1 = np.linspace(0.0, 2 * np.pi, count)
    chi2 = np.zeros(count)
    result = phases.line_integral_phase_from_states(chart_states(theta, phi, chi1, chi2))
    assert result.method == "line-integral"
    assert phases.phase_distance(result.value, -np.pi / 4) < 1e-10


def test_line_integral_requires_closure():
    count = 101
    theta = np.linspace(0.2, 0.4, count)
    phi = np.full(count, 0.5)
    chi = np.zeros(count)
    with pytest.raises(NotClosed, match=r"probability 9\.605e-01 is not 1"):
        phases.line_integral_phase_from_states(chart_states(theta, phi, chi, chi))


def test_triangle_line_integral_canonical():
    lifts = phases.triangle_states(phases.TriangleParams(*CANONICAL))
    rhos = [states.density_of(p) for p in lifts]
    result = phases.triangle_line_integral_phase(*rhos)
    assert phases.phase_distance(result.value, -np.pi / 4) < 1e-6


def test_triangle_line_integral_sweep():
    rng = np.random.default_rng(7)
    done = 0
    while done < 15:
        psis = random_triangle(rng)
        rhos = [states.density_of(p) for p in psis]
        closed = phases.pancharatnam_phase(phases.canonicalize_triangle(*rhos)).value
        try:
            line = phases.triangle_line_integral_phase(*rhos).value
        except ChartSingular:
            continue
        done += 1
        assert phases.phase_distance(line, closed) < 1e-7


def test_triangle_line_integral_through_chart_edge_midpoint():
    # the side psi2 -> psi3 crosses psi_3 = 0 exactly at its midpoint, which
    # no sample of the nested grids may land on
    params = phases.TriangleParams(1.2, 1.2, np.pi / 2, np.pi)
    rhos = [states.density_of(p) for p in phases.triangle_states(params)]
    line = phases.triangle_line_integral_phase(*rhos).value
    closed = phases.pancharatnam_phase(params).value
    assert phases.phase_distance(line, closed) < 1e-12


def test_triangle_line_integral_singular():
    # a vertex with vanishing third component leaves the chart
    singular = [
        states.density_of(np.array([1.0, 0, 0], dtype=complex)),
        states.density_of(np.array([np.cos(0.4), np.sin(0.4), 0], dtype=complex)),
        states.density_of(np.array([0.5, 0.5, 1 / np.sqrt(2)], dtype=complex)),
    ]
    with pytest.raises(ChartSingular):
        phases.triangle_line_integral_phase(*singular)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_oracle_phases_in_range_and_agree(seed):
    rng = np.random.default_rng(seed)
    psis = random_triangle(rng)
    rhos = [states.density_of(p) for p in psis]
    try:
        line = phases.triangle_line_integral_phase(*rhos).value
    except ChartSingular:
        assume(False)
    values = [
        phases.pancharatnam_phase(phases.canonicalize_triangle(*rhos)).value,
        phases.bargmann_phase(list(psis)).value,
        phases.pancharatnam_phase_from_n(*(states.n_vector_of(p) for p in psis)).value,
        line,
    ]
    assert all(-np.pi < v <= np.pi for v in values)
    assert max(phases.phase_distance(v, values[0]) for v in values) < 1e-6


def test_two_level_reduction_octant():
    reduction = phases.solid_angle_reduction(phases.TriangleParams(*CANONICAL))
    assert reduction.side_a == pytest.approx(np.pi / 2, abs=0)
    assert reduction.side_b == pytest.approx(np.pi / 2, abs=0)
    assert abs(reduction.side_c - np.pi / 2) < 1e-15
    assert reduction.solid_angle == np.pi / 2
    phase = phases.pancharatnam_phase(phases.TriangleParams(*CANONICAL)).value
    assert abs(abs(phase) - reduction.solid_angle / 2) < 1e-15


def test_two_level_sweep():
    rng = np.random.default_rng(8)
    for _ in range(40):
        params = phases.TriangleParams(
            rng.uniform(0.05, np.pi / 2 - 0.05),
            rng.uniform(0.05, np.pi / 2 - 0.05),
            np.pi / 2,
            rng.uniform(0.0, 2 * np.pi),
        )
        phase = phases.pancharatnam_phase(params).value
        a, b, c, solid = phases.solid_angle_reduction(params)
        target = (1 + np.cos(a) + np.cos(b) + np.cos(c)) / (
            4 * np.cos(a / 2) * np.cos(b / 2) * np.cos(c / 2)
        )
        assert abs(np.cos(phase) - target) < 1e-10
        assert abs(abs(phase) - 0.5 * solid) < 1e-9


def test_two_level_requires_equator():
    with pytest.raises(NotTwoLevel):
        phases.solid_angle_reduction(phases.TriangleParams(0.4, 0.4, 0.7, 0.3))


def test_spherical_excess_octant():
    assert phases.spherical_excess(np.pi / 2, np.pi / 2, np.pi / 2) == np.pi / 2
    assert phases.spherical_excess(1e-6, 1e-6, 1e-6) < 1e-11
