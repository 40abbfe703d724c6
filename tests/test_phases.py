"""Phase oracles: closed form, Bargmann product, eight-vector formula,
chart line integral.  The sweeps here drive every pair of oracles
against each other; the frozen values pin the canonical triangle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triphase import checks, phases, states, su3
from triphase.errors import (
    ChartSingular,
    DegenerateTriangle,
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


# float.hex of canonicalize_triangle's (xi, eta, zeta, chi2) for the Haar triangles
# checks._nonorthogonal_states(default_rng([PINNED_SEED, k])); PINNED_SEED is below
PINNED_PARAMS = {
    0: ("0x1.3cfdee9f4a83dp-1", "0x1.655b8d7c8670ap-1", "0x1.22a90f0da7ef1p-2", "0x1.ac93d25370e0fp+1"),
    1: ("0x1.a6adb2e5a765cp-1", "0x1.695e65195611cp-1", "0x1.232458fa1c31bp-1", "0x1.10d45b79c4c56p+1"),
    2: ("0x1.bbea6f9f05a9ep-1", "0x1.f17e37dac6955p-2", "0x1.03aec827728d7p+0", "0x1.17b953dcd1758p+2"),
    3: ("0x1.104923efe3dc8p+0", "0x1.afc94e8bfe404p-2", "0x1.09deba6a5274fp+0", "0x1.bdf742472fc96p-1"),
    4: ("0x1.2fdb9480005a5p-2", "0x1.7d36fb3bdc0f5p-1", "0x1.3c136b4b47ca8p-2", "0x1.22636498d369ap+2"),
}


def test_canonicalize_pinned_doubles():
    for k, pinned in PINNED_PARAMS.items():
        psis = checks._nonorthogonal_states(np.random.default_rng([PINNED_SEED, k]))
        params = phases.canonicalize_triangle(*(states.density_of(p) for p in psis))
        assert tuple(v.hex() for v in (params.xi, params.eta, params.zeta, params.chi2)) == pinned


def test_canonicalize_zero_phase_triangles_fold_chi2_into_range():
    # real vertices, each rephased: the phase is 0 or pi, so w sits on the real
    # axis and a tiny negative arg w used to fold chi2 to exactly 2 pi
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((2000, 3, 3))
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    psis = vecs * np.exp(1j * rng.uniform(0, 2 * np.pi, (2000, 3)))[..., None]
    folded = 0
    for triangle in psis:
        params = phases.canonicalize_triangle(*(states.density_of(p) for p in triangle))
        assert 0.0 <= params.chi2 < 2 * np.pi
        folded += params.chi2 == 0.0
        closed = phases.pancharatnam_phase(params).value
        assert phases.phase_distance(closed, phases.bargmann_phase(triangle).value) < 1e-9
    assert folded > 0


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    angle=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-(10**6), 10**6).map(lambda k: k * np.pi),
        st.sampled_from([-np.pi, np.pi, -0.0, np.nextafter(-np.pi, 0.0), 3 * np.pi]),
    )
)
def test_principal_branch_lies_in_half_open_interval(angle):
    value = phases.principal_branch(angle)
    assert -np.pi < value <= np.pi
    assert not np.signbit(value) or value < 0.0  # zero is unsigned
    # the same point on the circle
    assert abs(np.sin(value) - np.sin(angle)) < 1e-12
    assert abs(np.cos(value) - np.cos(angle)) < 1e-12


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
        assert phases.phase_distance(line, closed) < 1e-11


def test_triangle_line_integral_through_chart_edge_midpoint():
    # the side psi2 -> psi3 crosses psi_3 = 0 exactly at its midpoint, where
    # arg psi_3 jumps by pi: the innermost panel carries the jump, no node does
    params = phases.TriangleParams(1.2, 1.2, np.pi / 2, np.pi)
    rhos = [states.density_of(p) for p in phases.triangle_states(params)]
    line = phases.triangle_line_integral_phase(*rhos).value
    closed = phases.pancharatnam_phase(params).value
    assert phases.phase_distance(line, closed) < 1e-12


def test_triangle_line_integral_near_chart_edge_crossing():
    # the side psi2 -> psi3 passes |psi_3| of order t from zero near its
    # midpoint; nodes evaluated from the side's start would cancel
    # catastrophically there
    for zeta in (np.pi / 2, np.pi / 2 - 1e-7):
        for t in (1e-3, 1e-4, 1e-6, -1e-6, 1e-8, 1e-10, -1e-10, 1e-12, 1e-14, 0.0):
            params = phases.TriangleParams(1.2, 1.2, zeta, np.pi + t)
            rhos = [states.density_of(p) for p in phases.triangle_states(params)]
            line = phases.triangle_line_integral_phase(*rhos).value
            closed = phases.pancharatnam_phase(params).value
            assert phases.phase_distance(line, closed) < 1e-13, (zeta, t)


def _unit(z):
    return z / np.linalg.norm(z)


def _triangle_with_side_through(rng, closest, near_vertex=False):
    """A triangle whose side psi1 -> psi2 runs along m cos s + t sin s over
    [lo, hi] around s = 0, where |psi_3| = closest, and whose third vertex is
    Haar; every phase is complex.  near_vertex puts psi1 just past |psi_3| =
    2e-4.  None when a vertex falls at or below 2e-4 or a pair is too close
    to orthogonal."""
    m = states.random_state(rng)
    third = closest * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    m = np.array([*_unit(m[:2]) * np.sqrt(1.0 - closest**2), third])
    t = states.random_state(rng)
    t = _unit(t - m * np.vdot(m, t))
    if near_vertex:
        lo = -2e-4 * rng.uniform(1.01, 1.5) / abs(t[2])
    else:
        lo = -rng.uniform(0.05, 0.7)
    psis = np.array([m * np.cos(s) + t * np.sin(s) for s in (lo, rng.uniform(0.05, 0.7))])
    psis = np.array([*psis, states.random_state(rng)])
    pairs = zip(psis, np.roll(psis, -1, axis=0))
    if abs(psis[:, 2]).min() <= 2e-4 or min(abs(np.vdot(a, b)) ** 2 for a, b in pairs) <= 1e-3:
        return None
    return psis


def _line_integral_error(psis):
    line = phases.triangle_line_integral_phase(*(states.density_of(p) for p in psis)).value
    return phases.phase_distance(line, phases.bargmann_phase(list(psis)).value)


def test_triangle_line_integral_exact_crossing_with_complex_phases():
    # a side through an interior point with psi_3 = 0: arg psi_3 turns by pi
    # there, and both chi_k must take that turn as the same +pi or -pi, or
    # the phase is wrong by up to pi
    rng = np.random.default_rng(20261019)
    done = 0
    while done < 300:
        psis = _triangle_with_side_through(rng, 0.0)
        if psis is not None:
            done += 1
            assert _line_integral_error(psis) < 1e-11


def test_triangle_line_integral_near_chart_edge_inside_sides():
    # only the vertices are guarded: a side may pass within 0 to 1e-4 of
    # psi_3 = 0 anywhere inside it, also just past a vertex at about 2e-4
    rng = np.random.default_rng(20261020)
    done = 0
    while done < 300:
        closest = 0.0 if done % 3 == 0 else 10.0 ** rng.uniform(-16.0, -4.0)
        psis = _triangle_with_side_through(rng, closest, near_vertex=done % 2 == 1)
        if psis is not None:
            done += 1
            assert _line_integral_error(psis) < 1e-11


def test_triangle_line_integral_vertex_guard_boundary():
    rng = np.random.default_rng(20261021)
    psis = checks._nonorthogonal_states(rng)
    for scale, accepted in ((1.01, True), (0.99, False)):
        third = scale * 2e-4
        psis[0] = [*_unit(psis[0, :2]) * np.sqrt(1.0 - third**2), third * np.exp(0.7j)]
        if accepted:
            assert _line_integral_error(psis) < 1e-11
        else:
            with pytest.raises(ChartSingular):
                _line_integral_error(psis)


def test_triangle_line_integral_coincident_vertices():
    # the side psi1 -> psi1 has length 0 and no panels; its completing
    # tangent (1, 0, 0) has no third component to divide by
    psi, other = np.array([0.0, 0.6, 0.8]), np.array([0.3, 0.4j, np.sqrt(0.75)])
    rhos = [states.density_of(p) for p in (psi, psi, other)]
    assert abs(phases.triangle_line_integral_phase(*rhos).value) < 1e-15


def test_triangle_line_integral_singular():
    # a vertex with vanishing third component leaves the chart; the guard
    # raises before the rule divides by |psi_3| (a warning fails the suite)
    singular = [
        states.density_of(np.array([1.0, 0, 0], dtype=complex)),
        states.density_of(np.array([np.cos(0.4), np.sin(0.4), 0], dtype=complex)),
        states.density_of(np.array([0.5, 0.5, 1 / np.sqrt(2)], dtype=complex)),
    ]
    with pytest.raises(ChartSingular):
        phases.triangle_line_integral_phase(*singular)


# float.hex of triangle_line_integral_phase: the canonical phase-triangle inputs
PINNED_CANONICAL = {
    CANONICAL: "-0x1.921fb54442d16p-1",
    (0.4, 0.9, 1.2, 0.0): "0x0.0p+0",
    (1.2, 1.2, np.pi / 2, np.pi): "-0x1.921fb54442d17p+1",
}
# and checks._nonorthogonal_states(default_rng([PINNED_SEED, k])) for each key k;
# the last five come within |psi_3| < 0.012 of the chart's edge
PINNED_SEED = 20261018
PINNED_HAAR = {
    0: "0x1.5056261915842p-5",
    1: "-0x1.0a43c214dfbfcp-1",
    2: "0x1.1681853880089p-1",
    3: "-0x1.68a081730f8b3p-2",
    4: "0x1.5d9c643214d38p-4",
    5: "0x1.1c1718bf33a90p-2",
    6: "0x1.ea80c8c395188p-1",
    7: "0x1.48993e877a200p-4",
    8: "0x1.ed008c8c198c3p-2",
    9: "0x1.32942cfb71070p-2",
    10: "-0x1.4883a2101af58p-1",
    11: "-0x1.8b471f1832242p-3",
    12: "-0x1.5db68ed5d13f4p-1",
    13: "-0x1.0372fac3c1504p+1",
    14: "0x1.147780f14847fp-4",
    16: "0x1.4e1a76f54bc7bp-1",
    49: "0x1.a3d5fd062c297p-3",
    83: "-0x1.7c4833dbde922p+0",
    85: "-0x1.05b2f949f0e4ap+1",
    103: "0x1.5cebad403cda2p+1",
}


def test_triangle_line_integral_pinned_doubles():
    for params, pinned in PINNED_CANONICAL.items():
        lifts = phases.triangle_states(phases.TriangleParams(*params))
        rhos = [states.density_of(p) for p in lifts]
        assert phases.triangle_line_integral_phase(*rhos).value.hex() == pinned
    for k, pinned in PINNED_HAAR.items():
        psis = checks._nonorthogonal_states(np.random.default_rng([PINNED_SEED, k]))
        rhos = [states.density_of(p) for p in psis]
        assert phases.triangle_line_integral_phase(*rhos).value.hex() == pinned


def test_triangle_line_integral_chart_edge_seed_integrates():
    # the first draw of check --seed 1352247602 passes near psi_3 = 0 inside
    # a side, away from its vertices, and integrates to the closed form
    psis = checks._nonorthogonal_states(checks._rng(1352247602, 0))
    rhos = [states.density_of(p) for p in psis]
    line = phases.triangle_line_integral_phase(*rhos).value
    closed = phases.pancharatnam_phase(phases.canonicalize_triangle(*rhos)).value
    assert phases.phase_distance(line, closed) < 1e-11


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
    assert max(phases.phase_distance(v, values[0]) for v in values) < 1e-10


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
