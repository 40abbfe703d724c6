"""The seeded sweeps behind the 'check' verb, called as a library."""

import hashlib

import numpy as np
import pytest

from triphase import checks, cli, evolution, geodesics, phases, states, su3
from triphase.errors import ChartSingular, OutOfRange

# stdout sha256 and exit code of whole 'check' runs; a change to how the
# sweeps are written must leave every byte of the report as it is
PINNED_REPORTS = {
    ("--seed", "3", "--trials", "5"): (
        0, "ae5c506b22ce139740e4c5f65e614be2b48a1387ffc7c0c6e04a9eb459649419"
    ),
    ("--trials", "2", "--tol", "algebra.tables=1e-20"): (
        1, "362dcfbef922eb2218caa8e317d90ef7d08c1bb1076bc6a5a1e6d33a01530f62"
    ),
    # the first triangle of this seed passes near psi_3 = 0 inside a side;
    # its vertices stay off the chart's edge, so the sweep keeps it
    ("--seed", "1352247602", "--trials", "1"): (
        0, "a18d5e2da8f85b49a1df17186a7a78515de936b38f59d8866edb6731c4ba38f2"
    ),
}


def test_sweep_redraws_triangles_off_the_chart_edge(monkeypatch):
    # a triangle the chart line integral rejects is drawn again from the
    # same stream, and every oracle of the trial measures the new draw
    seen, original = [], phases.triangle_line_integral_phase

    def singular_first(*rhos):
        seen.append(rhos)
        if len(seen) == 1:
            raise ChartSingular("injected")
        return original(*rhos)

    monkeypatch.setattr(phases, "triangle_line_integral_phase", singular_first)
    # line_integral_agreement compares the second draw's line integral with
    # the closed form of the triangle the trial went on with
    assert all(r.passed for r in checks.check_triangle_oracles(5, 1))
    stream = checks._rng(5, 0)
    draws = [checks._nonorthogonal_states(stream) for _ in range(2)]
    assert len(seen) == 2
    for rhos, psis in zip(seen, draws):
        assert all(np.array_equal(r, states.density_of(p)) for r, p in zip(rhos, psis))


def test_bounded_names_match_the_sweeps():
    report = checks.run_all(seed=0, trials=1)
    assert [r.name for r in report["results"]] == list(checks.BOUNDS)
    assert [r.tolerance for r in report["results"]] == list(checks.BOUNDS.values())
    bounded = {
        r.name for r in report["results"] if not isinstance(r.tolerance, tuple)
    }
    assert bounded == checks.BOUNDED_CHECKS


def test_bad_override_rejected_before_any_sweep(monkeypatch):
    def never(seed, trials):
        raise AssertionError("a sweep ran before the overrides were validated")

    monkeypatch.setattr(checks, "ALL_CHECKS", (never,) * len(checks.ALL_CHECKS))
    for name in ("nope", "evolution.convergence_order"):
        with pytest.raises(KeyError):
            checks.run_all(overrides={name: 1})


def test_zero_trials_rejected_before_any_sweep(monkeypatch):
    def never(seed, trials):
        raise AssertionError("a sweep ran before the trial count was validated")

    monkeypatch.setattr(checks, "ALL_CHECKS", (never,) * len(checks.ALL_CHECKS))
    for trials in (0, -3):
        with pytest.raises(OutOfRange, match=rf"trials = {trials}, need at least 1"):
            checks.run_all(seed=0, trials=trials)


def test_algebra_tables_match_the_pairwise_loop():
    # the 64 pairs one at a time, as the broadcast products replace them
    worst = 0.0
    for r in range(8):
        for s in range(8):
            rs, sr = su3.LAMBDA[r] @ su3.LAMBDA[s], su3.LAMBDA[s] @ su3.LAMBDA[r]
            recon_f = 2j * np.einsum("t,tij->ij", su3.F[r, s], su3.LAMBDA)
            recon_d = (4.0 / 3.0) * (r == s) * np.eye(3) + 2.0 * np.einsum(
                "t,tij->ij", su3.D[r, s], su3.LAMBDA
            )
            worst = max(worst, np.abs(rs - sr - recon_f).max(), np.abs(rs + sr - recon_d).max())
    tables = checks.check_algebra_tables(0, 1)[0]
    assert tables.name == "algebra.tables"
    assert tables.value == worst


def test_check_report_bytes_pinned(capsys):
    for argv, (code, digest) in PINNED_REPORTS.items():
        assert cli.main(["check", *argv]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_nan_measurement_fails_its_check(monkeypatch):
    # trial 1 of the two-level sweep measures a NaN solid angle; a running
    # max(worst, nan) would keep worst and pass the check
    calls = []
    original = phases.solid_angle_reduction

    def nan_on_second_trial(params):
        a, b, c, solid = original(params)
        calls.append(params)
        return a, b, c, np.nan if len(calls) == 2 else solid

    monkeypatch.setattr(phases, "solid_angle_reduction", nan_on_second_trial)
    cosine, half = checks.check_two_level(800, 3)
    assert len(calls) == 3
    assert half.name == "phases.two_level_solid_angle"
    assert np.isnan(half.value) and half.passed is False
    assert cosine.passed is True


def test_planarity_failure_fails_its_check(monkeypatch):
    # trial 1 of three reports an image curve of affine rank 3; the check
    # reads the worst trial's 0/1, and the other geodesic checks still pass
    calls, original = [], geodesics.planarity_test

    def rank_3_on_second_trial(ns):
        calls.append(ns)
        planar, affine_rank = original(ns)
        return (False, 3) if len(calls) == 2 else (planar, affine_rank)

    monkeypatch.setattr(geodesics, "planarity_test", rank_3_on_second_trial)
    results = {r.name: r for r in checks.check_geodesics(600, 3)}
    assert len(calls) == 3
    failures = results.pop("geodesics.planarity_failures")
    assert failures.value == 1.0 and failures.passed is False and failures.trials == 3
    assert all(r.passed for r in results.values())


def test_nan_fails_every_kind_of_bound():
    for name in ("algebra.tables", "states.antipode_excluded", "evolution.convergence_order"):
        assert checks._result(name, np.nan).passed is False


def test_every_sweep_is_the_module_attribute_of_its_name():
    # perfbench's tracer swaps each sweep for the wrapped module attribute of its __name__
    names = [check.__name__ for check in checks.ALL_CHECKS]
    assert len(set(names)) == len(names)
    for check in checks.ALL_CHECKS:
        assert getattr(checks, check.__name__) is check


def _entry_moved(table, index, delta):
    moved = table.copy()
    moved[index] += delta
    return moved


def _scaled(function, factor):
    return lambda *args: function(*args) * factor


# deliberate faults, each a module attribute and the change made to it;
# every one must fail at least one check of run_all(0, 5)
MUTATIONS = {
    "f_entry": (su3, "F", lambda f: _entry_moved(f, (0, 1, 2), 1e-9)),
    "d_entry": (su3, "D", lambda d: _entry_moved(d, (0, 0, 7), 1e-9)),
    "gauss_weights": (phases, "_WEIGHTS", lambda w: w * (1 + 1e-9)),
    "gauss_nodes": (phases, "_NODES", lambda x: x * (1 + 1e-9)),
    "rk4_increment": (evolution, "_rk4_increment", lambda f: _scaled(f, 1 + 1e-6)),
    # the two-level route's solid angle, which check_two_level judges
    "two_level_excess": (phases, "spherical_excess", lambda f: _scaled(f, 1 + 1e-6)),
    # psi_1 enters unconjugated, so the first factor is psi_1^T psi_2
    "bargmann_conjugate": (
        phases, "bargmann_phase", lambda f: lambda psis: f([np.conj(psis[0]), *psis[1:]])
    ),
}


def test_mutation_seed_passes_unmutated():
    assert checks.run_all(0, 5)["all_passed"] is True


@pytest.mark.parametrize("fault", MUTATIONS)
def test_every_mutation_fails_a_check(monkeypatch, fault):
    module, attr, mutate = MUTATIONS[fault]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    assert checks.run_all(0, 5)["all_passed"] is False
