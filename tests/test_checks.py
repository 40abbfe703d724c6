"""The seeded sweeps behind the 'check' verb, called as a library."""

import pytest

from triphase import checks


def test_sweep_redraws_triangles_off_the_chart_edge():
    # the first triangle of this seed grazes |psi_3| = 0, where the chart
    # line integral is undefined; the sweep draws again from the same stream
    report = checks.run_all(seed=1352247602, trials=1)
    assert report["all_passed"] is True


def test_bounded_names_match_the_sweeps():
    report = checks.run_all(seed=0, trials=1)
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
