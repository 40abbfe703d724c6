"""The seeded sweeps behind the 'check' verb, called as a library."""

import numpy as np
import pytest

from triphase import checks, su3


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
