"""The seeded sweeps behind the 'check' verb, called as a library."""

from triphase import checks


def test_sweep_redraws_triangles_off_the_chart_edge():
    # the first triangle of this seed grazes |psi_3| = 0, where the chart
    # line integral is undefined; the sweep draws again from the same stream
    report = checks.run_all(seed=1352247602, trials=1)
    assert report["all_passed"] is True
