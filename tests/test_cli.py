"""End-to-end CLI runs through subprocess: output formats, exit codes,
byte determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from triphase import states, su3

PI_4 = repr(math.pi / 4)
PI_2 = repr(math.pi / 2)


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "triphase", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def write_state(path, psi):
    path.write_text(json.dumps(states.state_to_json(psi)))


def canonical_triangle_file(path):
    xi = math.pi / 4
    lifts = [
        np.array([0.0, 0.0, 1.0], dtype=complex),
        np.array([0.0, math.sin(xi), math.cos(xi)], dtype=complex),
        np.array([0.0, 1j * math.sin(xi), math.cos(xi)], dtype=complex),
    ]
    path.write_text(json.dumps([states.state_to_json(p) for p in lifts]))
    return lifts


def test_phase_triangle_canonical():
    proc = run_cli(
        "phase-triangle", "--xi", PI_4, "--eta", PI_4, "--zeta", PI_2, "--chi2", PI_2
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 5
    records = [json.loads(line) for line in lines]
    methods = [r["method"] for r in records[:4]]
    assert methods == ["closed-form", "bargmann", "n-vector", "line-integral"]
    for r in records[:4]:
        assert abs(r["phase"] + math.pi / 4) < 1e-5
        assert abs(r["params"]["xi"] - math.pi / 4) < 1e-15
    assert records[4]["max_discrepancy"] < 1e-5


def test_phase_triangle_zero():
    proc = run_cli("phase-triangle", "--xi", "0.4", "--eta", "0.9", "--zeta", "1.2", "--chi2", "0")
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.strip().split("\n")]
    assert records[0]["phase"] == 0.0
    for r in records[:4]:
        assert abs(r["phase"]) < 1e-6


def test_phase_triangle_deterministic():
    args = ("phase-triangle", "--xi", "0.8", "--eta", "0.6", "--zeta", "1.0", "--chi2", "2.5")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_phase_triangle_bad_angle():
    proc = run_cli("phase-triangle", "--xi", "2.0", "--eta", "0.3", "--zeta", "0.3", "--chi2", "0")
    assert proc.returncode == 2
    assert proc.stderr.strip()
    proc = run_cli("phase-triangle", "--xi", "abc", "--eta", "0.3", "--zeta", "0.3", "--chi2", "0")
    assert proc.returncode == 2


def test_phase_bargmann(tmp_path):
    path = tmp_path / "tri.json"
    canonical_triangle_file(path)
    proc = run_cli("phase-bargmann", str(path))
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["method"] == "bargmann"
    assert abs(record["phase"] + math.pi / 4) < 1e-12
    assert record["params"]["vertices"] == 3


def test_phase_bargmann_too_few(tmp_path):
    path = tmp_path / "two.json"
    psi = states.random_state(0)
    path.write_text(json.dumps([states.state_to_json(psi)] * 2))
    assert run_cli("phase-bargmann", str(path)).returncode == 2


def test_geodesic_canonical(tmp_path):
    s1, s2 = tmp_path / "a.json", tmp_path / "b.json"
    write_state(s1, np.array([0.0, 0.0, 1.0], dtype=complex))
    write_state(s2, np.array([0.0, math.sin(1.0), math.cos(1.0)], dtype=complex))
    proc = run_cli("geodesic", str(s1), str(s2), "--samples", "40")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "s,n1,n2,n3,n4,n5,n6,n7,n8"
    assert len(lines) == 42
    summary = json.loads(lines[-1].lstrip("# "))
    assert summary["planar"] is True
    assert summary["affine_rank"] == 2
    assert summary["span_rank"] == 3
    assert abs(summary["length"] - 1.0) < 1e-12
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
    # only n3, n6, n8 move; every sample stays on the locus
    assert np.abs(rows[:, [1, 2, 4, 5, 7]]).max() == 0.0
    ns = rows[:, 1:]
    assert np.abs(np.einsum("kr,kr->k", ns, ns) - 1.0).max() < 1e-12
    assert np.abs(su3.star(ns, ns) - ns).max() < 1e-10


def test_geodesic_identical_states(tmp_path):
    s1 = tmp_path / "a.json"
    write_state(s1, states.random_state(1))
    proc = run_cli("geodesic", str(s1), str(s1))
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 3
    assert json.loads(lines[-1].lstrip("# "))["degenerate"] is True


def test_geodesic_errors(tmp_path):
    s1, s2, bad = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "bad.json"
    write_state(s1, np.array([1.0, 0.0, 0.0], dtype=complex))
    write_state(s2, np.array([0.0, 1.0, 0.0], dtype=complex))
    bad.write_text("{not json")
    assert run_cli("geodesic", str(s1), str(s2)).returncode == 3
    assert run_cli("geodesic", str(s1), str(bad)).returncode == 4
    assert run_cli("geodesic", str(s1), str(tmp_path / "missing.json")).returncode == 4
    assert run_cli("geodesic", str(s1), str(s2), "--samples", "1").returncode == 2
    unnorm = tmp_path / "unnorm.json"
    unnorm.write_text(json.dumps({"re": [1.0, 1.0, 0.0], "im": [0.0, 0.0, 0.0]}))
    assert run_cli("geodesic", str(s1), str(unnorm)).returncode == 4


def test_nan_component_exits_4(tmp_path):
    nan_state = {"re": [float("nan"), 0.0, 1.0], "im": [0.0, 0.0, 0.0]}
    tri = tmp_path / "tri.json"
    lifts = canonical_triangle_file(tri)
    rest = [states.state_to_json(p) for p in lifts[1:]]
    tri.write_text(json.dumps([nan_state] + rest))
    proc = run_cli("phase-bargmann", str(tri))
    assert proc.returncode == 4
    assert proc.stdout == ""
    s1, bad = tmp_path / "a.json", tmp_path / "nan.json"
    write_state(s1, lifts[0])
    bad.write_text(json.dumps(nan_state))
    assert run_cli("geodesic", str(s1), str(bad)).returncode == 4


def test_evolve_canonical(tmp_path):
    path = tmp_path / "tri.json"
    canonical_triangle_file(path)
    proc = run_cli("evolve", str(path), "--step", "0.002")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    header = lines[0].split(",")
    assert header == (
        ["s"]
        + ["re1", "im1", "re2", "im2", "re3", "im3"]
        + [f"n{k}" for k in range(1, 9)]
        + ["phi_p", "phi_dyn"]
    )
    summary = json.loads(lines[-1].lstrip("# "))
    assert abs(summary["geometric_phase"] + math.pi / 4) < 1e-6
    assert summary["closure_defect"] < 1e-7
    assert abs(summary["dynamical_phase"]) < 1e-9
    first = [float(v) for v in lines[1].split(",")]
    assert len(first) == 17
    assert first[0] == 0.0


def test_evolve_errors(tmp_path):
    path = tmp_path / "tri.json"
    canonical_triangle_file(path)
    assert run_cli("evolve", str(path), "--step", "0").returncode == 2
    two = tmp_path / "two.json"
    two.write_text(json.dumps([states.state_to_json(states.random_state(0))] * 2))
    assert run_cli("evolve", str(two)).returncode == 4


def test_check_passes_and_deterministic():
    first = run_cli("check", "--seed", "3", "--trials", "5")
    second = run_cli("check", "--seed", "3", "--trials", "5")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    lines = first.stdout.strip().split("\n")
    summary = json.loads(lines[-1])
    assert summary["all_passed"] is True
    assert summary["seed"] == 3
    assert summary["checks"] == len(lines) - 1
    for line in lines[:-1]:
        record = json.loads(line)
        assert record["passed"] is True


def test_check_error_paths():
    assert run_cli("check", "--trials", "0").returncode == 2
    assert run_cli("check", "--trials", "2", "--tol", "nope=1").returncode == 2
    assert run_cli("check", "--trials", "2", "--tol", "algebra.tables").returncode == 2
    # an interval bound has no single tolerance to override
    interval = run_cli("check", "--trials", "1", "--tol", "evolution.convergence_order=1")
    assert interval.returncode == 2
    forced = run_cli("check", "--trials", "2", "--tol", "algebra.tables=1e-20")
    assert forced.returncode == 1
    records = [json.loads(line) for line in forced.stdout.strip().split("\n")]
    flagged = [r for r in records[:-1] if not r["passed"]]
    assert [r["check"] for r in flagged] == ["algebra.tables"]
    assert records[-1]["all_passed"] is False


def test_out_flag(tmp_path):
    out = tmp_path / "result.json"
    proc = run_cli(
        "phase-triangle", "--xi", "0.5", "--eta", "0.5", "--zeta", "0.5", "--chi2", "0.5",
        "--out", str(out),
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    direct = run_cli(
        "phase-triangle", "--xi", "0.5", "--eta", "0.5", "--zeta", "0.5", "--chi2", "0.5"
    )
    assert out.read_text() == direct.stdout


def test_seventeen_digit_roundtrip():
    proc = run_cli(
        "phase-triangle", "--xi", "0.7", "--eta", "1.1", "--zeta", "0.9", "--chi2", "4.0"
    )
    record = json.loads(proc.stdout.split("\n")[0])
    from triphase import phases

    exact = phases.pancharatnam_phase(phases.TriangleParams(0.7, 1.1, 0.9, 4.0)).value
    assert record["phase"] == exact


def test_work_budgets_exit_2_before_allocating(tmp_path, monkeypatch, capsys):
    from triphase import cli, evolution, geodesics

    def never(*args, **kwargs):
        raise AssertionError("work started before the budget was checked")

    monkeypatch.setattr(evolution, "_walk", never)
    monkeypatch.setattr(geodesics, "geodesic_between", never)
    tri, s1 = tmp_path / "tri.json", tmp_path / "a.json"
    lifts = canonical_triangle_file(tri)
    write_state(s1, lifts[0])
    for argv in (
        ["evolve", str(tri), "--step", "1e-12"],
        ["geodesic", str(s1), str(s1), "--samples", "1000000000000"],
    ):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "budget" in captured.err
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "budget" in proc.stderr and "Traceback" not in proc.stderr


def test_check_trials_budget(monkeypatch, capsys):
    from triphase import checks, cli

    swept = []

    def run_all(seed, trials, overrides):
        swept.append(trials)
        return {"results": [], "seed": seed, "trials": trials, "all_passed": True}

    monkeypatch.setattr(checks, "run_all", run_all)
    assert cli.main(["check", "--trials", str(cli.MAX_CHECK_TRIALS + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "budget" in captured.err
    assert swept == []
    assert cli.main(["check", "--trials", str(cli.MAX_CHECK_TRIALS)]) == 0
    assert swept == [cli.MAX_CHECK_TRIALS]
    proc = run_cli("check", "--trials", "1000000000")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "budget" in proc.stderr and "Traceback" not in proc.stderr


def test_check_rejects_negative_seed(monkeypatch, capsys):
    from triphase import checks, cli

    def never(**kwargs):
        raise AssertionError("a sweep ran before the seed was checked")

    monkeypatch.setattr(checks, "run_all", never)
    assert cli.main(["check", "--seed", "-1", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "seed" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_check_rejects_non_finite_tolerance(monkeypatch, capsys, value):
    from triphase import checks, cli

    def never(**kwargs):
        raise AssertionError("a sweep ran before the tolerance was checked")

    monkeypatch.setattr(checks, "run_all", never)
    assert cli.main(["check", "--trials", "1", "--tol", f"algebra.tables={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not finite" in captured.err


def test_csv_values_are_the_computed_doubles(tmp_path):
    from triphase import cli, evolution, geodesics

    tri, out = tmp_path / "tri.json", tmp_path / "out.csv"
    lifts = canonical_triangle_file(tri)
    assert cli.main(["evolve", str(tri), "--step", "0.01", "--out", str(out)]) == 0
    rows = out.read_text().split("\n")[1:-2]
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
    rhos = [states.density_of(states.state_from_json(obj))
            for obj in json.loads(tri.read_text())]
    trajectory, _, _ = evolution.evolve_triangle(*rhos, step=0.01)
    psi = trajectory.psi
    expected = [trajectory.s]
    for k in range(3):
        expected += [psi[:, k].real, psi[:, k].imag]
    expected += list(trajectory.n.T) + [trajectory.phi_p, trajectory.phi_dyn]
    assert np.array_equal(parsed, np.column_stack(expected))

    s1, s2 = tmp_path / "a.json", tmp_path / "b.json"
    write_state(s1, lifts[0])
    write_state(s2, lifts[1])
    assert cli.main(["geodesic", str(s1), str(s2), "--samples", "7", "--out", str(out)]) == 0
    parsed = np.array(
        [[float(v) for v in row.split(",")] for row in out.read_text().split("\n")[1:-2]]
    )
    curve = geodesics.geodesic_between(rhos[0], rhos[1])
    grid = np.linspace(0.0, curve.length, 7)
    assert np.array_equal(parsed, np.column_stack((grid, states.n_vectors_of(curve(grid)))))


@pytest.mark.parametrize("block", [1, 7])
def test_csv_blocks_do_not_change_bytes(tmp_path, monkeypatch, block):
    from triphase import cli

    tri, s1, s2 = tmp_path / "tri.json", tmp_path / "a.json", tmp_path / "b.json"
    lifts = canonical_triangle_file(tri)
    write_state(s1, lifts[0])
    write_state(s2, lifts[1])
    runs = (
        ["evolve", str(tri), "--step", "0.01"],
        ["geodesic", str(s1), str(s2), "--samples", "50"],
    )
    whole = []
    for k, argv in enumerate(runs):
        assert cli.main(argv + ["--out", str(tmp_path / f"whole{k}.csv")]) == 0
        whole.append((tmp_path / f"whole{k}.csv").read_bytes())
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block)
    for k, argv in enumerate(runs):
        assert cli.main(argv + ["--out", str(tmp_path / f"split{k}.csv")]) == 0
        assert (tmp_path / f"split{k}.csv").read_bytes() == whole[k]
