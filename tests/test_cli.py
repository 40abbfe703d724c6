"""End-to-end CLI runs: output formats, exit codes, byte determinism.

Most runs call cli.main in this process.  A subprocess runs
`python -m triphase` only where the process itself is under test: the
cross-run determinism tests, one case for each exit code 0-4, a closed
stdout, and the modules a fresh `import triphase.cli` loads.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphase import checks, cli, csvtext, evolution, geodesics, phases, states, su3

PI_4 = repr(math.pi / 4)
PI_2 = repr(math.pi / 2)


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "triphase", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


class Run(NamedTuple):
    """Exit code and output of one CLI run, named as subprocess names them."""

    returncode: int
    stdout: str
    stderr: str


def run_in_process(*args):
    """cli.main(args) in this process; argparse's SystemExit gives the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return Run(code, out.getvalue(), err.getvalue())


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
    proc = run_in_process(
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
    proc = run_in_process(
        "phase-triangle", "--xi", "0.4", "--eta", "0.9", "--zeta", "1.2", "--chi2", "0"
    )
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.strip().split("\n")]
    assert records[0]["phase"] == 0.0
    for r in records[:4]:
        assert abs(r["phase"]) < 1e-6


def test_phase_triangle_zero_prints_no_negative_zero(capsys):
    argv = ["phase-triangle", "--xi", "0.4", "--eta", "0.9", "--zeta", "1.2", "--chi2", "0"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")[:4]
    assert all('"phase":0,' in line for line in lines)


def test_phase_triangle_deterministic():
    args = ("phase-triangle", "--xi", "0.8", "--eta", "0.6", "--zeta", "1.0", "--chi2", "2.5")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_phase_triangle_bad_angle():
    proc = run_in_process(
        "phase-triangle", "--xi", "2.0", "--eta", "0.3", "--zeta", "0.3", "--chi2", "0"
    )
    assert proc.returncode == 2
    assert proc.stderr.strip()
    proc = run_in_process(
        "phase-triangle", "--xi", "abc", "--eta", "0.3", "--zeta", "0.3", "--chi2", "0"
    )
    assert proc.returncode == 2


def test_phase_triangle_chart_edge():
    # the side psi2 -> psi3 crosses psi_3 = 0 between its vertices: integrable
    proc = run_in_process(
        "phase-triangle", "--xi", "1.309972", "--eta", "1.372258", "--zeta", PI_2, "--chi2",
        repr(math.pi),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip().split("\n")[-1])["max_discrepancy"] < 1e-11
    # psi2 = (0, sin xi, cos xi) has |psi_3| = 1.96e-4, at the chart's edge
    proc = run_in_process(
        "phase-triangle", "--xi", "1.5706", "--eta", "1.0", "--zeta", "1.0", "--chi2", "1.0"
    )
    assert proc.returncode == 2
    assert "chart breaks down" in proc.stderr


def test_phase_triangle_near_coincident_vertices():
    # psi2 is 1e-3 from psi1, where 1 - c*c has too few digits for a tangent's norm
    proc = run_in_process(
        "phase-triangle", "--xi", "1e-3", "--eta", "1", "--zeta", "0.5", "--chi2", "1"
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip().split("\n")[-1])["max_discrepancy"] < 1e-12


def test_phase_bargmann(tmp_path):
    path = tmp_path / "tri.json"
    canonical_triangle_file(path)
    proc = run_in_process("phase-bargmann", str(path))
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["method"] == "bargmann"
    assert abs(record["phase"] + math.pi / 4) < 1e-12
    assert record["params"]["vertices"] == 3


def test_phase_bargmann_too_few(tmp_path):
    path = tmp_path / "two.json"
    psi = states.random_state(0)
    path.write_text(json.dumps([states.state_to_json(psi)] * 2))
    assert run_in_process("phase-bargmann", str(path)).returncode == 2


def test_geodesic_canonical(tmp_path):
    s1, s2 = tmp_path / "a.json", tmp_path / "b.json"
    write_state(s1, np.array([0.0, 0.0, 1.0], dtype=complex))
    write_state(s2, np.array([0.0, math.sin(1.0), math.cos(1.0)], dtype=complex))
    proc = run_in_process("geodesic", str(s1), str(s2), "--samples", "40")
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
    proc = run_in_process("geodesic", str(s1), str(s1))
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert len(lines) == 3
    assert json.loads(lines[-1].lstrip("# "))["degenerate"] is True


def test_geodesic_near_coincident_states(tmp_path):
    s1, s2 = tmp_path / "a.json", tmp_path / "b.json"
    write_state(s1, np.array([0.0, 0.0, 1.0], dtype=complex))
    write_state(s2, np.array([0.0, math.sin(1e-3), math.cos(1e-3)], dtype=complex))
    proc = run_in_process("geodesic", str(s1), str(s2), "--samples", "5")
    assert proc.returncode == 0
    summary = json.loads(proc.stdout.strip().split("\n")[-1].lstrip("# "))
    assert summary["degenerate"] is False
    assert abs(summary["length"] - 1e-3) < 1e-15


def test_geodesic_errors(tmp_path):
    s1, s2, bad = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "bad.json"
    write_state(s1, np.array([1.0, 0.0, 0.0], dtype=complex))
    write_state(s2, np.array([0.0, 1.0, 0.0], dtype=complex))
    bad.write_text("{not json")
    assert run_cli("geodesic", str(s1), str(s2)).returncode == 3
    assert run_in_process("geodesic", str(s1), str(bad)).returncode == 4
    assert run_in_process("geodesic", str(s1), str(tmp_path / "missing.json")).returncode == 4
    assert run_in_process("geodesic", str(s1), str(s2), "--samples", "1").returncode == 2
    unnorm = tmp_path / "unnorm.json"
    unnorm.write_text(json.dumps({"re": [1.0, 1.0, 0.0], "im": [0.0, 0.0, 0.0]}))
    assert run_in_process("geodesic", str(s1), str(unnorm)).returncode == 4
    # entries that are not JSON numbers, or too large for a double
    for entry in ('"1"', "true", "1" + "0" * 400):
        unnorm.write_text('{"re": [%s, 0, 0], "im": [0, 0, 0]}' % entry)
        assert run_in_process("geodesic", str(s1), str(unnorm)).returncode == 4


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
    assert run_in_process("geodesic", str(s1), str(bad)).returncode == 4


@pytest.mark.parametrize("verb", ["phase-bargmann", "evolve", "geodesic"])
@pytest.mark.parametrize(
    "content",
    [b"[" * 100000 + b"]" * 100000, b"\xff\xfe[1]", b"[" + b"1" * 5000 + b"]"],
    ids=["too-deep", "not-utf-8", "over-the-int-digit-limit"],
)
def test_undecodable_json_exits_4(tmp_path, verb, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    inputs = [bad]
    if verb == "geodesic":
        inputs.insert(0, tmp_path / "a.json")
        write_state(inputs[0], states.random_state(0))
    code, stdout, stderr = run_in_process(verb, *map(str, inputs))
    assert code == 4
    assert stdout == ""
    assert stderr.startswith(f"error: malformed JSON in {bad}: ")
    assert stderr.count("\n") == 1


def test_evolve_canonical(tmp_path):
    path = tmp_path / "tri.json"
    canonical_triangle_file(path)
    proc = run_in_process("evolve", str(path), "--step", "0.002")
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


def _pinned_triangles():
    # the canonical triangle, a Haar triangle, and one in the 2-3 subspace
    # whose first components are exact zeros, where a flipped signed zero prints -0
    canonical = phases.triangle_states(
        phases.TriangleParams(math.pi / 4, math.pi / 4, math.pi / 2, math.pi / 2)
    )
    xi = 0.3
    subspace = np.array(
        [[0.0, 0.0, 1.0], [0.0, math.sin(xi), math.cos(xi)], [0.0, 1j * math.sin(xi), math.cos(xi)]]
    )
    return {"canonical": canonical, "haar": states.random_states(11, 3), "subspace": subspace}


# sha256 of stdout and the exit code, taken before the real-arithmetic n-vectors and generators
PINNED_EVOLVE = {
    ("canonical", "1e-3"): (0, "9f63b19950197ebe573ff8f77a356296635288ece5b493135a76291f6f2ddaf4"),
    ("canonical", "5e-3"): (0, "446922df804425b865c6c629df7b2ade379af01c3989eb9149d2a252d4788238"),
    ("haar", "1e-3"): (0, "240a041de2c4ec51e621731f57b9af3a8ce7edfcc457b6ac9e5e8d68bedf5b06"),
    ("subspace", "1e-3"): (0, "5998df1cd740a7faba805d2b6986c3480e799507f340a9c07fa0d0a1c4210e65"),
}

PINNED_GEODESIC = {
    "distinct": (0, "b6228c49c6ff35a5025f66c01ae7ef5a35e8b514d65930c2e11f333c94db7141"),
    "identical": (0, "9b0c73e7df682b72b36e348c78410fe65fdb690da82f32cd572d13f4e5691c9d"),
}


def _digest(run):
    return run.returncode, hashlib.sha256(run.stdout.encode()).hexdigest()


def test_evolve_bytes_pinned(tmp_path):
    for name, psis in _pinned_triangles().items():
        (tmp_path / f"{name}.json").write_text(
            json.dumps([states.state_to_json(psi) for psi in psis])
        )
    for (name, step), pinned in PINNED_EVOLVE.items():
        run = run_in_process("evolve", str(tmp_path / f"{name}.json"), "--step", step)
        assert _digest(run) == pinned, (name, step)


def test_geodesic_bytes_pinned(tmp_path):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    write_state(a, states.random_state(3))
    write_state(b, states.random_state(4))
    write_state(c, states.random_state(1))
    runs = {"distinct": (a, b), "identical": (c, c)}
    for name, pinned in PINNED_GEODESIC.items():
        assert _digest(run_in_process("geodesic", *map(str, runs[name]))) == pinned, name


def test_evolve_errors(tmp_path):
    path = tmp_path / "tri.json"
    canonical_triangle_file(path)
    assert run_in_process("evolve", str(path), "--step", "0").returncode == 2
    two = tmp_path / "two.json"
    two.write_text(json.dumps([states.state_to_json(states.random_state(0))] * 2))
    assert run_in_process("evolve", str(two)).returncode == 4


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
    zero = run_in_process("check", "--trials", "0")
    assert zero.returncode == 2 and "trials = 0, need at least 1" in zero.stderr
    assert run_in_process("check", "--trials", "2", "--tol", "nope=1").returncode == 2
    assert run_in_process("check", "--trials", "2", "--tol", "algebra.tables").returncode == 2
    # an interval bound has no single tolerance to override
    interval = run_in_process("check", "--trials", "1", "--tol", "evolution.convergence_order=1")
    assert interval.returncode == 2
    forced = run_cli("check", "--trials", "2", "--tol", "algebra.tables=1e-20")
    assert forced.returncode == 1
    records = [json.loads(line) for line in forced.stdout.strip().split("\n")]
    flagged = [r for r in records[:-1] if not r["passed"]]
    assert [r["check"] for r in flagged] == ["algebra.tables"]
    assert records[-1]["all_passed"] is False


def test_out_flag(tmp_path):
    out = tmp_path / "result.json"
    proc = run_in_process(
        "phase-triangle", "--xi", "0.5", "--eta", "0.5", "--zeta", "0.5", "--chi2", "0.5",
        "--out", str(out),
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    direct = run_in_process(
        "phase-triangle", "--xi", "0.5", "--eta", "0.5", "--zeta", "0.5", "--chi2", "0.5"
    )
    assert out.read_text() == direct.stdout


def test_unwritable_out_exits_4(tmp_path):
    # --out is opened after the work, so the run computes and then exits 4
    out = tmp_path / "missing" / "result.json"
    code, stdout, stderr = run_in_process(
        "phase-triangle", "--xi", "0.5", "--eta", "0.5", "--zeta", "0.5", "--chi2", "0.5",
        "--out", str(out),
    )
    assert code == 4
    assert stdout == "" and not out.exists()
    assert stderr.startswith(f"error: cannot write {out}") and stderr.count("\n") == 1


def test_closed_stdout_exits_4(tmp_path):
    # a pipe whose reader is gone, as under `triphase evolve tri.json | head -2`
    path = tmp_path / "tri.json"
    canonical_triangle_file(path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "triphase", "evolve", str(path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert proc.stderr.startswith("error: cannot write stdout") and proc.stderr.count("\n") == 1


def test_seventeen_digit_roundtrip():
    proc = run_in_process(
        "phase-triangle", "--xi", "0.7", "--eta", "1.1", "--zeta", "0.9", "--chi2", "4.0"
    )
    record = json.loads(proc.stdout.split("\n")[0])
    exact = phases.pancharatnam_phase(phases.TriangleParams(0.7, 1.1, 0.9, 4.0)).value
    assert record["phase"] == exact


def test_work_budgets_exit_2_before_allocating(tmp_path, monkeypatch, capsys):
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
        proc = run_in_process(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "budget" in proc.stderr and "Traceback" not in proc.stderr


def test_check_trials_budget(monkeypatch, capsys):
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


@settings(max_examples=45, deadline=None, derandomize=True, database=None)
@given(verb=st.sampled_from(["geodesic", "evolve", "check"]), data=st.data())
def test_over_budget_exits_2_before_any_work(tmp_path_factory, verb, data):
    tmp = tmp_path_factory.mktemp("budget")
    tri, s1 = tmp / "tri.json", tmp / "a.json"
    lifts = canonical_triangle_file(tri)
    write_state(s1, lifts[0])
    if verb == "geodesic":
        samples = data.draw(st.integers(cli.MAX_GEODESIC_SAMPLES + 1, 10**30))
        argv = ["geodesic", str(s1), str(s1), "--samples", str(samples)]
    elif verb == "evolve":
        schedule = evolution.triangle_schedule(*(states.density_of(p) for p in lifts))
        # at least twice the budget's steps, down to the smallest subnormal step
        largest = schedule.total_duration / (2 * evolution.MAX_STEPS)
        step = data.draw(st.floats(0.0, largest, exclude_min=True))
        argv = ["evolve", str(tri), "--step", repr(step)]
    else:
        trials = data.draw(st.integers(cli.MAX_CHECK_TRIALS + 1, 10**30))
        argv = ["check", "--trials", str(trials)]

    def never(*args, **kwargs):
        raise AssertionError("work started before the budget was checked")

    with (
        mock.patch.object(evolution, "_walk", never),
        mock.patch.object(geodesics, "geodesic_between", never),
        mock.patch.object(checks, "run_all", never),
    ):
        code, stdout, stderr = run_in_process(*argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and "budget" in stderr


def test_check_rejects_negative_seed(monkeypatch, capsys):
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
    def never(**kwargs):
        raise AssertionError("a sweep ran before the tolerance was checked")

    monkeypatch.setattr(checks, "run_all", never)
    assert cli.main(["check", "--trials", "1", "--tol", f"algebra.tables={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not finite" in captured.err


def test_csv_values_are_the_computed_doubles(tmp_path):
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


@pytest.mark.parametrize("values", [9, 63])
def test_csv_blocks_do_not_change_bytes(tmp_path, monkeypatch, values):
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
    monkeypatch.setattr(csvtext, "PASS_VALUES", values)
    for k, argv in enumerate(runs):
        assert cli.main(argv + ["--out", str(tmp_path / f"split{k}.csv")]) == 0
        assert (tmp_path / f"split{k}.csv").read_bytes() == whole[k]


def test_geodesic_across_blocks_matches_row_template(tmp_path):
    # 20000 rows of 9 values span more than four writer passes
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "out.csv"
    psi1, psi2 = states.random_state(3), states.random_state(4)
    write_state(a, psi1)
    write_state(b, psi2)
    assert cli.main(["geodesic", str(a), str(b), "--samples", "20000", "--out", str(out)]) == 0
    assert 20000 * 9 > 4 * csvtext.PASS_VALUES
    curve = geodesics.geodesic_between(states.density_of(psi1), states.density_of(psi2))
    grid = np.linspace(0.0, curve.length, 20000)
    table = np.column_stack((grid, states.n_vectors_of(curve(grid))))
    template = ",".join(["%.17g"] * table.shape[1])
    text = out.read_text()
    tail = text[text.rindex("\n#") + 1 :]
    header = "s," + ",".join(f"n{k}" for k in range(1, 9)) + "\n"
    rows = "".join(template % tuple(row) + "\n" for row in table.tolist())
    assert text == header + rows + tail


def test_parser_built_once_and_handler_looked_up_per_call(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.tol) or 0)
    assert cli.main(["check", "--tol", "algebra.tables=1"]) == 0
    # the appended override does not leak into the shared default list
    assert cli.main(["check"]) == 0
    assert seen == [["algebra.tables=1"], []]


def test_cli_import_leaves_checks_and_csvtext_for_their_verbs(tmp_path):
    script = (
        "import sys\n"
        "from triphase import cli\n"
        "assert 'triphase.checks' not in sys.modules\n"
        "assert 'triphase.csvtext' not in sys.modules\n"
        f"sys.exit(cli.main(['check', '--trials', '1', '--out', {str(tmp_path / 'c')!r}]))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "c").read_text().split("\n")[-2])["all_passed"] is True


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    verb=st.sampled_from(["phase-bargmann", "geodesic", "evolve"]),
    vertex=st.integers(0, 2),
    part=st.sampled_from(["re", "im"]),
    component=st.integers(0, 2),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_non_finite_state_component_exits_4(
    tmp_path_factory, verb, vertex, part, component, value
):
    tmp = tmp_path_factory.mktemp("non_finite")
    psis = checks._nonorthogonal_states(np.random.default_rng(5))
    objs = [states.state_to_json(p) for p in psis]
    if verb == "geodesic":
        objs, vertex = objs[:2], vertex % 2
    objs[vertex][part][component] = value
    if verb == "geodesic":
        inputs = [tmp / "a.json", tmp / "b.json"]
        for path, obj in zip(inputs, objs):
            path.write_text(json.dumps(obj))
    else:
        inputs = [tmp / "states.json"]
        inputs[0].write_text(json.dumps(objs))
    out = tmp / "out.txt"
    code, stdout, stderr = run_in_process(verb, *map(str, inputs), "--out", str(out))
    assert code == 4
    assert stdout == "" and not out.exists()
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_BOUNDED = sorted(checks.BOUNDED_CHECKS)
_REJECTED_OVERRIDE = st.one_of(
    st.tuples(
        st.text(min_size=1).filter(lambda name: "=" not in name and name not in _BOUNDED),
        _FINITE,
    ),
    st.tuples(st.just("evolution.convergence_order"), _FINITE),
    st.tuples(
        st.sampled_from(_BOUNDED),
        st.sampled_from(["nan", "NaN", "-nan", "inf", "+inf", "-inf", "Infinity"]),
    ),
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    accepted=st.lists(st.tuples(st.sampled_from(_BOUNDED), _FINITE), max_size=3),
    rejected=_REJECTED_OVERRIDE,
    position=st.integers(0, 3),
)
def test_rejected_tol_exits_2_before_any_sweep(accepted, rejected, position):
    overrides = list(accepted)
    overrides.insert(position, rejected)
    argv = ["check", "--trials", "1"] + [f"--tol={name}={value}" for name, value in overrides]

    def never(**kwargs):
        raise AssertionError("a sweep ran before the overrides were checked")

    with mock.patch.object(checks, "run_all", never):
        code, stdout, stderr = run_in_process(*argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
