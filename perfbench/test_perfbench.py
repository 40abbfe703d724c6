"""Tests of the benchmark itself; run with  python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_through_entry_point(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def wrong_phase(phases):
    def bargmann_phase(psis):
        return phases.PhaseResult(0.5, "bargmann")

    return bargmann_phase


def raising_phase(phases):
    def bargmann_phase(psis):
        raise phases.OrthogonalConsecutive("injected")

    return bargmann_phase


@pytest.mark.parametrize("inject", [wrong_phase, raising_phase])
def test_wrong_result_counts_as_failed(inject, monkeypatch, capsys):
    run._import_workloads()
    from triphase import phases

    monkeypatch.setattr(phases, "bargmann_phase", inject(phases))
    assert run.main(["--workload", "oracles", "--seed", "1", "--seconds", "0.2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert report["metrics"]["failed_frac"]["value"] == 1.0


def test_trace_counts_repeat_and_oracles_take_no_steps(capsys):
    counts = []
    for _ in range(2):
        run.main(["--workload", "oracles", "--seed", "2", "--seconds", "0.2", "--trace", "1"])
        result = last_json(capsys.readouterr().out)
        assert result["correct"] is True
        counts.append({
            name: m["value"] for name, m in result["metrics"].items()
            if name.endswith((".calls", ".steps", ".samples"))
        })
    assert counts[0] == counts[1]
    assert counts[0]["evolution.integrate_state.steps"] == 0
    assert counts[0]["evolution.integrate_nvector.steps"] == 0
    assert counts[0]["geodesics.polygon_lift.samples"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / ".perfbench_run").exists()


def test_check_seed_screen_replays_the_sweep():
    workloads = run._import_workloads()
    from triphase import checks

    for seed in (0, 7, 1352247602):
        expected = checks._nonorthogonal_triangle(checks._rng(seed, 0))
        assert (workloads.sweep_triangle(seed) == expected).all()
    edge = workloads.sweep_triangle(1352247602)[None]
    assert workloads.chart_closest(edge)[0] <= workloads.CHART_LIMIT
