"""Benchmark of the triphase library and CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload oracles --seed 1 --seconds 30 --trace 0

Each invocation runs one workload in this single-threaded process, from
inputs generated from --seed, and prints as its last stdout line one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured for --seconds
with tracing off and scaled to a reference host speed (hostspeed.py); with
--trace 1 they are the per-layer ones, from a fixed
number of items run once untraced and once traced.  A fuller report,
including metrics that are not bounded, goes to the line before.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# Single-threaded BLAS, set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_SAMPLES = 5
PROBE_INTERVAL_S = 0.05
# Items per --seconds in a traced run, sized so that each of its two passes
# takes about half the run; fixed so that counts repeat for a seed.
TRACE_ITEMS_PER_SECOND = {"oracles": 110.0, "evolve": 2.0, "transport": 4.0, "check": 3.3}


def _require_source():
    if not (SRC / "triphase" / "__init__.py").is_file():
        raise SystemExit(f"error: no triphase package under {SRC}")


def _import_workloads():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import triphase
    import workloads

    if Path(triphase.__file__).resolve().parent != SRC / "triphase":
        raise SystemExit(f"error: imported triphase from {triphase.__file__}, not {SRC}")
    return workloads


def sample_setup(args, workdir):
    """Set up SETUP_SAMPLES times; return (median scaled s, raw samples, workload).

    A sample imports triphase and the workload module afresh, dropping the
    copies an earlier sample loaded, and builds the seeded inputs, between two
    host-speed probes.  numpy and other third-party modules stay loaded, as
    the benchmark loads numpy itself, and so do modules the caller had loaded.
    The workload built by the last sample is the one measured.
    """
    import hostspeed

    kept = set(sys.modules)
    scaled, raw = [], []
    for k in range(SETUP_SAMPLES):
        for name in [n for n in sys.modules if n not in kept and (
                n == "workloads" or n.split(".")[0] == "triphase")]:
            del sys.modules[name]
        sample_dir = workdir / f"setup-{k}"
        sample_dir.mkdir()
        before = hostspeed.probe()
        start = time.perf_counter()
        workload = _import_workloads().WORKLOADS[args.workload](args.seed, args.seconds, sample_dir)
        elapsed = time.perf_counter() - start
        after = hostspeed.probe()
        raw.append(elapsed)
        scaled.append(elapsed * 2.0 * hostspeed.REFERENCE_S / (before + after))
    return statistics.median(scaled), raw, workload


def run_items(workload, first, count=None, seconds=None, host=None):
    """Run items from index first on, for count items or for seconds.

    Returns per-item latencies, pass flags, the digest of all outputs and
    per-item host-speed scale factors.  With host (the hostspeed module) a
    probe runs before the first item and after every item that ends at least
    PROBE_INTERVAL_S after the last probe; an item's factor is REFERENCE_S
    over the mean of the probes on either side of it.  Without host every
    factor is 1.  An item fails by raising or by failing its gate; it never
    stops the run.
    """
    latencies, passed, probes, probe_before = [], [], [], []
    digest = hashlib.sha256()
    clock = time.perf_counter
    if host:
        probes.append(host.probe())
        last_probe = clock()
    start = clock()
    index, reported = first, False
    while (index - first < count) if count is not None else (clock() - start < seconds):
        item = workload.item(index)
        began, elapsed = clock(), None
        try:
            out = workload.call(item)
            elapsed = clock() - began
            ok, item_digest = workload.verify(item, out)
        except Exception:
            if elapsed is None:
                elapsed = clock() - began
            if not reported:
                traceback.print_exc()
                reported = True
            ok, item_digest = False, b"raised"
        latencies.append(elapsed)
        passed.append(bool(ok))
        digest.update(item_digest)
        index += 1
        probe_before.append(len(probes) - 1)
        if host and clock() - last_probe >= PROBE_INTERVAL_S:
            probes.append(host.probe())
            last_probe = clock()
    if not host:
        return latencies, passed, digest.hexdigest(), [1.0] * len(latencies)
    probes.append(host.probe())
    scale = [2.0 * host.REFERENCE_S / (probes[k] + probes[k + 1]) for k in probe_before]
    return latencies, passed, digest.hexdigest(), scale


def _percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment():
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def _timing(prefix, latencies, passed):
    ok_lat = [lat for lat, ok in zip(latencies, passed) if ok]
    return {
        f"{prefix}throughput_per_s": (len(ok_lat) / sum(latencies), "1/s"),
        f"{prefix}latency_ms_p50": (_percentile(ok_lat, 50) * 1e3, "ms"),
        f"{prefix}latency_ms_p90": (_percentile(ok_lat, 90) * 1e3, "ms"),
        f"{prefix}latency_ms_p99": (_percentile(ok_lat, 99) * 1e3, "ms"),
    }


def measure(args, workdir):
    import hostspeed

    setup_s, raw_setup, workload = sample_setup(args, workdir)
    run_items(workload, 0, count=workload.warmup)
    raw, passed, _, scale = run_items(
        workload, workload.warmup, seconds=args.seconds, host=hostspeed
    )
    scaled = _timing("", [lat * f for lat, f in zip(raw, scale)], passed)
    attempted, succeeded = len(passed), sum(passed)
    metrics = {"setup_s": (setup_s, "s"), **scaled}
    # Reported, not bounded: p99 sits among the few dozen inputs nearest the
    # chart's edge and peak memory is set by the single nearest one, so both
    # move with the seed; p90 moves with the host's state by more than any
    # bound allows, even after scaling.
    extra = {
        "latency_ms_p90": metrics.pop("latency_ms_p90"),
        "latency_ms_p99": metrics.pop("latency_ms_p99"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (1.0 - succeeded / attempted, "ratio"),
        "latency_samples": (succeeded, "count"),
        "host_scale_median": (statistics.median(scale), "ratio"),
        "raw_setup_s": (statistics.median(raw_setup), "s"),
        **_timing("raw_", raw, passed),
    }
    return workload, attempted, attempted - succeeded, succeeded == attempted, metrics, extra


def trace(args, workdir):
    import hostspeed

    workload = _import_workloads().WORKLOADS[args.workload](args.seed, args.seconds, workdir)
    # Only now is src/ on sys.path.
    import tracer as tracing
    from triphase import checks

    check_names = [fn.__name__ for fn in checks.ALL_CHECKS]
    count = max(2, round(args.seconds * TRACE_ITEMS_PER_SECOND[args.workload]))
    run_items(workload, 0, count=workload.warmup)
    plain = run_items(workload, workload.warmup, count=count, host=hostspeed)
    recorder = tracing.Tracer()
    recorder.install()
    try:
        traced = run_items(workload, workload.warmup, count=count, host=hostspeed)
    finally:
        recorder.uninstall()
    tracing.write_spans(recorder, str(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json"))
    metrics = tracing.layer_metrics(recorder, check_names)
    # Both passes are host-speed scaled, so the ratio is the tracing cost.
    plain_s, traced_s = (sum(lat * f for lat, f in zip(r[0], r[3])) for r in (plain, traced))
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    same = plain[2] == traced[2]
    if not same:
        print("error: traced and untraced runs gave different outputs", file=sys.stderr)
    attempted = len(plain[1]) + len(traced[1])
    failed = plain[1].count(False) + traced[1].count(False)
    extra = {"result_hash": (plain[2], "sha256")}
    return workload, attempted, failed, failed == 0 and same, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracles", "evolve", "transport", "check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _require_source()

    workdir = RUN_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        phase = trace if args.trace else measure
        workload, attempted, failed, correct, metrics, extra = phase(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.properties,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
    }
    print(json.dumps(report))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
