"""Command-line front end.

Machine summaries go out as JSON lines, sampled curves as CSV with a
trailing '#' comment carrying the run summary.  All floats are printed
with 17 significant digits so doubles round-trip exactly, and output for
a fixed seed and flag set is byte-identical across runs.  A CSV value is
the text of '%.17g' % v, written by csvtext.csv_chunks (see there for how
a table is cut, how much of it is held at once, and which values take
Python's '%.17g').

Exit codes: 0 success, 1 failed invariant sweep, 2 bad parameter or
range violation, 3 orthogonal states where a phase or geodesic needs an
overlap, 4 unreadable or malformed input file (not UTF-8, nested too
deeply to parse, or with an integer over Python's digit limit), or an
output that cannot be opened or written.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
from itertools import combinations

import numpy as np

# checks and csvtext are imported by the verbs that use them: 'check' alone
# sweeps, and only 'geodesic' and 'evolve' print a CSV table.  Loading both
# with cli cost every run about 1.4 ms of CPU with bytecode cached, and 14 ms
# when their sources are compiled (medians of fresh processes, numpy already
# loaded, on a shared 2-vCPU x86 host).
from . import evolution, geodesics, phases, states
from .errors import NotNormalized, OrthogonalityError, OutOfRange, TriphaseError


class _FileError(Exception):
    """Input that cannot be read or parsed, or output that cannot be written: exit 4."""


# Exit code of each error main reports, most specific first.
_EXIT_CODES = ((_FileError, 4), (OrthogonalityError, 3), (TriphaseError, 2))


# Work budgets: the most points one geodesic run may sample, and the most
# trials one check run may sweep.
MAX_GEODESIC_SAMPLES = 10**6
MAX_CHECK_TRIALS = 10**4

def _render(obj):
    """Compact JSON with 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_render(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(text, out, columns=(), tail=""):
    """Write text, then the columns as CSV rows, then tail, to out or stdout.

    columns are arrays of equal length, each 1-D or 2-D, laid side by side
    into rows and written by csvtext.csv_chunks, whose docstring gives how
    a table is cut into passes, how far formatting runs ahead of the write,
    and which values take Python's '%.17g'.  An output that cannot be
    opened or written raises _FileError, and the abandoned csv_chunks
    generator joins its helper thread as it closes; a failed stdout is
    pointed at os.devnull so that the interpreter's final flush of its
    buffer cannot fail again.
    """
    try:
        with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as handle:
            handle.write(text)
            if columns:
                from . import csvtext

                handle.writelines(csvtext.csv_chunks(*columns))
            handle.write(tail)
            handle.flush()
    except OSError as exc:
        if not out:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise _FileError(f"cannot write {out or 'stdout'}: {exc}") from exc


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise _FileError(f"cannot read {path}: {exc}") from exc
    # ValueError covers JSONDecodeError, UnicodeDecodeError and the int digit limit
    except (ValueError, RecursionError) as exc:
        raise _FileError(f"malformed JSON in {path}: {exc}") from exc


def _state_from_obj(obj, source):
    try:
        psi = states.state_from_json(obj)
        states.assert_normalized(psi)
    except (ValueError, TypeError, OverflowError, NotNormalized) as exc:
        raise _FileError(f"bad state in {source}: {exc}") from exc
    return psi


def _load_state(path):
    return _state_from_obj(_load_json(path), path)


def _load_state_list(path, expect=None):
    data = _load_json(path)
    if not isinstance(data, list):
        raise _FileError(f"{path} must hold a JSON list of states")
    if expect is not None and len(data) != expect:
        raise _FileError(f"{path} must hold exactly {expect} states, got {len(data)}")
    return [_state_from_obj(obj, path) for obj in data]


def cmd_phase_triangle(args):
    params = phases.TriangleParams(args.xi, args.eta, args.zeta, args.chi2)
    lifts = phases.triangle_states(params)
    rhos = [states.density_of(psi) for psi in lifts]
    results = [
        phases.pancharatnam_phase(params),
        phases.bargmann_phase(list(lifts)),
        phases.pancharatnam_phase_from_n(*(states.n_vector_of(p) for p in lifts)),
        phases.triangle_line_integral_phase(*rhos),
    ]
    lines = [
        _render({"method": r.method, "phase": r.value, "params": dataclasses.asdict(params)})
        for r in results
    ]
    discrepancy = max(
        phases.phase_distance(a.value, b.value) for a, b in combinations(results, 2)
    )
    lines.append(_render({"max_discrepancy": discrepancy}))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_phase_bargmann(args):
    psis = _load_state_list(args.file)
    result = phases.bargmann_phase(psis)
    line = _render(
        {"method": result.method, "phase": result.value, "params": {"vertices": len(psis)}}
    )
    _emit(line + "\n", args.out)
    return 0


def cmd_geodesic(args):
    if args.samples < 2:
        raise OutOfRange(f"samples = {args.samples}, need at least 2")
    if args.samples > MAX_GEODESIC_SAMPLES:
        raise OutOfRange(
            f"samples = {args.samples}, over the budget of {MAX_GEODESIC_SAMPLES}"
        )
    psi1 = _load_state(args.state1)
    psi2 = _load_state(args.state2)
    curve = geodesics.geodesic_between(states.density_of(psi1), states.density_of(psi2))
    degenerate = curve.length == 0.0  # coincident endpoints, sampled once at s = 0
    grid = np.linspace(0.0, curve.length, 1 if degenerate else args.samples)
    ns = states.n_vectors_of(curve(grid))
    summary = {"length": curve.length, "degenerate": degenerate}
    summary.update(planar=None, affine_rank=None, span_rank=None)  # too few samples to rank
    if len(ns) >= 4:
        planar, affine_rank = geodesics.planarity_test(ns)
        summary.update(
            planar=planar, affine_rank=affine_rank, span_rank=geodesics.span_rank(ns)
        )
    _emit("s,n1,n2,n3,n4,n5,n6,n7,n8\n", args.out, (grid, ns), "# " + _render(summary) + "\n")
    return 0


def cmd_evolve(args):
    psis = _load_state_list(args.file, expect=3)
    rhos = [states.density_of(psi) for psi in psis]
    trajectory, geometric, closure = evolution.evolve_triangle(*rhos, step=args.step)
    header = "s,re1,im1,re2,im2,re3,im3,n1,n2,n3,n4,n5,n6,n7,n8,phi_p,phi_dyn\n"
    # re1, im1, re2, im2, re3, im3: a complex row viewed as its doubles
    components = trajectory.psi.view(float)
    columns = (trajectory.s, components, trajectory.n, trajectory.phi_p, trajectory.phi_dyn)
    summary = {
        "total_phase": phases.principal_branch(trajectory.phi_p[-1]),
        "dynamical_phase": trajectory.phi_dyn[-1],
        "geometric_phase": geometric.value,
        "closure_defect": closure,
        "step": args.step,
    }
    _emit(header, args.out, columns, "# " + _render(summary) + "\n")
    return 0


def _parse_overrides(pairs):
    from . import checks

    overrides = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise OutOfRange(f"tolerance override {pair!r} is not name=value")
        try:
            number = float(value)
        except ValueError as exc:
            raise OutOfRange(f"tolerance override {pair!r}: bad float") from exc
        if not np.isfinite(number):
            raise OutOfRange(f"tolerance override {pair!r} is not finite")
        if name not in checks.BOUNDED_CHECKS:
            raise OutOfRange(f"no upper or lower bound named {name!r}")
        overrides[name] = number
    return overrides


def cmd_check(args):
    if args.seed < 0:
        raise OutOfRange(f"seed = {args.seed}, need at least 0")
    if args.trials > MAX_CHECK_TRIALS:
        raise OutOfRange(f"trials = {args.trials}, over the budget of {MAX_CHECK_TRIALS}")
    from . import checks

    overrides = _parse_overrides(args.tol)
    report = checks.run_all(seed=args.seed, trials=args.trials, overrides=overrides)
    lines = [
        _render(
            {
                "check": r.name,
                "value": r.value,
                "tolerance": r.tolerance,
                "bound": r.bound_kind,
                "trials": r.trials,
                "passed": r.passed,
            }
        )
        for r in report["results"]
    ]
    summary = {
        "seed": report["seed"],
        "trials": report["trials"],
        "checks": len(report["results"]),
        "all_passed": report["all_passed"],
    }
    _emit("\n".join([*lines, _render(summary)]) + "\n", args.out)
    return 0 if report["all_passed"] else 1


@functools.cache
def build_parser():
    """The argparse tree, built once; main looks up the cmd_* handler per call."""
    parser = argparse.ArgumentParser(
        prog="triphase",
        description="Geometry and geometric phases of three-level pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out")
    verb = functools.partial(sub.add_parser, parents=[shared])

    p = verb("phase-triangle", help="triangle phase from every oracle, angles in radians")
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--zeta", type=float, required=True)
    p.add_argument("--chi2", type=float, required=True)

    p = verb("phase-bargmann", help="polygon phase from a JSON state list")
    p.add_argument("file")

    p = verb("geodesic", help="sample the geodesic between two states")
    p.add_argument("state1")
    p.add_argument("state2")
    p.add_argument("--samples", type=int, default=200)

    p = verb("evolve", help="integrate a triangle loop and dump the trajectory")
    p.add_argument("file")
    p.add_argument("--step", type=float, default=1e-3)

    p = verb("check", help="run the seeded invariant sweeps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override one check tolerance (repeatable)",
    )

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (_FileError, TriphaseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
