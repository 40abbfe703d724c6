"""The plain result records are named tuples: fixed fields and defaults, a
Name(field=value, ...) repr, and no assignment to a field."""

import numpy as np
import pytest

from triphase import checks, evolution, geodesics, phases

RECORDS = [
    (phases.PhaseResult, ("value", "method")),
    (checks.CheckResult, ("name", "value", "tolerance", "passed", "trials", "bound_kind")),
    (evolution.Trajectory, ("s", "n", "psi", "phi_p", "phi_dyn", "norm_drift")),
    (geodesics.HamiltonianCoeffs, ("h0", "h")),
]


@pytest.mark.parametrize("record, fields", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
def test_record_fields_repr_and_immutability(record, fields):
    assert record._fields == fields
    assert not record.__doc__.startswith(record.__name__)  # its own, not the generated one
    values = [f"v{k}" for k in range(len(fields))]
    made = record(*values)
    assert tuple(made) == tuple(values)
    assert made[0] == values[0]
    listed = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(made) == f"{record.__name__}({listed})"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(made, name, 0.0)


def test_record_defaults():
    s, n = np.zeros(2), np.zeros((2, 8))
    trajectory = evolution.Trajectory(s, n)
    assert (trajectory.psi, trajectory.phi_p, trajectory.phi_dyn) == (None, None, None)
    assert trajectory.norm_drift is None
    assert trajectory.s is s and trajectory.n is n
    result = checks.CheckResult("algebra.tables", 0.0, 1e-14, True)
    assert result.trials is None and result.bound_kind == "upper"


def test_phase_result_is_its_value_as_a_float():
    result = phases.PhaseResult(-0.75, "bargmann")
    assert float(result) == -0.75
    value, method = result
    assert (value, method) == (-0.75, "bargmann")
