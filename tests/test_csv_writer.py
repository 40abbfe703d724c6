"""The vectorised CSV writer against Python's own '%.17g', byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphase import csvtext

LOW, HIGH = csvtext.FAST_EXPONENTS


def reference(table):
    """The row template the writer replaces: '%.17g' joined by ',' and '\\n'."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())


def written(table):
    return "".join(csvtext.csv_chunks(table))


def around(values):
    """Each value and its two neighbouring doubles, of both signs."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", under="ignore"):  # past the largest double
        near = np.concatenate(
            (values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf))
        )
    return np.concatenate((near, -near))


def ties(rng, size):
    """Doubles whose 18th significant digit is a final 5: '%.17g' must round
    them half to even, which the writer leaves to Python."""
    whole = rng.integers(10**15, 2**51 - 1, size).astype(float)
    quarter = whole + rng.choice([0.25, 0.75], size)
    eighth = rng.integers(10**14, 10**15 - 1, size) + rng.choice([0.125, 0.375, 0.625, 0.875], size)
    # (2j + 1) 2^-17 in [1, 2) and (2j + 1) 2^-18 in [0.1, 1) end in 5 at
    # digit 18
    binade = 1.0 + (2 * rng.integers(0, 2**16, size) + 1) * 2.0**-17
    tenth = (2 * rng.integers(13108, 2**17, size) + 1) * 2.0**-18
    return np.concatenate(([1e15 + 0.25, 2.0**49 + 0.125], quarter, eighth, binade, tenth))


def sweep_values(seed=17):
    rng = np.random.default_rng(seed)
    edges = [10.0**LOW, 10.0 ** (HIGH + 1), 10.0 ** (LOW + 1), 10.0**HIGH]
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, 1.7976931348623157e308]
    parts = [
        rng.integers(0, 2**64, 500_000, dtype=np.uint64).view(float),
        rng.standard_normal(340_000) * 10.0 ** rng.integers(-110, 111, 340_000),
        rng.uniform(-4.0, 4.0, 100_000),
        rng.integers(-(10**17), 10**17, 20_000).astype(float),
        around([float(f"1e{k}") for k in range(-50, 26)]),
        around(edges),
        around(specials),
        ties(rng, 12_000),
    ]
    values = np.concatenate(parts)
    return values[rng.permutation(values.size)]


def test_sweep_matches_percent_g_at_1_7_and_17_columns():
    values = sweep_values()
    assert values.size >= 10**6
    proven = 0
    # slices of whole rows at every width keep the reference strings small
    step = 7 * 17 * 840
    for first in range(0, values.size, step):
        chunk = values[first : first + step]
        strings = ["%.17g" % v for v in chunk.tolist()]
        for columns in (1, 7, 17):
            usable = len(strings) // columns * columns
            expected = "".join(
                ",".join(strings[k : k + columns]) + "\n" for k in range(0, usable, columns)
            )
            assert written(chunk[:usable].reshape(-1, columns)) == expected, (first, columns)
        proven += csvtext.seventeen_digits(chunk)[2].sum()
    # both paths ran, each on many values
    assert 10**5 < proven < values.size - 10**5


def test_ties_and_out_of_range_values_fall_back():
    rng = np.random.default_rng(3)
    outside = around([10.0 ** (LOW - 1), 10.0 ** (HIGH + 2), 1e-300, 1e300])
    for values in (ties(rng, 200), outside):
        _, _, exact = csvtext.seventeen_digits(values)
        assert not exact.any()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=60), columns=st.integers(1, 4))
def test_any_floats_match_percent_g(values, columns):
    columns = min(columns, len(values))
    table = np.array(values[: len(values) // columns * columns]).reshape(-1, columns)
    assert written(table) == reference(table)


def test_table_where_every_value_takes_python():
    table = np.array([
        [0.0, -0.0, math.inf],
        [-math.inf, math.nan, 5e-324],
        [1e-300, -1e300, 1e15 + 0.25],
        [2.0**49 + 0.125, -2.2250738585072014e-308, 1.7976931348623157e308],
    ])
    _, _, exact = csvtext.seventeen_digits(table.ravel())
    assert not exact.any()
    assert written(table) == reference(table)


def test_mixed_table():
    table = np.array([
        [0.0, 0.1, -1e-5, 12345.678, 1e16],
        [math.nan, -3.0, 1e17, 2.0**-1074, 1e15 + 0.25],
        [1e-4, -1e-300, 9.999999999999999e16, 0.30000000000000004, -math.inf],
    ])
    _, _, exact = csvtext.seventeen_digits(table.ravel())
    assert exact.any() and not exact.all()
    assert written(table) == reference(table)


@pytest.mark.parametrize("columns", [1, 5, 17])
def test_pass_boundaries_do_not_change_text(monkeypatch, columns):
    table = np.random.default_rng(columns).standard_normal((301, columns))
    whole = written(table)
    monkeypatch.setattr(csvtext, "PASS_VALUES", 7)
    assert written(table) == whole == reference(table)
