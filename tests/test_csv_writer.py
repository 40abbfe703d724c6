"""The vectorised CSV writer against Python's own '%.17g', byte for byte."""

import contextlib
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triphase import csvtext

LOW, HIGH = csvtext.FAST_EXPONENTS
# the class itself, kept before thread_starts puts its recorder in its place
Thread = threading.Thread


def reference(table):
    """The row template the writer replaces: '%.17g' joined by ',' and '\\n'."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())


def on_a_worker(work, timeout=30):
    """work() run on a daemon thread named 'reader' and joined within timeout
    seconds: its result is returned and its exception raised here, so a
    writer that deadlocks fails the test instead of hanging the run.  The
    writer's helper, started from the reader, is a daemon thread too, so a
    hung one does not keep the run from exiting either."""
    outcome = {}

    def run():
        try:
            outcome["value"] = work()
        except BaseException as exc:  # raised again on the test's thread
            outcome["error"] = exc

    worker = Thread(target=run, name="reader", daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"the reader still runs after {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def read(table, pieces):
    """Extend pieces with the writer's text of table, closing the generator
    however the reading ends."""
    with contextlib.closing(csvtext.csv_chunks(table)) as chunks:
        pieces.extend(chunks)


def written(table):
    """The writer's text of table, read on a worker thread (on_a_worker)."""
    pieces = []
    on_a_worker(lambda: read(table, pieces))
    return "".join(pieces)


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


def cpus(monkeypatch, count):
    """Let csvtext see count CPUs, whatever the host has."""
    monkeypatch.setattr(csvtext, "_cpus", lambda: count)


def thread_starts(monkeypatch):
    """The threads started from here on, recorded as they start."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(csvtext.threading, "Thread", Recorded)
    return started


def four_passes(columns, seed):
    """A table of four passes, its rows no multiple of a pass's rows, with
    values that take Python's '%.17g' (zeros, inf, nan, ties, exponents
    out of range) in its first and last pass and between them."""
    rng = np.random.default_rng(seed)
    rows = 2 * csvtext.PASS_VALUES // columns + 1
    values = rng.standard_normal(rows * columns) * 10.0 ** rng.integers(-8, 9, rows * columns)
    fallback = np.concatenate((
        around([0.0, math.inf, math.nan, 1e-300, 1e300, 10.0 ** (LOW - 1), 10.0 ** (HIGH + 2)]),
        ties(rng, 20),
    ))
    spots = np.linspace(0, values.size - 1, fallback.size).astype(int)
    values[spots] = fallback
    assert not csvtext.seventeen_digits(values[spots])[2].any()
    return values.reshape(rows, columns)


@pytest.mark.parametrize("columns", [1, 7, 17])
def test_passes_on_two_threads_match_one_thread(monkeypatch, columns):
    table = four_passes(columns, seed=columns)
    expected = reference(table)
    started = thread_starts(monkeypatch)
    cpus(monkeypatch, 2)
    assert written(table) == expected
    assert len(started) == 1 and not started[0].is_alive()
    cpus(monkeypatch, 1)
    assert written(table) == expected
    assert len(started) == 1


def test_one_pass_table_starts_no_thread(monkeypatch):
    # the geodesic verb's default: 200 samples of s and n1..n8
    table = np.random.default_rng(200).standard_normal((200, 9))
    started = thread_starts(monkeypatch)
    cpus(monkeypatch, 2)
    assert written(table) == reference(table)
    assert started == []


def test_a_table_starts_one_helper(monkeypatch, tmp_path):
    from triphase import cli

    # six passes of geodesic's s and n1..n8, cut once for the whole table
    table = np.random.default_rng(11).standard_normal((20000, 9))
    started = thread_starts(monkeypatch)
    cpus(monkeypatch, 2)
    out = tmp_path / "table.csv"
    on_a_worker(lambda: cli._emit("", str(out), (table[:, 0], table[:, 1:])))
    assert out.read_text() == reference(table)
    assert len(started) == 1 and not started[0].is_alive()


def test_a_stalled_reader_holds_at_most_two_passes_ahead(monkeypatch):
    cpus(monkeypatch, 2)
    table = np.random.default_rng(12).standard_normal((200_000, 9))
    formatted = []
    progress = threading.Event()
    real = csvtext.csv_text

    def counted(rows):
        text = real(rows)
        formatted.append(len(rows))
        progress.set()
        return text

    monkeypatch.setattr(csvtext, "csv_text", counted)
    before = threading.active_count()

    def stall():
        with contextlib.closing(csvtext.csv_chunks(table)) as chunks:
            first = next(chunks)
            # the reader stalls until the helper has formatted nothing for 0.5 s
            while progress.wait(timeout=0.5):
                progress.clear()
            return first, len(formatted)

    first, ahead = on_a_worker(stall)
    # the text in the reader's hands and the helper's next pass, of 56
    assert ahead <= 2
    assert first == reference(table[: formatted[0]])
    assert threading.active_count() == before


def test_a_failing_pass_raises_in_its_turn(monkeypatch):
    cpus(monkeypatch, 2)
    monkeypatch.setattr(csvtext, "PASS_VALUES", 64)
    table = np.random.default_rng(6).standard_normal((200, 4))
    table[150, 0] = 7.0
    real = csvtext.csv_text

    def failing(rows):
        if (rows[:, 0] == 7.0).any():
            raise ZeroDivisionError("the pass of row 150")
        return real(rows)

    monkeypatch.setattr(csvtext, "csv_text", failing)
    pieces = []
    with pytest.raises(ZeroDivisionError, match="row 150"):
        on_a_worker(lambda: read(table, pieces))
    # every pass before the failing one came out, and none after it
    text = "".join(pieces)
    assert text == reference(table[: text.count("\n")]) and 100 < text.count("\n") <= 150


def test_an_error_on_the_helper_thread_reaches_the_caller(monkeypatch):
    cpus(monkeypatch, 2)
    monkeypatch.setattr(csvtext, "PASS_VALUES", 64)
    table = np.random.default_rng(7).standard_normal((200, 4))
    real = csvtext.csv_text
    helper_failed = threading.Event()

    def failing_off_the_caller(rows):
        if threading.current_thread().name != "reader":
            helper_failed.set()
            raise ZeroDivisionError("helper")
        # the caller waits until the helper has failed its first pass
        assert helper_failed.wait(timeout=30)
        return real(rows)

    monkeypatch.setattr(csvtext, "csv_text", failing_off_the_caller)
    before = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="helper"):
        written(table)
    assert threading.active_count() == before


def test_an_abandoned_generator_joins_its_helper(monkeypatch):
    cpus(monkeypatch, 2)
    monkeypatch.setattr(csvtext, "PASS_VALUES", 64)
    table = np.random.default_rng(8).standard_normal((20000, 4))
    formatted = []
    real = csvtext.csv_text
    monkeypatch.setattr(csvtext, "csv_text", lambda rows: formatted.append(rows) or real(rows))
    before = threading.active_count()

    def abandon():
        chunks = csvtext.csv_chunks(table)
        try:
            return next(chunks)
        finally:
            del chunks  # as _emit drops it when a write fails

    assert on_a_worker(abandon) == reference(table[: len(formatted[0])])
    assert threading.active_count() == before
    # the helper stopped: joining it waited for the pass in its hands, not
    # for all 1250
    assert len(formatted) < 1250


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_joins_the_helper(monkeypatch):
    from triphase import cli

    cpus(monkeypatch, 2)
    table = np.random.default_rng(9).standard_normal((4000, 17))
    before = threading.active_count()
    with pytest.raises(cli._FileError, match="cannot write /dev/full"):
        on_a_worker(lambda: cli._emit("header\n", "/dev/full", (table,)))
    assert threading.active_count() == before


def test_concurrent_callers_each_get_their_own_text(monkeypatch):
    # four callers, each with its helper, on a short switch interval: a pass
    # formatted twice or lost, or a text handed to the wrong caller, shows here
    cpus(monkeypatch, 2)
    monkeypatch.setattr(csvtext, "PASS_VALUES", 40)
    rng = np.random.default_rng(10)
    tables = [rng.standard_normal((150, columns)) for columns in (1, 3, 7, 17)]
    texts = {}

    def caller(k):
        texts[k] = written(tables[k])

    callers = [Thread(target=caller, args=(k,), daemon=True) for k in range(len(tables))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert [texts.get(k) for k in range(len(tables))] == [reference(t) for t in tables]
