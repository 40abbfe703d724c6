"""CSV text of float tables, byte for byte what '%.17g' % v prints.

csv_chunks cuts a table once into vector passes and yields their text in
order from one loop: the caller formats the even passes and one helper
thread the odd ones, with at most two passes formatted ahead of the
reader, so the bytes do not depend on the CPU count; a one-pass table, or
a process held to one CPU, starts no thread.
Each value's 17 significant digits come from a double-double product with
an exact table of powers of ten (Dekker's split product) and are used
only where an error bound proves them correctly rounded; every other
value (zero, inf, nan, a magnitude outside FAST_EXPONENTS, a rounding
within ROUNDING_GUARD of a tie) takes Python's own '%.17g'.  cli imports
this module on its first CSV table, so runs that print no table do not
compile it.
"""

import functools
import os
import threading

import numpy as np

# Most values formatted and written per vector pass.  Two threads overlap only
# inside numpy calls that outlast a GIL hand-off: on a 2-vCPU x86 host they ran
# csv_text 0.98x as fast as one thread on 4096-value passes and 1.4-1.6x on
# 16384 or more.  So an evolve table of about 3000 rows is two passes, one per
# thread.  A pass's temporaries peak at about 116 bytes per value.  Without
# _keep_on_heap glibc returns them to the system after each pass and faults
# them in again: about 1900 fresh pages per evolve item on one thread or two
# (ru_minflt in process), against at most 1 with it.
PASS_VALUES = 32640

# Decimal exponents E = floor(log10|x|) that the vector writer formats; other
# magnitudes go to Python.  Every split product below stays far from overflow
# and from subnormals, and the exact table of 10^(16 - E) builds in about
# 0.4 ms on a 2-vCPU x86 host (1.6 ms for +-280).
FAST_EXPONENTS = (-99, 99)
# Half-integers the 17-digit rounding may fall on, to within this distance.
ROUNDING_GUARD = 2.0**-40


@functools.cache
def _digit_tables():
    """10^(16 - E) as double-doubles (hi, lo) for E one past each end of the
    fast range, and the four ASCII digits of 0..9999 packed in a uint32 each;
    built on the first CSV block."""
    low, high = FAST_EXPONENTS
    hi, lo = [], []
    for e in range(low - 1, high + 2):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        head = num / den  # int / int rounds correctly, so head and tail do
        h_num, h_den = head.as_integer_ratio()
        hi.append(head)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1)
    return np.array(hi), np.array(lo), quads.reshape(10**4, 4).view(np.uint32).ravel()


def _split(x):
    """Dekker's split of doubles into 26-bit high and low halves."""
    spread = x * 134217729.0  # 2^27 + 1
    high = spread - (spread - x)
    return high, x - high


def _scaled(a, e):
    """a * 10^(16 - e) as an integer part and a fraction in [0, 1].

    The product a * hi is taken exactly as y + err (Dekker), and a * lo
    joins err in the tail; seventeen_digits bounds the error of y + tail.
    """
    hi_table, lo_table, _ = _digit_tables()
    hi = hi_table[e - (FAST_EXPONENTS[0] - 1)]
    y = a * hi
    a_hi, a_lo = _split(a)
    h_hi, h_lo = _split(hi)
    tail = ((a_hi * h_hi - y) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    tail += a * lo_table[e - (FAST_EXPONENTS[0] - 1)]
    whole = np.floor(tail)
    # y is a whole number from 2^53 up; below that the sum is under 10^16
    # either way, and only sends the value round again at E - 1
    return y.astype(np.int64) + whole.astype(np.int64), tail - whole


def seventeen_digits(values):
    """|v| rounded to 17 significant digits, as D * 10^(E - 16) per value.

    Returns D in [10^16, 10^17), E, and a mask of the values whose D and E
    are proven to be those of '%.17g'.  The rest (zero, inf, nan, E outside
    FAST_EXPONENTS, a fraction within ROUNDING_GUARD of 1/2) are left to
    Python.

    Error bound.  At the final E, y = |v| 10^(16 - E) < 10^17 + 1 < 2^57;
    let u = 2^-53.  hi + lo misses 10^(16 - E) by at most u^2 of it, and
    a * hi = y + err exactly.  Rounding a * lo and then the tail sum each
    err by at most u^2 y.  So y + tail is within 3 u^2 y < 3 * 2^-49 <
    2^-47 of the exact product, and taking the whole part off the tail is
    exact (for a tail in (-1, 0) it errs by u, far below the guard).  The
    guard 2^-40 exceeds the bound, so outside it the computed fraction is
    on the same side of 1/2 as the true one, and an exact tie always falls
    back.  Where log10 gives an E off by one, the integer part leaves
    [10^16, 10^17), E moves by one and the product is taken again; within
    the bound of 10^16 both exponents round to the same digits.
    """
    a = np.abs(values)
    low, high = FAST_EXPONENTS
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
        exact = (e >= low) & (e <= high)
    a = np.where(exact, a, 1.0)
    e = np.where(exact, e, 0.0).astype(np.int64)
    digits, fraction = _scaled(a, e)
    shift = (digits >= 10**17).astype(np.int64) - (digits < 10**16)
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        digits[moved], fraction[moved] = _scaled(a[moved], e[moved])
    digits += fraction > 0.5
    exact &= np.abs(fraction - 0.5) >= ROUNDING_GUARD
    exact &= (digits >= 10**16) & (digits <= 10**17)
    carry = digits == 10**17
    digits[carry] = 10**16
    return digits, e + carry, exact


def _divmod(values, unit, quotient, remainder):
    # on 28,475 int64 values np.divmod by a scalar took 103 us and this 38 us, as
    # floor_divide takes libdivide's path (2-vCPU x86)
    np.floor_divide(values, unit, out=quotient)
    np.subtract(values, quotient * unit, out=remainder)


def csv_text(table):
    """The CSV text of a 2-D float table in one vector pass (see csv_chunks).

    Byte planes hold one byte per value each: plane 0 the sign, 1..22 the
    body ('0000' and the 17 digits of D with the point set after digit
    4 + X), 23..27 'e', the exponent's sign and three digits, 28 the
    separator.  A keep mask marks the bytes %g prints, and one boolean
    gather joins them value by value.
    """
    rows, columns = table.shape
    values = table.ravel()
    n = values.size
    digits, exponent, exact = seventeen_digits(values)
    quads = _digit_tables()[2]
    # D's leading digit, then its four groups of four
    groups = np.empty((5, n), dtype=np.int64)
    high = digits // 10**8
    low = digits - high * 10**8
    _divmod(high, 10**8, groups[0], high)
    _divmod(high, 10**4, groups[1], groups[2])
    _divmod(low, 10**4, groups[3], groups[4])
    # planes 1..21 hold '0000' then D; planes 0 and 22 pad the shift below
    planes = np.full((23, n), ord("0"), dtype=np.uint8)
    planes[2:22].reshape(5, 4, n)[...] = (
        quads[groups].view(np.uint8).reshape(5, n, 4).transpose(0, 2, 1)
    )
    # arrays are dropped once used: a pass peaked at 210 bytes a value without
    # these dels, fresh pages that each thread faults in on a process's first table
    del digits, groups, high, low
    # digits of D left once trailing zeros go (its leading digit is not 0)
    significant = ((planes[5:22] != ord("0")) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(0)
    fixed = (exponent >= -4) & (exponent < 17)
    # the point follows digit 4 + x: x = X in fixed notation, 0 in d.ddde+XX
    x = np.where(fixed, exponent, 0)
    point = (x + 5).astype(np.uint8)
    start = (np.minimum(x, 0) + 4).astype(np.uint8)
    stop = np.where(significant > x + 1, significant + 5, point).astype(np.uint8)
    row = np.arange(22, dtype=np.uint8)[:, None]

    cells = np.empty((29, n), dtype=np.uint8)
    keep = np.empty((29, n), dtype=bool)
    cells[0] = ord("-")
    keep[0] = np.signbit(values)
    # body row r holds digit r before the point and digit r - 1 after it
    body = cells[1:23]
    np.subtract(planes[1:23], planes[:22], out=body)
    np.less(row, point, out=keep[1:23])  # keep[1:23] is free until set below
    body *= keep[1:23]
    body += planes[:22]
    del planes, x
    body[point, np.arange(n)] = ord(".")
    np.greater_equal(row, start, out=keep[1:23])
    keep[1:23] &= row < stop
    keep[23:28] = False
    sci = np.flatnonzero(~fixed)
    if sci.size:
        power = np.abs(exponent[sci])
        cells[23, sci] = ord("e")
        cells[24, sci] = np.where(exponent[sci] < 0, ord("-"), ord("+"))
        cells[25:28, sci] = quads[power].view(np.uint8).reshape(-1, 4)[:, 1:].T
        keep[23:28, sci] = True
        keep[25, sci] = power >= 100
    cells[28] = ord(",")
    cells[28].reshape(rows, columns)[:, -1] = ord("\n")
    keep[28] = True

    slow = np.flatnonzero(~exact)
    if slow.size:
        text = np.array(["%.17g" % v for v in values[slow].tolist()], dtype="S24")
        text = text.view(np.uint8).reshape(slow.size, 24).T
        cells[:24, slow] = text
        keep[:28, slow] = False
        keep[:24, slow] = text != 0
    joined = cells.T[keep.T]
    del cells, keep
    return joined.tobytes().decode("ascii")


def csv_chunks(*columns):
    """Yield the CSV text of a table: each value as '%.17g' % v prints it,
    ',' between columns and '\\n' after every row.

    columns are arrays of equal length, each 1-D or 2-D, laid side by side
    into rows.  A value is written from its proven 17-digit decimal
    (seventeen_digits) by %g's rules: fixed notation for -4 <= X < 17,
    else d.ddde+XX, with trailing zeros and a bare point dropped.  Zero,
    inf, nan, a value with E outside FAST_EXPONENTS and one whose rounding
    lies too near a tie take Python's '%.17g' itself.  Each piece is one
    csv_text pass over whole rows, at most PASS_VALUES values where a row
    allows, and a pass's rows are stacked only when it is formatted, so no
    copy of the whole table or its text is built.

    A table of two passes or more, when the process may run on two CPUs or
    more, is formatted on two threads; numpy releases the GIL inside its
    loops, so two passes run at once.  The caller formats the even passes
    and one helper thread the odd ones, in order, and each pass is yielded
    in its turn, so the text does not depend on the CPU count.  The helper
    starts pass 2j + 1 only once pass 2j - 1 has been taken, so at most two
    passes are formatted ahead of the reader: a reader that stalls stalls
    the helper too.  An exception raised in a pass is raised here in that
    pass's turn.  Closing the generator, as an abandoned one is closed,
    releases the helper and joins it.  A one-pass table, or a process held
    to one CPU, is formatted on the caller's thread and starts no thread.
    """
    # the fewest passes of at most PASS_VALUES values, an even number past one
    # so that two threads get equal shares, with equal row counts but the last
    count = -(-sum(np.size(c) for c in columns) // PASS_VALUES)
    count += count % 2 if count > 1 else 0
    step = max(1, -(-len(columns[0]) // max(count, 1)))
    firsts = range(0, len(columns[0]), step)

    def text(first):
        """The text of the pass whose rows start at first."""
        return csv_text(np.column_stack([c[first : first + step] for c in columns]))

    _keep_on_heap(256 * PASS_VALUES)  # twice a pass's peak of about 116 bytes a value
    odd = firsts[1::2] if len(firsts) > 1 and _cpus() > 1 else range(0)
    texts = [None] * len(odd)
    done = [threading.Event() for _ in odd]  # set once pass 2j + 1's text is in texts[j]
    taken = [threading.Event() for _ in odd]  # set once the caller has taken it
    closing = False

    def format_odd():
        for j, first in enumerate(odd):
            if j:
                taken[j - 1].wait()
            if closing:
                return
            try:
                texts[j] = text(first)
            except Exception as exc:  # handed to the caller in this pass's turn
                texts[j] = exc
            done[j].set()

    helper = threading.Thread(target=format_odd) if odd else None
    if helper:
        _digit_tables()  # built once, before two threads could each build it
        helper.start()
    try:
        for k, first in enumerate(firsts):
            if k % 2 == 0 or not odd:
                piece = text(first)
            else:
                done[k // 2].wait()
                piece, texts[k // 2] = texts[k // 2], None
                taken[k // 2].set()
                if isinstance(piece, Exception):
                    raise piece
            yield piece
    finally:
        closing = True
        for event in taken:  # wakes a helper waiting for its last pass to be taken
            event.set()
        if helper:
            helper.join()


@functools.cache
def _keep_on_heap(size):
    """Allocate and free size bytes once per process, so that a pass's
    temporaries stay on the heap between passes.

    glibc maps a block above its mmap threshold (128 KiB at start) and,
    when one is freed, raises that threshold to its size and the heap's
    trim threshold to twice that (mallopt(3), M_MMAP_THRESHOLD).  Below
    the trim threshold the memory a pass frees is kept for the next pass,
    in the caller's malloc arena and in the helper thread's own, at the
    cost of holding up to 2 * size freed bytes in each.  Other allocators
    ignore it.
    """
    np.empty(size, dtype=np.uint8)


def _cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
