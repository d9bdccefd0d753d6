"""Doubles as CSV text in numpy, every field byte for byte ``"%.17g" % x``,
and the simulator's trace and event CSV writers, which format their blocks
with it.  ``teleopstab.sim`` re-exports the writers; this module reads a
trace by its fields alone and imports nothing from the simulator.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import NamedTuple

import numpy as np

# fields formatted per write.  A trace write peaks at about 215 bytes a
# field of distinct values (570 KiB under tracemalloc), and a block's
# largest arrays, its gathered 48-byte slots and their bytes, stay under
# glibc's default 128 KiB mmap threshold; a block of 4 608 fields mapped
# and faulted in fresh pages, 42 000 minor faults a write of the shipped
# trace in a fresh process
_CSV_CHUNK_FIELDS = 2700
# rows each half of the trace CSV must hold before write_trace_csv forks a
# process to format the second.  In a 74 MiB process on 2 vCPUs, fork plus
# reap took 1.4 to 1.9 ms, against 1.0 to 1.2 us to format a shipped-trace
# row: a range of 4096 rows takes 4 to 5 ms to format, two to three times
# its fork.  Short splits did not always pay: at 8 192 rows two ranges took
# 15 ms and one 9.9 ms, as each process formats slower while the other runs
# and takes copy-on-write faults on the heap they share.  In the benchmark
# every contact_run trace is 133 341 rows and certify and hardware_sweep
# write none, so the floor decides only traces under 8 192 rows
_TRACE_SPLIT_ROWS = 4096

# _g17_csv writes a block of doubles as exactly the bytes "%.17g" % x gives.
# Each value gets a 48-byte slot that holds every character any of its
# forms can use; a keep mask, looked up by (sign, exponent class,
# significant digits), zeroes the rest and bytes.translate drops the zeros:
#
#   byte  0       "-"
#         2, 3    "0."            the 0.000ddd form, with up to three of
#         4..6    "000"           these zeros before the digits
#         7..23   d1 .. d17       the digits, trailing zeros included
#         24      "."
#         25..40  d2 .. d17       the digits again, for after a point
#         41..45  "e+dd[d]"       the exponent, NUL-padded
#         47      "," or "\n"
_G17_SLOT = 48
_G17_DIGITS = 7
_G17_POINT = 24
_G17_EXP = 41
# the slot's digit fields, each copied whole: "000" d1, d2 .. d17, and
# d2 .. d17 after the point
_G17_PARTS = np.dtype({
    "names": ["first", "digits", "after"],
    "formats": [np.uint32, "V16", "V16"],
    "offsets": [_G17_DIGITS - 3, _G17_DIGITS + 1, _G17_POINT + 1],
    "itemsize": _G17_SLOT,
})
_G17_FIXED = range(-4, 17)  # exponents written without "e"; the rest are one class
_G17_CLASSES = len(_G17_FIXED) + 1
_G17_E_MAX = 280  # |x| in [1e-280, 1e280] takes the numpy path
_G17_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_G17_BASE5 = np.array([125, 25, 5, 1])


def _g17_kept_bytes(negative: bool, exponent: int | None, sig: int) -> list[int]:
    """Slot bytes that spell a value with ``sig`` significant digits and
    decimal exponent ``exponent`` (None: written with "e")."""
    kept = [_G17_SLOT - 1, 0] if negative else [_G17_SLOT - 1]
    # digit k (1-based) sits at _G17_DIGITS + k - 1, and from k = 2 also at
    # _G17_POINT + k - 1, right after the point
    if exponent is None:  # d.ddde+XX
        kept += [_G17_DIGITS, *range(_G17_EXP, _G17_EXP + 5)]
        if sig > 1:
            kept += range(_G17_POINT, _G17_POINT + sig)
    elif exponent < 0:  # 0.000ddd
        kept += [2, 3, *range(_G17_DIGITS + 1 + exponent, _G17_DIGITS + sig)]
    else:  # ddd.ddd, with a point only when a digit follows it
        kept += range(_G17_DIGITS, _G17_DIGITS + exponent + 1)
        if sig > exponent + 1:
            kept += [_G17_POINT, *range(_G17_POINT + exponent + 1, _G17_POINT + sig)]
    return kept


class _G17Tables(NamedTuple):
    pow_hi: np.ndarray  # 10**(16 - e) as a double-double, e = -281 .. 280
    pow_lo: np.ndarray
    ascii4: np.ndarray  # "0000" .. "9999" as uint32 words
    zeros4: np.ndarray  # trailing zeros of "0000" .. "9999"
    trailing_zeros: np.ndarray  # of four groups, by their zeros4 in base 5
    exp_text: np.ndarray  # NUL, then "e-281" .. "e+280", as NUL-padded uint64 words
    exp_key: np.ndarray  # by exponent, the key of a positive 17-digit value
    keep: np.ndarray  # slot masks by key, the last one for a "%"-formatted value
    template: np.ndarray  # the constant slot bytes, ending "," and "\n"


@functools.cache
def _g17_tables() -> _G17Tables:
    """Lookup tables of _g17_csv, built on first use (under 10 ms)."""
    exponents = range(-_G17_E_MAX - 1, _G17_E_MAX + 1)  # floor(log10|x|) on the path
    pow_hi = np.empty(len(exponents))
    pow_lo = np.empty(len(exponents))
    for i, e in enumerate(exponents):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den  # integer division rounds correctly
        hi_num, hi_den = hi.as_integer_ratio()
        pow_hi[i] = hi
        pow_lo[i] = (num * hi_den - hi_num * den) / (den * hi_den)
    g = np.arange(10000)
    digits = g[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    ascii4 = digits.astype(np.uint8).view(np.uint32).ravel()
    zeros4 = sum((g % 10**k == 0).astype(np.int64) for k in range(1, 5))
    trailing_zeros = np.empty(5**4, np.int64)
    for z in itertools.product(range(5), repeat=4):
        text = "".join(f"{10**k % 10000:04d}" for k in z)  # groups with those zeros4
        trailing_zeros[np.dot(z, _G17_BASE5)] = len(text) - len(text.rstrip("0"))
    # in the slot's word of bytes 40..47, after the last digit's byte
    exp_text = np.array([b"\0e%+03d" % e for e in exponents], dtype="S8").view(np.uint64)
    classes = [e - _G17_FIXED.start if e in _G17_FIXED else _G17_CLASSES - 1 for e in exponents]
    exp_key = np.array(classes) * 17 + 16
    keep = np.zeros((2 * _G17_CLASSES * 17 + 1, _G17_SLOT), np.uint8)
    for neg in (False, True):
        for cls, e in enumerate([*_G17_FIXED, None]):
            for sig in range(1, 18):
                keep[(neg * _G17_CLASSES + cls) * 17 + sig - 1, _g17_kept_bytes(neg, e, sig)] = 255
    keep[-1, :24] = 255  # the text "%" gives, at most 24 bytes
    keep[-1, -1] = 255
    template = np.zeros((2, _G17_SLOT), np.uint8)
    template[:, :4] = np.frombuffer(b"-\x000.", np.uint8)
    template[:, _G17_POINT] = ord(".")
    template[:, -1] = np.frombuffer(b",\n", np.uint8)
    tables = _G17Tables(
        pow_hi, pow_lo, ascii4, zeros4, trailing_zeros, exp_text, exp_key,
        keep.view(np.uint64), template.view(np.uint64),
    )
    for table in tables:  # shared by every caller
        table.flags.writeable = False
    return tables


def _g17_digits(x: np.ndarray):
    """(n, e, slow) for a 1-D float64 array: n the 17 significant digits of
    |x| as an integer, e its decimal exponent, slow where they are unproven.

    For |x| in [1e-280, 1e280], y = |x|*10**(16 - floor(log10|x|)) is formed
    with Dekker's exact product against a double-double power of ten, to
    within 1e-14; n is y rounded to nearest.  A value is slow when it is
    zero, non-finite or outside that range, when the fraction of y lies
    within 2**-30 of one half (every exact tie does), or when y or n is not
    a 17-digit number (the exponent guess was off by one, or n carried).
    """
    tables = _g17_tables()
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    i = e + (_G17_E_MAX + 1)
    hi = tables.pow_hi.take(i)
    c = a * _G17_SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = hi * _G17_SPLIT
    h_hi = c - (c - hi)
    h_lo = hi - h_hi
    p = a * hi  # y rounded; above 2**53 on the path, so an integer
    r = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo + a * tables.pow_lo.take(i)
    floor_r = np.floor(r)
    frac = r - floor_r
    whole = p.astype(np.int64) + floor_r.astype(np.int64)
    n = whole + (frac > 0.5)
    slow = ~fast | (np.abs(frac - 0.5) < 2.0**-30) | (whole < 10**16) | (n >= 10**17)
    return n, e, slow


def _g17_slots(x: np.ndarray, newline_from: int) -> np.ndarray:
    """The masked slots, (len(x), 6) uint64, of the 1-D float64 array x:
    each one's nonzero bytes spell ``b"%.17g" % v`` and its separator, ","
    before ``newline_from`` and "\\n" from it on.

    Zeros are written directly; a value that ``_g17_digits`` calls slow is
    formatted by CPython's ``%``.
    """
    tables = _g17_tables()
    n, e, slow = _g17_digits(x)
    zero = x == 0.0
    slow &= ~zero
    n[zero] = 0

    # n as its first digit and four 4-digit groups; floor_divide by a
    # constant is faster than divmod
    top = n // 10**8
    low = n - top * 10**8
    first = top // 10**8
    mid = top - first * 10**8
    groups = np.empty((len(x), 4), np.int64)
    np.divmod(mid, 10**4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(low, 10**4, out=(groups[:, 2], groups[:, 3]))
    e += _G17_E_MAX + 1  # now the tables' row of each exponent
    key = tables.exp_key.take(e)
    key -= tables.trailing_zeros.take(tables.zeros4.take(groups) @ _G17_BASE5)
    key += np.signbit(x) * (_G17_CLASSES * 17)

    slots = np.repeat(tables.template, [newline_from, len(x) - newline_from], axis=0)
    slots[:, _G17_EXP // 8] |= tables.exp_text.take(e)
    parts = slots.view(_G17_PARTS)[:, 0]
    parts["first"] = tables.ascii4.take(first)
    parts["digits"] = parts["after"] = tables.ascii4.take(groups).view(_G17_PARTS["digits"])[:, 0]
    if slow.any():
        where = np.flatnonzero(slow)
        text = np.array([b"%.17g" % v for v in x[where].tolist()], dtype="S24")
        slots[where, :3] = text.view(np.uint64).reshape(-1, 3)
        key[where] = len(tables.keep) - 1
    slots &= tables.keep.take(key, axis=0)
    return slots


def _g17_csv(block: np.ndarray) -> bytes:
    """The rows of a 2-D float64 block as CSV text, every field byte for
    byte ``b"%.17g" % x``.

    Each run of equal bit patterns down a column is formatted once: a field
    is fresh where its bits differ from the field above it (-0.0 and 0.0,
    or two NaN payloads, differ), and a column's first row always is.  Only
    the fresh values, column by column, get slots, and every field then
    takes its run's slot.  A column-major block (``np.stack(columns).T``)
    gathers its fresh values without a strided pass.
    """
    rows, cols = block.shape
    if not block.size:
        return b""
    by_col = block.T
    bits = by_col.view(np.int64)
    fresh = np.empty((cols, rows), bool)
    fresh[:, 0] = True
    np.not_equal(bits[:, 1:], bits[:, :-1], out=fresh[:, 1:])
    run = np.cumsum(fresh)  # the fresh value each field repeats, from 1
    run -= 1
    slots = _g17_slots(by_col[fresh], int(run[(cols - 1) * rows]))  # the last column ends rows
    return slots.take(run.reshape(cols, rows).T, axis=0).tobytes().translate(None, b"\0")


def _write_rows(fh, columns, a: int, b: int) -> None:
    """Rows a to b of the trace's columns as CSV bytes, a block at a time,
    each block stacked by column so that ``_g17_csv`` reads a column's run
    of repeated values without a strided pass."""
    step = _CSV_CHUNK_FIELDS // len(columns)
    for i in range(a, b, step):
        fh.write(_g17_csv(np.stack([c[i : min(i + step, b)] for c in columns]).T))


def write_trace_csv(trace, path) -> None:
    """Write the signal record of a ``SimTrace``, one row per substep, full
    double precision: its first nine fields, with the forces named F_.

    Every field is ``"%.17g" % x`` byte for byte.  ``_g17_csv`` formats a
    block of rows at a time in numpy, each run of repeated values in a
    column once, so no whole-trace copy or per-value call is made.  When
    the process may run on two CPUs or more and each half of the rows holds
    at least ``_TRACE_SPLIT_ROWS``, a forked child formats the second half
    into an unlinked part file next to ``path`` while the caller formats the
    first straight into it; the caller then copies the part in through a
    64 KiB buffer.  A fork that fails (no process or memory left) leaves
    the second half to the caller.  Where ``os.fork`` or
    ``os.sched_getaffinity`` is missing (Windows, macOS), the caller runs
    more than one Python thread, one CPU is allowed or the trace is short,
    the caller formats every row.  The thread check sees Python threads
    only, not OS threads a library starts (OpenBLAS's pool): the child
    calls no BLAS routine, only numpy's elementwise formatting and file
    writes, and leaves by ``os._exit``.  Python 3.12 and later warn
    (``DeprecationWarning``) when such a process forks.  A probe that
    started an uncounted OS thread (``_thread.start_new_thread``) and then
    forked printed that warning under ``-W always`` on 3.12.1 and 3.13.0,
    and under ``-W error`` or ``PYTHONWARNINGS=error`` forked normally,
    printed nothing and exited 0: the warning cannot fail a write.  The
    bytes do not depend on the split.  On the shipped 80 s scenario (133 k
    rows, 2 vCPUs, alternating runs in one process) two halves took 0.10
    to 0.16 s and one process 0.14 to 0.16 s: what the child gains depends
    on how busy the host keeps the other CPU.  A child that fails makes the
    write raise ``OSError``.
    """
    import contextlib
    import os
    import shutil
    import tempfile
    import threading

    names = [f.name for f in dataclasses.fields(trace)[:9]]
    columns = [getattr(trace, name) for name in names]
    rows = len(trace.t)
    cut = rows
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        if len(os.sched_getaffinity(0)) > 1 and rows >= 2 * _TRACE_SPLIT_ROWS:
            cut = rows // 2
    with open(path, "wb") as fh, contextlib.ExitStack() as stack:
        pid = None
        if cut < rows:
            folder = os.path.dirname(os.path.abspath(path))
            part = stack.enter_context(tempfile.TemporaryFile(dir=folder))
            try:
                pid = os.fork()
            except OSError:  # no process or memory for it: the caller formats every row
                cut = rows
            if pid == 0:  # the child formats the second half and never returns
                code = 1
                try:
                    _write_rows(part, columns, cut, rows)
                    part.flush()
                    code = 0
                finally:
                    os._exit(code)
        try:
            fh.write(",".join(names).replace("f_", "F_").encode("ascii") + b"\n")
            _write_rows(fh, columns, 0, cut)
        finally:
            if pid:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if pid:
            if code:
                raise OSError(f"the trace CSV writer process exited with {code}")
            part.seek(0)
            shutil.copyfileobj(part, fh, 1 << 16)


def write_events_csv(trace, path) -> None:
    """Write sampler/hold events as kind,t rows ordered by time.

    Equal times keep the order sample, hold_m, hold_s.  The t field is
    ``"%.17g" % t``, formatted by ``_g17_csv`` as in the trace.  Only the
    times, the kinds (a byte each) and the sort order span the whole run;
    a block of rows at a time is gathered, formatted and joined as bytes.
    Equal times sit next to each other after the sort, so a block formats
    each distinct time once: at a delay of 0 every time is a sample and
    both holds.  About 0.4 us a row on the shipped scenario (40 k rows);
    formatting every row took 0.5 to 0.65 us, and one ``%`` per row 1 us.
    """
    names = np.array([b"sample,", b"hold_m,", b"hold_s,"], dtype=object)
    arrays = (trace.sample_events, trace.hold_events_m, trace.hold_events_s)
    t = np.concatenate(arrays)
    kind = np.repeat(np.arange(len(names), dtype=np.uint8), [len(a) for a in arrays])
    order = np.lexsort((kind, t))
    step = _CSV_CHUNK_FIELDS
    with open(path, "wb") as fh:
        fh.write(b"kind,t\n")
        for a in range(0, len(order), step):
            rows = order[a : a + step]
            block = t[rows]
            # a new time is a new bit pattern (-0.0 and 0.0 apart); the first
            # row is formatted even where it ties with the last block's
            bits = block.view(np.int64)
            fresh = np.empty(len(block), dtype=bool)
            fresh[0] = True
            np.not_equal(bits[1:], bits[:-1], out=fresh[1:])
            times = _g17_csv(block[fresh, None]).splitlines(True)
            lines = np.array(times, dtype=object)[np.cumsum(fresh) - 1]
            fh.write(b"".join((names[kind[rows]] + lines).tolist()))
