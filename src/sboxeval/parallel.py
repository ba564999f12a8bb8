"""The transform engine: the butterfly over blocks of mask-major rows.

Each output mask v owns one contiguous row of 2^n entries.  The masks are
split into balanced contiguous ranges, one worker thread per range, and each
worker walks its range one block of rows at a time: it fills the block's
polarity rows (``polarity_rows``), butterflies the whole block while it is
still in cache (``fwht_rows_in_place``), and writes the block's per-mask
nonlinearities.  Every step is one numpy call per block, so the per-call
cost is paid per block rather than per row, and the threads spend their time
in numpy code that runs without the interpreter lock.

The two modes share that loop and differ only in where a block lives.  In
retain mode it is a view of the retained matrix, ``RETAIN_BLOCK_ENTRIES``
entries (256 KiB) at a time, so no storage beyond the spectrum is needed.
In stream mode it is a per-worker buffer of one row, or of 2 KiB
(``STREAM_BLOCK_ENTRIES`` entries) when a row is smaller, and only the
maxima are kept.  Workers own disjoint rows, buffers and maxima slots, so the
data plane needs no locks; the only synchronization is the completion
barrier.  Results are bit-identical for every worker count.  Every method
of ``nonlinearity.METHODS`` except ``rowmajor`` and ``bruteforce`` is this
one call: ``fused`` runs it on one worker, and ``transposed`` scans the
spectrum that one worker retains.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .memory import (
    RETAIN_BLOCK_ENTRIES,
    STREAM_BLOCK_ENTRIES,
    block_rows,
    check_budget,
    memory_estimate,
    spectrum_allocations,
)
from .sbox import SBox, polarity_rows
from .walsh import ColumnMaxima, WalshSpectrum, column_nonlinearity, fwht_rows_in_place


def partition_columns(total_columns: int, workers: int) -> tuple[tuple[int, int], ...]:
    """Split masks 1..total_columns into at most ``workers`` balanced ranges.

    Returns disjoint, ordered, half-open ``(first, end)`` ranges covering
    {1, ..., total_columns}.  Sizes differ by at most one; the remainder is
    spread over the leading ranges so no column is dropped.  More workers
    than columns degrades to one singleton range per column.
    """
    if total_columns < 1:
        raise ValueError(f"total_columns must be >= 1, got {total_columns}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    count = min(workers, total_columns)
    base, extra = divmod(total_columns, count)
    bounds = [1 + i * base + min(i, extra) for i in range(count + 1)]
    return tuple(zip(bounds, bounds[1:]))


def default_workers() -> int:
    return os.cpu_count() or 1


def fwht_parallel(
    s: SBox,
    workers: int | None = None,
    mode: str = "retain",
    max_bytes: int | None = None,
    timings: dict | None = None,
) -> tuple[WalshSpectrum | None, ColumnMaxima]:
    """Fused transform with columns spread across a fresh worker pool.

    Returns the retained spectrum (None in stream mode) and the per-column
    nonlinearities.  Output is bit-identical for every worker count.  When
    ``timings`` is given, it receives ``build_s`` (budget check and storage
    allocation) and ``transform_s`` (polarity fill, butterfly and maxima,
    block by block in the workers).
    """
    if mode not in ("retain", "stream"):
        raise ValueError(f"mode must be 'retain' or 'stream', got {mode!r}")
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    total = (1 << s.m) - 1
    ranges = partition_columns(total, workers)
    maxima = np.zeros(total, dtype=np.int64)
    pw = 1 << s.n

    t0 = time.perf_counter()
    check_budget(
        memory_estimate(s.n, s.m, mode=mode, workers=len(ranges)), max_bytes
    )
    if mode == "retain":
        step = block_rows(s.n, RETAIN_BLOCK_ENTRIES)
        rows = np.empty((total, pw), dtype=np.int32)
        storage = [rows]
    else:
        step = block_rows(s.n, STREAM_BLOCK_ENTRIES)
        rows = None
        storage = [np.empty((step, pw), dtype=np.int32) for _ in ranges]
    charged = sum(a.nbytes for a in storage)
    spectrum_allocations.charge(charged)

    def work(worker: int, first: int, end: int) -> None:
        for lo in range(first, end, step):
            hi = min(lo + step, end)
            # The modes differ only in where the block of masks lo..hi-1 lives.
            if rows is not None:
                block = rows[lo - 1 : hi - 1]
            else:
                block = storage[worker][: hi - lo]
            polarity_rows(s, lo, hi, block)
            maxima[lo - 1 : hi - 1] = column_nonlinearity(pw, fwht_rows_in_place(block))

    t1 = time.perf_counter()
    try:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            futures = [
                pool.submit(work, i, first, end)
                for i, (first, end) in enumerate(ranges)
            ]
            for future in futures:  # completion barrier; re-raises worker errors
                future.result()
        t2 = time.perf_counter()
    finally:
        spectrum_allocations.release(charged)

    if timings is not None:
        timings["build_s"] = t1 - t0
        timings["transform_s"] = t2 - t1

    spectrum = WalshSpectrum(s.n, s.m, rows) if rows is not None else None
    return spectrum, ColumnMaxima(s.n, s.m, maxima)

