"""The transform engine: the butterfly over mask-major spectrum columns.

Each output mask v owns one contiguous row of 2^n entries.  The engine
butterflies every row, folds the row's max |W| into a per-component
nonlinearity on the last pass, and splits the masks into balanced contiguous
ranges, one worker thread per range.  Workers own disjoint rows and maxima
slots, so the data plane needs no locks; the only synchronization is the
completion barrier.  Retain mode keeps the transformed matrix; stream mode
gives each worker one reusable column buffer and keeps only the maxima.
Results are bit-identical for every worker count.  On one worker the engine
is the fused transform (``fwht_fused``), and its retained spectrum is the
transposed transform (``fwht_transposed``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .memory import check_budget, memory_estimate, spectrum_allocations
from .sbox import SBox, polarity_row, polarity_truth_table
from .walsh import ColumnMaxima, WalshSpectrum, column_nonlinearity, fwht_column_in_place


@dataclass(frozen=True)
class ColumnPartition:
    """Disjoint, ordered, half-open mask ranges covering {1, ..., total}."""

    ranges: tuple[tuple[int, int], ...]
    worker_count: int


def partition_columns(total_columns: int, workers: int) -> ColumnPartition:
    """Split ``total_columns`` masks into at most ``workers`` balanced ranges.

    Sizes differ by at most one; the remainder is spread over the leading
    ranges so no column is dropped.  More workers than columns degrades to
    one singleton range per column.
    """
    if total_columns < 1:
        raise ValueError(f"total_columns must be >= 1, got {total_columns}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    count = min(workers, total_columns)
    base, extra = divmod(total_columns, count)
    ranges = []
    start = 1
    for i in range(count):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ColumnPartition(tuple(ranges), workers)


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
    ``timings`` is given, it receives ``build_s`` (budget check and polarity
    build) and ``transform_s`` (butterfly and maxima).
    """
    if mode not in ("retain", "stream"):
        raise ValueError(f"mode must be 'retain' or 'stream', got {mode!r}")
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    part = partition_columns((1 << s.m) - 1, workers)
    maxima = np.zeros((1 << s.m) - 1, dtype=np.int64)
    pw = 1 << s.n

    t0 = time.perf_counter()
    if mode == "retain":
        rows = polarity_truth_table(s, max_bytes).rows
        spectrum_allocations.charge(rows.nbytes)

        def work(rng: tuple[int, int]) -> None:
            for v in range(*rng):
                _, max_abs = fwht_column_in_place(rows[v - 1])
                maxima[v - 1] = column_nonlinearity(pw, max_abs)

    else:
        check_budget(
            memory_estimate(s.n, s.m, mode="stream", workers=len(part.ranges)),
            max_bytes,
        )
        rows = None

        def work(rng: tuple[int, int]) -> None:
            buf = np.empty(pw, dtype=np.int32)
            spectrum_allocations.charge(buf.nbytes)
            try:
                for v in range(*rng):
                    polarity_row(s, v, out=buf)
                    _, max_abs = fwht_column_in_place(buf)
                    maxima[v - 1] = column_nonlinearity(pw, max_abs)
            finally:
                spectrum_allocations.release(buf.nbytes)

    t1 = time.perf_counter()
    try:
        with ThreadPoolExecutor(max_workers=len(part.ranges)) as pool:
            futures = [pool.submit(work, rng) for rng in part.ranges]
            for future in futures:  # completion barrier; re-raises worker errors
                future.result()
        t2 = time.perf_counter()
    finally:
        if rows is not None:
            spectrum_allocations.release(rows.nbytes)

    if timings is not None:
        timings["build_s"] = t1 - t0
        timings["transform_s"] = t2 - t1

    spectrum = WalshSpectrum(s.n, s.m, rows) if rows is not None else None
    return spectrum, ColumnMaxima(s.n, s.m, maxima)


def fwht_fused(
    s: SBox,
    mode: str = "retain",
    max_bytes: int | None = None,
    timings: dict | None = None,
) -> tuple[WalshSpectrum | None, ColumnMaxima]:
    """The engine on one worker: spectrum (None in stream mode) and maxima."""
    return fwht_parallel(s, 1, mode, max_bytes, timings)


def fwht_transposed(
    s: SBox,
    max_bytes: int | None = None,
    timings: dict | None = None,
) -> WalshSpectrum:
    """The engine's retained spectrum on one worker."""
    return fwht_parallel(s, 1, "retain", max_bytes, timings)[0]
