"""The transform engine: the butterfly over blocks of mask-major rows.

Each output mask v owns one contiguous row of 2^n entries.  The storage plan
(``memory.storage_plan``) cuts the masks into blocks and gives each worker
thread a contiguous run of whole blocks.  A worker walks its run one block
at a time: it fills the block's polarity rows (``polarity_rows``),
butterflies the whole block while it is still in cache
(``fwht_rows_in_place``), and writes the block's per-mask nonlinearities.
Every step is one numpy call per block, so the per-call cost is paid per
block rather than per row, and the threads spend their time in numpy code
that runs without the interpreter lock.

The two modes share that loop and differ only in where a block lives; the
plan sets the block size, the runs and every buffer.  In retain mode a
block is a view of the retained matrix, about 256 KiB at a time, so no
storage beyond the spectrum is needed; a box whose matrix fits one block
(n + m <= 16) runs on one thread.  In stream mode a block is a per-worker
buffer of one row, or of 2 KiB when a row is smaller, and only the int32
maxima are kept.  Workers own disjoint rows, buffers and maxima slots, so
the data plane needs no locks; the only synchronization is the completion
barrier.  Results are bit-identical for every worker count.  Every method
of ``nonlinearity.METHODS`` except ``rowmajor`` and ``bruteforce`` is this
one call: ``fused`` runs it on one worker, and ``transposed`` scans the
spectrum that one worker retains.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

from .memory import allocate_storage, storage_plan
from .sbox import SBox, polarity_rows
from .walsh import ColumnMaxima, WalshSpectrum, column_nonlinearity, fwht_rows_in_place


def default_workers() -> int:
    return os.cpu_count() or 1


def fwht_parallel(
    s: SBox,
    workers: int | None = None,
    mode: str = "retain",
    max_bytes: int | None = None,
    timings: dict | None = None,
) -> tuple[WalshSpectrum | None, ColumnMaxima]:
    """Fused transform with the plan's runs of blocks spread across a fresh pool.

    Returns the retained spectrum (None in stream mode) and the per-column
    nonlinearities.  Output is bit-identical for every worker count.  When
    ``timings`` is given, it receives ``transform_s``: polarity fill,
    butterfly and maxima, block by block in the workers.
    """
    if workers is None:
        workers = default_workers()

    plan = storage_plan(s.n, s.m, mode, workers)
    step, end, pw = plan.rows_per_block, 1 << s.m, 1 << s.n

    with allocate_storage(plan, max_bytes) as (*blocks, maxima):
        rows = blocks[0] if mode == "retain" else None

        def work(worker: int, starts: range) -> None:
            for lo in starts:
                hi = min(lo + step, end)
                # The modes differ only in where the block of masks lo..hi-1 lives.
                block = rows[lo - 1 : hi - 1] if rows is not None else blocks[worker][: hi - lo]
                polarity_rows(s, lo, hi, block)
                maxima[lo - 1 : hi - 1] = column_nonlinearity(pw, fwht_rows_in_place(block))

        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=len(plan.runs)) as pool:
            # Consuming the results is the completion barrier; it re-raises worker errors.
            list(pool.map(work, range(len(plan.runs)), plan.runs))
        t1 = time.perf_counter()

    if timings is not None:
        timings["transform_s"] = t1 - t0

    spectrum = WalshSpectrum(s.n, s.m, rows) if rows is not None else None
    return spectrum, ColumnMaxima(s.n, s.m, maxima)
