"""The transform engine: the Walsh transform over blocks of mask-major rows.

Each output mask v owns one contiguous row of 2^n entries.  The storage plan
(``memory.storage_plan``) cuts the masks into blocks and gives each worker
thread a contiguous run of whole blocks.  A worker walks its run one block
at a time: it fills the block's polarity rows (``polarity_rows``),
transforms the whole block while it is still in cache, and writes the
block's per-mask nonlinearities.  Every step is one numpy call per block,
so the per-call cost is paid per block rather than per row, and the threads
spend their time in numpy code that runs without the interpreter lock.

The plan also picks the kernel from n.  Rows shorter than 2^16 entries take
the integer butterfly (``fwht_rows_in_place``), one numpy call per stage.
Rows of 2^16 entries and up take the float32 Kronecker kernel
(``fwht_kronecker``), one BLAS product per Sylvester factor, with a
per-worker scratch block; while the pool runs, numpy's OpenBLAS is pinned to
one thread (``blas.single_threaded``), so pool and BLAS threads together
equal the worker count.  Without numpy's OpenBLAS the integer butterfly runs
at every n.

The two modes share that loop and differ only in where a block lives; the
plan sets the block size, the runs and every buffer.  In retain mode a
block is a view of the retained matrix, about 256 KiB at a time, so no
storage beyond the spectrum and the kernel's is needed; a box whose matrix
fits one block (n + m <= 16) runs on one thread.  In stream mode a block is
a per-worker buffer of one row, or of 2 KiB when a row is smaller, and only
the int32 maxima are kept.  Workers own disjoint rows, buffers and maxima
slots, so the data plane needs no locks; the only synchronization is the
completion barrier.  Results are bit-identical for every worker count and
either kernel.  Every method of ``nonlinearity.METHODS`` except
``rowmajor`` and ``bruteforce`` is this one call: ``fused`` runs it on one
worker, and ``transposed`` scans the spectrum that one worker retains.
"""

from __future__ import annotations

import contextlib
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import blas
from .memory import allocate_storage, storage_plan
from .sbox import SBox, identity_sbox, polarity_rows
from .walsh import (
    ColumnMaxima,
    WalshSpectrum,
    column_nonlinearity,
    fwht_kronecker,
    fwht_rows_in_place,
)


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
    transform and maxima, block by block in the workers.
    """
    if workers is None:
        workers = default_workers()

    plan = storage_plan(s.n, s.m, mode, workers)
    step, end, pw, k = plan.rows_per_block, 1 << s.m, 1 << s.n, len(plan.runs)

    with allocate_storage(plan, max_bytes) as (*buffers, maxima):
        rows = buffers[0] if mode == "retain" else None
        # The Kronecker kernel's buffers: a scratch block per run, then H of the largest factor.
        scratch = buffers[1 if rows is not None else k :]
        if plan.factors:
            hadamard = scratch[k].view(np.float32)
            polarity_rows(identity_sbox(plan.factors[0]), 0, len(hadamard), hadamard)

        def work(worker: int, starts: range) -> None:
            for lo in starts:
                hi = min(lo + step, end)
                # The modes differ only in where the block of masks lo..hi-1 lives.
                block = rows[lo - 1 : hi - 1] if rows is not None else buffers[worker][: hi - lo]
                if plan.factors:
                    top = fwht_kronecker(s, lo, hi, block, scratch[worker], hadamard, plan.factors)
                else:
                    polarity_rows(s, lo, hi, block)
                    top = fwht_rows_in_place(block)
                maxima[lo - 1 : hi - 1] = column_nonlinearity(pw, top)
                del top  # freed before the next block, not held through its transform

        pin = blas.single_threaded() if plan.factors else contextlib.nullcontext()
        t0 = time.perf_counter()
        with pin, ThreadPoolExecutor(max_workers=k) as pool:
            # Consuming the results is the completion barrier; it re-raises worker errors.
            list(pool.map(work, range(k), plan.runs))
        t1 = time.perf_counter()

    if timings is not None:
        timings["transform_s"] = t1 - t0

    spectrum = WalshSpectrum(s.n, s.m, rows) if rows is not None else None
    return spectrum, ColumnMaxima(s.n, s.m, maxima)
