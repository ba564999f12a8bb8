"""The storage plan, byte budgets and accounting for spectrum storage.

Full spectra grow as 2^(n+m) elements, so one function, ``storage_plan``,
decides the whole schedule of an evaluation: the rows per block, each
worker's contiguous run of whole blocks, the kernel, and the shape of every
4-byte buffer.  ``memory_estimate`` is the plan's byte total, and
``allocate_storage`` checks that total against an optional byte budget,
allocates the plan's buffers and charges them to ``spectrum_allocations``.

A retain-mode block is a view of the retained matrix of about 2^16 entries
(256 KiB, sized for L2).  A stream-mode block is a per-worker buffer of one
row, or of 2^9 entries (2 KiB) when a row is smaller, so that a stream run
fits budgets of a few rows: an 8x8 box on two workers needs 5,116 bytes.
No block holds more rows than there are masks, and no more workers run than
there are blocks, so only the last block of an evaluation is partial and
the estimate is exact for any requested worker count.

Rows of 2^16 entries and up (n >= ``KRONECKER_MIN_BITS``), where every
block holds one row, use the float32 Kronecker kernel when numpy's OpenBLAS
is at hand (``blas.openblas``).  Its plan adds one scratch block per worker
and one float32 Sylvester matrix of the largest factor (256 KiB for H_8).
Both modes add the int32 per-mask maxima.  numpy's ufunc buffers (up to
three of ``np.getbufsize()`` elements per running worker) and small
per-block temporaries are transient and not planned.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import blas

_RETAIN_BLOCK_ENTRIES = 1 << 16
_STREAM_BLOCK_ENTRIES = 1 << 9

# Rows of 2^KRONECKER_MIN_BITS entries and up use the float32 Kronecker kernel.
# Shorter rows keep the integer butterfly.
KRONECKER_MIN_BITS = 16
# float32 holds every integer of magnitude up to 2^24 exactly.
FLOAT32_EXACT_BITS = 24
_FACTOR_MAX_BITS = 8


class MemoryBudgetError(RuntimeError):
    """Requested spectrum storage exceeds the configured byte budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"spectrum storage needs {required:,} bytes but the budget is "
            f"{budget:,} bytes"
        )


class AllocationTracker:
    """Counts live bytes of planned storage and the peak since last reset.

    ``allocate_storage`` charges a whole plan once, from the calling thread,
    before any worker starts, and releases it when the evaluation ends; the
    lock guards concurrent evaluations.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current = 0
        self._peak = 0

    def charge(self, nbytes: int) -> None:
        with self._lock:
            self._current += nbytes
            if self._current > self._peak:
                self._peak = self._current

    def release(self, nbytes: int) -> None:
        with self._lock:
            self._current -= nbytes

    def reset_peak(self) -> None:
        with self._lock:
            self._peak = self._current

    @property
    def current_bytes(self) -> int:
        return self._current

    @property
    def peak_bytes(self) -> int:
        return self._peak


# Process-wide accounting hook; tests read peak_bytes around an operation.
spectrum_allocations = AllocationTracker()


def check_budget(required: int, max_bytes: int | None) -> None:
    if max_bytes is not None and required > max_bytes:
        raise MemoryBudgetError(required, max_bytes)


@dataclass(frozen=True)
class StoragePlan:
    """Rows per block, each worker's run of block starts, the kernel and every buffer.

    ``runs[i]`` holds the first mask of each block worker i evaluates; the
    block of masks lo.. covers ``rows_per_block`` masks, or fewer in the
    last block.  ``factors`` are the Sylvester factor sizes of the Kronecker
    kernel, or empty for the integer butterfly.  ``shapes`` lists the 4-byte
    buffers: the retained matrix or one block per run, then for the
    Kronecker kernel one scratch block per run and the Sylvester matrix of
    the largest factor, and the maxima last.
    """

    rows_per_block: int
    runs: tuple[range, ...]
    shapes: tuple[tuple[int, ...], ...]
    factors: tuple[int, ...] = ()

    @property
    def nbytes(self) -> int:
        return sum(math.prod(shape) for shape in self.shapes) * 4


def storage_plan(n: int, m: int, mode: str = "retain", workers: int = 1) -> StoragePlan:
    """The blocks, runs, kernel and buffers of an evaluation of an n x m box.

    The masks 1..2^m-1 are cut into blocks and the blocks into at most
    ``workers`` contiguous runs whose lengths differ by at most one block.
    Retain mode holds the whole (2^m - 1) x 2^n matrix; stream mode holds
    one block buffer per run.  The Kronecker kernel (``kernel_factors``)
    adds a scratch block per run and one Sylvester matrix.  Both modes hold
    the (2^m - 1) per-mask maxima.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    total, row = (1 << m) - 1, 1 << n
    if mode not in ("retain", "stream"):
        raise ValueError(f"mode must be 'retain' or 'stream', got {mode!r}")
    entries = _RETAIN_BLOCK_ENTRIES if mode == "retain" else _STREAM_BLOCK_ENTRIES
    step = min(total, max(1, entries >> n))
    starts = range(1, total + 1, step)
    k = min(workers, len(starts))
    runs = tuple(starts[i * len(starts) // k : (i + 1) * len(starts) // k] for i in range(k))
    blocks = ((total, row),) if mode == "retain" else ((step, row),) * k
    factors = kernel_factors(n)
    if factors:
        blocks += ((step, row),) * k + ((1 << factors[0],) * 2,)
    return StoragePlan(step, runs, blocks + ((total,),), factors)


def kernel_factors(n: int) -> tuple[int, ...]:
    """Sylvester factor sizes of the Kronecker kernel for rows of 2^n entries.

    Empty, meaning the integer butterfly, below ``KRONECKER_MIN_BITS`` or
    without numpy's OpenBLAS thread control.
    """
    if n < KRONECKER_MIN_BITS or blas.openblas() is None:
        return ()
    return sylvester_factors(n)


def sylvester_factors(n: int) -> tuple[int, ...]:
    """Split n bits into the fewest near-equal factors of at most 8 bits, largest first.

    H_n is the Kronecker product of the factors' Sylvester matrices.  Every
    partial sum of the float32 products is an integer of magnitude at most
    2^n, so the split refuses n above ``FLOAT32_EXACT_BITS``, where float32
    stops being exact.
    """
    if not 1 <= n <= FLOAT32_EXACT_BITS:
        raise ValueError(f"float32 products are exact for 1 <= n <= {FLOAT32_EXACT_BITS}, got n = {n}")
    k = -(-n // _FACTOR_MAX_BITS)
    return tuple(n // k + (i < n % k) for i in range(k))


def memory_estimate(n: int, m: int, mode: str = "retain", workers: int = 1) -> int:
    """Bytes of planned storage an evaluation needs (``storage_plan``'s total).

    The result may exceed physical memory; callers decide.
    """
    return storage_plan(n, m, mode, workers).nbytes


@contextlib.contextmanager
def allocate_storage(plan: StoragePlan, max_bytes: int | None, order: str = "C"):
    """Check the plan against the budget, then yield its buffers, charged while in use.

    Every buffer is int32; the Kronecker kernel reads its own as float32 views.
    """
    check_budget(plan.nbytes, max_bytes)
    buffers = [np.empty(shape, dtype=np.int32, order=order) for shape in plan.shapes]
    spectrum_allocations.charge(plan.nbytes)
    try:
        yield buffers
    finally:
        spectrum_allocations.release(plan.nbytes)


def default_budget() -> int | None:
    """75% of physical memory, or None when the platform does not expose it."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") * 3 // 4
    except (ValueError, OSError, AttributeError):
        return None
