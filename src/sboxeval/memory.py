"""Memory budgets and accounting for spectrum storage.

Full spectra grow as 2^(n+m) elements, so every operation that materializes
one first checks ``memory_estimate`` against an optional byte budget, and
records what it actually allocates.  The tracker only counts buffers that
hold polarity/spectrum data (the full matrix in retain mode, per-worker
block buffers in stream mode); transient arithmetic temporaries are not
spectrum storage.

Rows are filled and transformed in blocks of whole rows.  A retain-mode
block is a view of the retained matrix of about ``RETAIN_BLOCK_ENTRIES``
entries (256 KiB of int32, sized for L2); a stream-mode block is a
per-worker buffer of one row, or of ``STREAM_BLOCK_ENTRIES`` entries (2 KiB)
when a row is smaller.  The stream block is kept that small so that a
stream run still fits budgets of a few rows: an 8x8 box on two workers
needs 7 KiB.
"""

from __future__ import annotations

import os
import threading


RETAIN_BLOCK_ENTRIES = 1 << 16
STREAM_BLOCK_ENTRIES = 1 << 9


def block_rows(n: int, entries: int) -> int:
    """Whole rows of 2^n entries in a block of ``entries`` entries (at least one)."""
    return max(1, entries >> n)


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
    """Counts live bytes of spectrum storage and the peak since last reset.

    Thread-safe: parallel workers charge their column buffers concurrently.
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


def memory_estimate(
    n: int,
    m: int,
    element_width: int = 4,
    mode: str = "retain",
    workers: int = 1,
) -> int:
    """Bytes of spectrum + maxima storage an evaluation will need.

    Retain mode holds the whole (2^m - 1) x 2^n matrix; stream mode holds one
    block buffer per worker plus one spare, each the larger of one row and
    ``STREAM_BLOCK_ENTRIES`` entries (2 KiB).  Both include the
    per-mask maxima array.  The result may exceed physical memory; callers
    decide.
    """
    maxima = (1 << m) * element_width
    if mode == "retain":
        return ((1 << m) - 1) * (1 << n) * element_width + maxima
    if mode == "stream":
        block = max(1 << n, STREAM_BLOCK_ENTRIES)
        return (workers + 1) * block * element_width + maxima
    raise ValueError(f"mode must be 'retain' or 'stream', got {mode!r}")


def default_budget() -> int | None:
    """75% of physical memory, or None when the platform does not expose it."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") * 3 // 4
    except (ValueError, OSError, AttributeError):
        return None
