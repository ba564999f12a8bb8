"""Independent reference for the benchmark's correctness checks.

Nothing here imports sboxeval.  The Walsh spectrum of an n x m box is
computed as a Hadamard-matrix product: with x = x_hi * 2^b + x_lo and
n = a + b, the spectrum column of output mask v, reshaped to 2^a x 2^b, is
H_a @ P_v @ H_b, where P_v is the +/-1 polarity of v . S(x) and H_k is the
Sylvester matrix H_k[i, j] = (-1)^{popcount(i AND j)} (Fino & Algazi, "Unified
matrix treatment of the fast Walsh-Hadamard transform", IEEE TC 1976).  Every
partial sum is an integer of magnitude at most 2^n <= 2^24 < 2^53, so float64
arithmetic is exact.  Masks are processed in blocks of about 2^20 entries, so
the reference never holds a whole large spectrum.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

BLOCK_ENTRIES = 1 << 20
EXACT_BITS = 24


def sylvester(k: int) -> np.ndarray:
    i = np.arange(1 << k, dtype=np.uint32)
    return np.where(np.bitwise_count(i[:, None] & i[None, :]) & 1, -1.0, 1.0)


def spectrum_blocks(table: np.ndarray, n: int, m: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first mask, W) with W[k, u] = W(u, first + k) as int64, masks 1..2^m-1."""
    if n > EXACT_BITS:
        raise ValueError(f"float64 reference is exact only up to n = {EXACT_BITS}")
    a = n // 2
    b = n - a
    ha, hb = sylvester(a), sylvester(b)
    rows_a, cols_b = 1 << a, 1 << b
    table = np.asarray(table, dtype=np.uint32)
    block = max(1, BLOCK_ENTRIES >> n)
    for first in range(1, 1 << m, block):
        masks = np.arange(first, min(first + block, 1 << m), dtype=np.uint32)
        k = masks.size
        polarity = 1.0 - 2.0 * (np.bitwise_count(masks[:, None] & table[None, :]) & 1)
        # P @ H_b for every mask as one matrix product, then H_a from the left.
        right = (polarity.reshape(k * rows_a, cols_b) @ hb).reshape(k, rows_a, cols_b)
        left = ha @ right.transpose(1, 0, 2).reshape(rows_a, k * cols_b)
        spectrum = left.reshape(rows_a, k, cols_b).transpose(1, 0, 2).reshape(k, 1 << n)
        yield first, spectrum.astype(np.int64)


def check_box(
    table: np.ndarray,
    n: int,
    m: int,
    nl: int,
    argmin_v: int,
    spectrum: np.ndarray | None = None,
) -> list[str]:
    """Compare one evaluation with the reference; return what disagrees (empty if all agrees).

    ``nl`` and ``argmin_v`` must equal the reference nonlinearity and the
    smallest mask attaining it.  A retained ``spectrum`` (rows = masks
    1..2^m-1) must equal the reference row for row, satisfy Parseval
    (sum_u W(u, v)^2 = 2^{2n}) and, when the box is a permutation, have
    W(0, v) = 0 (balanced components).
    """
    failures: list[str] = []
    balanced = n == m and np.unique(table).size == table.size
    best, best_v = -1, 0
    for first, ref in spectrum_blocks(table, n, m):
        row_max = np.abs(ref).max(axis=1)
        k = int(np.argmax(row_max))  # first occurrence = smallest mask
        if row_max[k] > best:
            best, best_v = int(row_max[k]), first + k
        if spectrum is None:
            continue
        got = spectrum[first - 1 : first - 1 + ref.shape[0]].astype(np.int64)
        if not np.array_equal(got, ref):
            failures.append(f"spectrum differs from the reference in masks {first}..{first + ref.shape[0] - 1}")
        if not np.all(np.einsum("ij,ij->i", got, got) == 1 << (2 * n)):
            failures.append(f"Parseval fails in masks {first}..{first + ref.shape[0] - 1}")
        if balanced and np.any(got[:, 0] != 0):
            failures.append(f"W(0, v) != 0 in masks {first}..{first + ref.shape[0] - 1}")
    ref_nl = ((1 << n) - best) // 2
    if (nl, argmin_v) != (ref_nl, best_v):
        failures.append(f"nl {nl} at v = {argmin_v}, reference {ref_nl} at v = {best_v}")
    return failures
