"""Walsh-Hadamard spectra of S-boxes: kernels, oracle and layout baseline.

The spectrum entry W(u, v) is the signed correlation count
sum_x (-1)^{g_v(x) XOR <u, x>}; one fixed output mask v gives one spectrum
column of 2^n entries.  This module holds the pieces every route shares:

* ``walsh_direct``         -- literal evaluation of the defining sum (the oracle)
* ``fwht_rows_in_place``   -- the integer butterfly: it transforms a whole
                              block of rows with one numpy call per step and
                              returns each row's max |W|
* ``fwht_kronecker``       -- the float32 kernel for rows of 2^16 entries and
                              up: fill and transform of a block by one BLAS
                              product per Sylvester factor of H_n
* ``fwht_column_in_place`` -- the butterfly over a single (possibly
                              strided) column, a one-row block
* ``row_max_abs``          -- each row's max |W|, the one max-|W| idiom
* ``fwht_rowmajor``        -- the butterfly over strided columns of an
                              x-major store, one column at a time, kept as the
                              slow baseline of the layout experiment

The fast engine lives in ``parallel.fwht_parallel``: workers fill cache-sized
blocks of contiguous mask-major rows and transform each block while it is
still in cache, with the kernel the storage plan picks from n.  Every route
produces bit-identical integer spectra.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import IO

import numpy as np

from .memory import allocate_storage, storage_plan
from .sbox import SBox, polarity_rows


@dataclass(frozen=True)
class WalshSpectrum:
    """Mask-major spectrum: rows[v-1][u] = W(u, v) for v = 1..2^m-1.

    ``rows`` may be a strided view: ``fwht_rowmajor`` returns its x-major
    store, whose rows are not contiguous.
    """

    n: int
    m: int
    rows: np.ndarray = field(repr=False)

    def value(self, u: int, v: int) -> int:
        if v == 0:
            # The zero mask is not stored; its spectrum is the constant row.
            return (1 << self.n) if u == 0 else 0
        return int(self.rows[v - 1, u])


@dataclass(frozen=True)
class ColumnMaxima:
    """Per-component nonlinearities: values[v-1] = (2^n - max_u |W(u,v)|) / 2."""

    n: int
    m: int
    values: np.ndarray = field(repr=False)


def walsh_direct(s: SBox, u: int, v: int) -> int:
    """Evaluate one spectrum entry straight from the definition.

    Sums (-1)^{parity(v AND S(x)) XOR parity(u AND x)} over all 2^n inputs.
    Exact and exponential; exists purely as the correctness oracle for the
    transform variants.
    """
    if not (0 <= u < (1 << s.n)):
        raise IndexError(f"input mask {u} out of range 0..{(1 << s.n) - 1}")
    if not (0 <= v < (1 << s.m)):
        raise IndexError(f"output mask {v} out of range 0..{(1 << s.m) - 1}")
    x = np.arange(1 << s.n, dtype=np.uint32)
    exponent = (np.bitwise_count(s.table & np.uint32(v)) ^ np.bitwise_count(x & np.uint32(u))) & np.uint8(1)
    ones = int(np.sum(exponent, dtype=np.int64))
    return (1 << s.n) - 2 * ones


def fwht_rows_in_place(block: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard butterfly over every row of an (R, 2^k) block.

    For each stage j = 1, 2, ..., 2^k / 2 and every index pair (i, i+j) with
    (i AND j) == 0, replaces (a, b) with (a + b, a - b) -- one numpy call per
    arithmetic step covers all R rows, so the per-call cost is paid once per
    block, not once per row.  Accepts any view whose rows are uniformly
    strided, so it runs on contiguous mask-major blocks and on strided
    x-major columns alike.

    Returns ``row_max_abs`` of the block, read after the last stage, when
    every entry holds its final spectrum value.
    """
    rows, length = block.shape
    if length == 0 or (length & (length - 1)) != 0:
        raise ValueError(f"row length must be a power of two, got {length}")
    j = 1
    while j < length:
        pairs = block.reshape(rows, -1, 2, j)
        # Runs of j < 8 contiguous pairs are too short for numpy's inner loop;
        # one strided call per offset k gives the same update long runs.
        for k in range(j) if j < 8 else (slice(None),):
            lo = pairs[:, :, 0, k]
            hi = pairs[:, :, 1, k]
            # (a, b) <- (a + b, a - b) without a scratch block:
            #   hi = a - b,  lo = 2a - (a - b) = a + b
            np.subtract(lo, hi, out=hi)
            lo *= 2
            np.subtract(lo, hi, out=lo)
        j <<= 1
    return row_max_abs(block)


def fwht_kronecker(
    s: SBox,
    lo: int,
    hi: int,
    block: np.ndarray,
    scratch: np.ndarray,
    hadamard: np.ndarray,
    factors: tuple[int, ...],
) -> np.ndarray:
    """Fill the contiguous int32 block with the spectra of masks lo..hi-1 by float32 products.

    H_n is the Kronecker product of the Sylvester matrices H_b of
    ``factors`` (Fino & Algazi, IEEE TC 1976).  Viewing a row as a
    (2^n / 2^b, 2^b) matrix X, the product H_b @ X^T transforms the lowest
    b index bits and moves them to the top, so after one product per factor
    every bit is transformed and back in its place.  The products ping-pong
    between the block, read as float32, and ``scratch``, a block of the same
    shape; the polarity fill goes where the last product lands in
    ``scratch``, which is then copied back into the block as int32.
    ``hadamard`` is the float32 H of the largest factor; a smaller H_b is
    its leading corner.

    Every partial sum is an integer of magnitude at most 2^n, and
    ``sylvester_factors`` refuses n above 24, so float32 holds each one
    exactly in any summation order and the spectrum is bit-identical to
    the integer butterfly's.  Returns ``row_max_abs`` of the block.
    """
    rows = hi - lo
    bufs = (block.view(np.float32), scratch[:rows].view(np.float32))
    src = 1 - len(factors) % 2
    polarity_rows(s, lo, hi, bufs[src])
    for b in factors:
        x = bufs[src].reshape(rows, -1, 1 << b).transpose(0, 2, 1)
        np.matmul(hadamard[: 1 << b, : 1 << b], x, out=bufs[1 - src].reshape(rows, 1 << b, -1))
        src = 1 - src
    np.copyto(block, bufs[1], casting="unsafe")
    return row_max_abs(block)


def row_max_abs(rows: np.ndarray) -> np.ndarray:
    """Each row's max |W| as int64, without materializing |rows|."""
    return np.maximum(rows.max(1).astype(np.int64), -rows.min(1).astype(np.int64))


# Kept for the per-layer trace of perfbench/worker.py, which times it row by row.
def fwht_column_in_place(col: np.ndarray) -> tuple[np.ndarray, int]:
    """The butterfly over one length-2^k column (any uniformly strided 1-D view).

    Returns the transformed column and its maximum absolute entry.
    """
    return col, int(fwht_rows_in_place(col[None])[0])


def column_nonlinearity(pw: int, max_abs: np.ndarray) -> np.ndarray:
    """(2^n - max|W|) / 2 for each row maximum.

    The gap is always even for true spectra; an odd gap in any row means the
    row is not a genuine Walsh column.
    """
    diff = pw - max_abs
    odd = diff[(diff & 1) != 0]
    if odd.size:
        raise AssertionError(
            f"odd spectrum gap {int(odd[0])}: column is not a genuine Walsh column"
        )
    return diff >> 1


def fwht_rowmajor(
    s: SBox,
    max_bytes: int | None = None,
    timings: dict | None = None,
) -> WalshSpectrum:
    """Baseline transform: mask-major access over an x-major store.

    Every butterfly stage walks a strided column of the big matrix, touching
    one cache line per element.  Deliberately kept as the slow reference
    point for the layout benchmark; results are bit-identical to the other
    variants.  The spectrum it returns is that x-major store, read through
    the strided view rows[v-1][u].
    """
    # The baseline runs the integer butterfly only: the matrix and the maxima.
    plan = storage_plan(s.n, s.m)
    plan = replace(plan, shapes=(plan.shapes[0], plan.shapes[-1]), factors=())
    # Column-major order keeps rows[v-1][x] x-major, the layout this baseline measures.
    with allocate_storage(plan, max_bytes, order="F") as (rows, _):
        t0 = time.perf_counter()
        polarity_rows(s, 1, 1 << s.m, rows)
        for row in rows:
            fwht_rows_in_place(row[None])
        t1 = time.perf_counter()
    if timings is not None:
        timings["transform_s"] = t1 - t0
    return WalshSpectrum(s.n, s.m, rows)


def write_spectrum(w: WalshSpectrum, stream: IO[str]) -> None:
    """Dump a spectrum as text: header "n m", one line per mask v ascending."""
    stream.write(f"{w.n} {w.m}\n")
    for row in w.rows:
        stream.write(" ".join(str(int(e)) for e in row))
        stream.write("\n")
