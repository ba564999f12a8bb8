"""Nonlinearity reducers and the affine-distance brute-force oracle.

The nonlinearity of an S-box is the distance from its worst component
combination to the nearest affine function: 2^{n-1} - max|W| / 2.  Three
independent routes compute it -- a scan of a retained spectrum, a reduction
of fused column maxima, and a literal Hamming-distance search that never
touches a Walsh transform -- and must always agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .parallel import fwht_parallel
from .sbox import SBox
from .walsh import ColumnMaxima, WalshSpectrum, fwht_rowmajor

BRUTEFORCE_MAX_BITS = 8


class SizeCapError(ValueError):
    """Box too large for an exhaustive-search code path."""


@dataclass(frozen=True)
class NonlinearityResult:
    value: int
    argmin_v: int  # smallest output mask achieving the minimum
    method: str


def nonlinearity_from_spectrum(
    w: WalshSpectrum, method: str = "spectrum"
) -> NonlinearityResult:
    """Scan a retained spectrum: 2^{n-1} - (max over v>=1, u of |W(u,v)|) / 2."""
    # Row maxima without materializing |rows| (the spectrum can be GiB-sized).
    row_max = np.maximum(
        w.rows.max(axis=1).astype(np.int64), -(w.rows.min(axis=1).astype(np.int64))
    )
    idx = int(np.argmax(row_max))  # first occurrence = smallest mask
    value = (1 << w.n) - int(row_max[idx])
    if value & 1:
        raise AssertionError("spectrum maximum has wrong parity")
    return NonlinearityResult(value >> 1, idx + 1, method)


def nonlinearity_from_maxima(
    cm: ColumnMaxima, method: str = "maxima"
) -> NonlinearityResult:
    """Reduce fused per-column nonlinearities to their minimum."""
    idx = int(np.argmin(cm.values))  # first occurrence = smallest mask
    return NonlinearityResult(int(cm.values[idx]), idx + 1, method)


def nonlinearity_bruteforce(s: SBox) -> NonlinearityResult:
    """Minimum Hamming distance from any component combination to any affine
    function, by exhaustive comparison.

    For every mask v >= 1 the combination g_v is compared against
    <w, x> XOR c for all 2^n input masks w and both constants c.  No Walsh
    transform is involved; this is the independent oracle for the spectrum
    pipelines, and is capped at 8x8 (about 2^25 distance terms).
    """
    if s.n > BRUTEFORCE_MAX_BITS or s.m > BRUTEFORCE_MAX_BITS:
        raise SizeCapError(
            f"brute force capped at {BRUTEFORCE_MAX_BITS} bits, got {s.n}x{s.m}"
        )
    pw = 1 << s.n
    x = np.arange(pw, dtype=np.uint32)
    # linear[w, x] = parity(w AND x): truth tables of every linear function
    linear = (np.bitwise_count(x[:, None] & x[None, :]) & np.uint8(1)).astype(np.uint8)
    best = pw
    best_v = 1
    for v in range(1, 1 << s.m):
        g = (np.bitwise_count(s.table & np.uint32(v)) & np.uint8(1)).astype(np.uint8)
        dist = np.sum(linear ^ g[None, :], axis=1, dtype=np.int64)
        # constant c=1 complements the affine function: distance becomes 2^n - d
        v_best = int(np.minimum(dist, pw - dist).min())
        if v_best < best:
            best = v_best
            best_v = v
    return NonlinearityResult(best, best_v, "bruteforce")


def _run_rowmajor(s, method, workers, mode, max_bytes, timings):
    spectrum = fwht_rowmajor(s, max_bytes, timings)
    return nonlinearity_from_spectrum(spectrum, method), spectrum


def _run_transposed(s, method, workers, mode, max_bytes, timings):
    spectrum, _ = fwht_parallel(s, 1, "retain", max_bytes, timings)
    return nonlinearity_from_spectrum(spectrum, method), spectrum


def _run_parallel(s, method, workers, mode, max_bytes, timings):
    spectrum, cm = fwht_parallel(s, workers, mode, max_bytes, timings)
    return nonlinearity_from_maxima(cm, method), spectrum


def _run_fused(s, method, workers, mode, max_bytes, timings):
    return _run_parallel(s, method, 1, mode, max_bytes, timings)


def _run_bruteforce(s, method, workers, mode, max_bytes, timings):
    return nonlinearity_bruteforce(s), None


# Every evaluation pipeline by name.  Each entry is
# run(s, method, workers, mode, max_bytes, timings) -> (result, spectrum or None);
# entries outside WORKER_METHODS ignore ``workers`` and entries outside
# STREAM_METHODS ignore ``mode`` (rowmajor and transposed always retain).
METHODS = {
    "rowmajor": _run_rowmajor,
    "transposed": _run_transposed,
    "fused": _run_fused,
    "parallel": _run_parallel,
    "bruteforce": _run_bruteforce,
}
WORKER_METHODS = ("parallel",)
STREAM_METHODS = ("fused", "parallel")


def evaluate(
    s: SBox,
    method: str = "parallel",
    workers: int | None = None,
    mode: str = "retain",
    max_bytes: int | None = None,
) -> NonlinearityResult:
    """End-to-end nonlinearity through the chosen pipeline."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
    return METHODS[method](s, method, workers, mode, max_bytes, None)[0]
