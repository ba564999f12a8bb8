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
from .walsh import ColumnMaxima, WalshSpectrum, column_nonlinearity, fwht_rowmajor, row_max_abs

BRUTEFORCE_MAX_BITS = 8


class SizeCapError(ValueError):
    """Box too large for an exhaustive-search code path."""


class MethodOptionError(ValueError):
    """A method name the registry lacks, or an option the method does not take."""


@dataclass(frozen=True)
class NonlinearityResult:
    value: int
    argmin_v: int  # smallest output mask achieving the minimum


def nonlinearity_from_spectrum(w: WalshSpectrum) -> NonlinearityResult:
    """Scan a retained spectrum: 2^{n-1} - (max over v>=1, u of |W(u,v)|) / 2.

    Every row's gap must be even, as in the engine's fused maxima.
    """
    values = column_nonlinearity(1 << w.n, row_max_abs(w.rows))
    return nonlinearity_from_maxima(ColumnMaxima(w.n, w.m, values))


def nonlinearity_from_maxima(cm: ColumnMaxima) -> NonlinearityResult:
    """Reduce fused per-column nonlinearities to their minimum."""
    idx = int(np.argmin(cm.values))  # first occurrence = smallest mask
    return NonlinearityResult(int(cm.values[idx]), idx + 1)


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
    return NonlinearityResult(best, best_v)


def _run_rowmajor(s, workers, mode, max_bytes, timings):
    spectrum = fwht_rowmajor(s, max_bytes, timings)
    return nonlinearity_from_spectrum(spectrum), spectrum


def _run_transposed(s, workers, mode, max_bytes, timings):
    spectrum, _ = fwht_parallel(s, 1, "retain", max_bytes, timings)
    return nonlinearity_from_spectrum(spectrum), spectrum


def _run_parallel(s, workers, mode, max_bytes, timings):
    spectrum, cm = fwht_parallel(s, workers, mode, max_bytes, timings)
    return nonlinearity_from_maxima(cm), spectrum


def _run_fused(s, workers, mode, max_bytes, timings):
    return _run_parallel(s, 1, mode, max_bytes, timings)


def _run_bruteforce(s, workers, mode, max_bytes, timings):
    return nonlinearity_bruteforce(s), None


# Every evaluation pipeline by name.  Each entry is
# run(s, workers, mode, max_bytes, timings) -> (result, spectrum or None).
# Entries outside WORKER_METHODS ignore ``workers`` and entries outside
# STREAM_METHODS ignore ``mode``; check_method refuses both combinations.
METHODS = {
    "rowmajor": _run_rowmajor,
    "transposed": _run_transposed,
    "fused": _run_fused,
    "parallel": _run_parallel,
    "bruteforce": _run_bruteforce,
}
WORKER_METHODS = ("parallel",)
STREAM_METHODS = ("fused", "parallel")


def takes_workers(method: str) -> bool:
    """Whether ``method`` runs on a chosen worker count."""
    return method in WORKER_METHODS


def check_method(method: str, workers: int | None = None, mode: str = "retain") -> None:
    """Raise MethodOptionError unless ``method`` exists and takes these options."""
    if method not in METHODS:
        raise MethodOptionError(f"unknown method {method!r}; expected one of {tuple(METHODS)}")
    if workers is not None and not takes_workers(method):
        raise MethodOptionError(
            f"--workers applies only to --method {'/'.join(WORKER_METHODS)}, not {method!r}"
        )
    if mode != "retain" and method not in STREAM_METHODS:
        raise MethodOptionError(
            f"--mode {mode} applies only to --method {'/'.join(STREAM_METHODS)}, not {method!r}"
        )


def evaluate(
    s: SBox,
    method: str = "parallel",
    workers: int | None = None,
    mode: str = "retain",
    max_bytes: int | None = None,
) -> NonlinearityResult:
    """End-to-end nonlinearity through the chosen pipeline."""
    check_method(method, workers, mode)
    return METHODS[method](s, workers, mode, max_bytes, None)[0]
