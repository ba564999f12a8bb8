"""Host-speed probe: fixed work whose time tracks how fast the host runs right now.

    python3 perfbench/probe.py N M MODE            # one probe
    python3 perfbench/probe.py N M MODE --serve    # one probe per stdin line, ms to stdout

The probe is the evaluation path of sboxeval 0.1.0 (``fwht_parallel`` with
two workers: polarity rows, per-row butterfly, per-row maximum), copied here
unchanged and run on a quarter of an N x M box's masks.  It does the same kind
of work as an evaluation, through code that no change to sboxeval can speed
up.  run.py scales each run's times by the reference probe time over the
run's median probe time, which takes out most of the drift of a shared host.
The probe runs in a process of its own, so that it adds nothing to the peak
RSS of the process that evaluates; for stream_tall_cli each probe is a fresh
interpreter, because each of its evaluations also pays for interpreter start.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def polarity(table: np.ndarray, v: int, out: np.ndarray) -> None:
    out[:] = np.bitwise_count(table & np.uint32(v)) & np.uint8(1)
    out *= -2
    out += 1


def butterfly_max(col: np.ndarray) -> int:
    j = 1
    while j < col.shape[0]:
        pairs = col.reshape(-1, 2, j)
        lo, hi = pairs[:, 0, :], pairs[:, 1, :]
        np.subtract(lo, hi, out=hi)
        lo *= 2
        np.subtract(lo, hi, out=lo)
        j <<= 1
    return max(int(np.abs(lo).max()), int(np.abs(hi).max()))


def probe(n: int, m: int, mode: str) -> float:
    """Run the probe once for an n x m box in ``mode``; return its wall time in ms."""
    masks = max(2, 1 << (m - 2))
    table = np.arange(1 << n, dtype=np.uint32) & np.uint32((1 << m) - 1)
    maxima = np.zeros(masks, dtype=np.int64)
    t0 = time.perf_counter()
    rows = None
    if mode == "retain":
        rows = np.empty((masks, 1 << n), dtype=np.int32)
        for v in range(1, masks + 1):
            polarity(table, v, rows[v - 1])

    def work(lo: int, hi: int) -> None:
        buf = None if rows is not None else np.empty(1 << n, dtype=np.int32)
        for v in range(lo, hi):
            if rows is None:
                polarity(table, v, buf)
            maxima[v - 1] = butterfly_max(rows[v - 1] if rows is not None else buf)

    half = 1 + masks // 2
    with ThreadPoolExecutor(max_workers=2) as pool:
        for future in [pool.submit(work, 1, half), pool.submit(work, half, masks + 1)]:
            future.result()
    return (time.perf_counter() - t0) * 1e3


if __name__ == "__main__":
    args = (int(sys.argv[1]), int(sys.argv[2]), sys.argv[3])
    if sys.argv[4:] == ["--serve"]:
        for _ in sys.stdin:
            print(probe(*args), flush=True)
    else:
        probe(*args)
