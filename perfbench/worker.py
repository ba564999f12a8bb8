"""The process that evaluates: the only benchmark file that imports sboxeval.

Started by run.py as ``python3 worker.py SRC_DIR FD``.  It imports sboxeval
from SRC_DIR (never an installed copy), then serves requests from run.py over
the connection on file descriptor FD until it is told to quit:

* ``eval``  -- one timed evaluation of a box, the way the workload calls the
  library; the retained spectrum, if any, is sent after the reply, outside
  the timed region, so the checks in run.py add nothing to this process.
* ``trace`` -- the per-layer calls on one box, each timed from outside
  through the functions sboxeval exports.
* ``peak``  -- this process's peak resident set size in KiB.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import sys
import time
from multiprocessing.connection import Connection

SRC = os.path.abspath(sys.argv[1])
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import sboxeval as se  # noqa: E402

if not os.path.abspath(se.__file__).startswith(SRC + os.sep):
    sys.exit(f"sboxeval was imported from {se.__file__}, not from {SRC}")


def evaluate(s: se.SBox, cfg: dict):
    """The workload's evaluation call; returns (result, retained spectrum or None)."""
    if cfg["spectrum"]:
        spectrum, _ = se.fwht_parallel(s, workers=cfg["workers"], mode="retain")
        return se.nonlinearity_from_spectrum(spectrum), spectrum
    return se.evaluate(s, method="parallel", workers=cfg["workers"], mode=cfg["mode"]), None


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - t0) * 1e3


def butterfly_rows(rows: np.ndarray) -> None:
    for row in rows:
        se.fwht_column_in_place(row)


def polarity_rows(s: se.SBox) -> None:
    buf = np.empty(1 << s.n, dtype=np.int32)
    for v in range(1, 1 << s.m):
        se.polarity_row(s, v, out=buf)


def trace_box(s: se.SBox, text: str, path: str, cfg: dict) -> dict:
    """Time each layer on one box through calls into its exported functions (ms)."""
    mode, workers = cfg["mode"], cfg["workers"]
    t = {}
    se.spectrum_allocations.reset_peak()
    (result, _), t["eval"] = timed(evaluate, s, cfg)
    t["spectrum_peak_bytes"] = se.spectrum_allocations.peak_bytes
    t["estimate_bytes"] = se.memory_estimate(s.n, s.m, mode=mode, workers=workers)
    t["nl"], t["argmin_v"] = result.value, result.argmin_v
    del _

    _, t["parse"] = timed(se.parse_sbox, text)
    ptt, t["build"] = timed(se.polarity_truth_table, s)
    _, t["polarity_rows"] = timed(polarity_rows, s)
    _, t["butterfly"] = timed(butterfly_rows, ptt.rows)
    (_, maxima), t["parallel_1w"] = timed(se.fwht_parallel, s, 1, mode)
    _, t["parallel_2w"] = timed(se.fwht_parallel, s, 2, mode)
    if cfg["spectrum"]:
        _, t["reduce"] = timed(se.nonlinearity_from_spectrum, se.WalshSpectrum(s.n, s.m, ptt.rows))
    else:
        _, t["reduce"] = timed(se.nonlinearity_from_maxima, maxima)
    del _, ptt

    import sboxeval.cli  # only the traced run calls the CLI in-process

    argv = ["nl", path, "--mode", mode, "--workers", str(workers)]
    with contextlib.redirect_stdout(io.StringIO()):
        code, t["cli_main"] = timed(sboxeval.cli.main, argv)
    if code != 0:
        raise RuntimeError(f"sboxeval.cli.main({argv}) returned {code}")
    return t


def peak_rss_kib() -> int:
    """Peak RSS since exec.  ru_maxrss would also count the parent's memory up to the exec."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def serve(conn: Connection) -> None:
    cfg = conn.recv()
    conn.send("ready")
    while True:
        msg = conn.recv()
        op = msg["op"]
        if op == "quit":
            return
        if op == "peak":
            conn.send(peak_rss_kib())
            continue
        s = se.SBox(msg["n"], msg["m"], np.frombuffer(msg["table"], dtype=np.uint32))
        try:
            if op == "eval":
                (result, spectrum), ms = timed(evaluate, s, cfg)
                conn.send({"nl": result.value, "argmin_v": result.argmin_v, "ms": ms})
                if spectrum is not None:
                    conn.send_bytes(spectrum.rows)
                    del spectrum
            else:
                conn.send(trace_box(s, msg["text"], msg["path"], cfg))
        except Exception as exc:  # reported to run.py as a failed evaluation
            conn.send({"error": f"{type(exc).__name__}: {exc}"})


if __name__ == "__main__":
    with Connection(int(sys.argv[2])) as connection:
        serve(connection)
