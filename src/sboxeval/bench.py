"""Timing harness for the transform and nonlinearity pipelines.

Each (method, workers) pair produces one record holding every repetition's
end-to-end wall time (allocation, polarity construction, transform, and
reduction) plus a transform-only time covering the polarity fill, the
Walsh transform and the per-mask maxima, without the budget check and
allocation.
Every run's numeric result is checked against a single-worker fused
reference before its timing counts: a benchmark that produces a wrong
answer is an error, not a data point.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .nonlinearity import METHODS, check_method, nonlinearity_from_maxima, takes_workers
from .parallel import fwht_parallel
from .sbox import SBox

CSV_HEADER = (
    "method",
    "n",
    "m",
    "workers",
    "repetitions",
    "mean_ms",
    "stddev_ms",
    "transform_only_mean_ms",
)


class BenchVerificationError(RuntimeError):
    """A timed run disagreed with the reference result."""


@dataclass
class BenchRecord:
    method: str
    n: int
    m: int
    workers: int
    repetitions: int
    wall_times: list[float] = field(default_factory=list)  # ms, end to end
    transform_times: list[float] = field(default_factory=list)  # ms

    @property
    def mean_ms(self) -> float:
        return statistics.fmean(self.wall_times)

    @property
    def stddev_ms(self) -> float:
        return statistics.pstdev(self.wall_times)

    @property
    def transform_only_mean_ms(self) -> float:
        return statistics.fmean(self.transform_times)

    def sort_key(self) -> tuple:
        return (self.n, self.m, self.method, self.workers)


def _checked_run(
    s: SBox,
    method: str,
    workers: int,
    mode: str,
    max_bytes: int | None,
    reference: tuple[int, np.ndarray | None],
) -> tuple[float, float]:
    """One end-to-end evaluation that must reproduce ``reference`` (the value,
    and the spectrum rows when both sides retain them); returns (end_ms,
    transform_ms)."""
    timings: dict = {}
    start = time.perf_counter()
    result, spectrum = METHODS[method](s, workers, mode, max_bytes, timings)
    end_ms = (time.perf_counter() - start) * 1e3
    ref_value, ref_rows = reference
    label = f"{method} (workers={workers})"
    if result.value != ref_value:
        raise BenchVerificationError(f"{label} returned {result.value}, reference says {ref_value}")
    if spectrum is not None and ref_rows is not None:
        if not np.array_equal(spectrum.rows, ref_rows):
            raise BenchVerificationError(f"{label} spectrum differs from reference")
    return end_ms, timings.get("transform_s", end_ms / 1e3) * 1e3


def run_benchmark(
    s: SBox,
    methods: Iterable[str],
    worker_counts: Sequence[int] = (1,),
    repetitions: int = 5,
    mode: str = "retain",
    max_bytes: int | None = None,
) -> list[BenchRecord]:
    """Time each method; parallel runs once per entry of ``worker_counts``.

    Every method is checked against ``mode`` by ``check_method`` before
    anything runs.  An extra warm-up repetition runs first and is discarded;
    its result (and each timed run's) must match the single-worker fused
    reference.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    names = sorted(set(methods))
    for method in names:
        check_method(method, mode=mode)
    if not names:
        return []
    ref_spectrum, ref_cm = fwht_parallel(s, 1, mode, max_bytes)
    reference = (
        nonlinearity_from_maxima(ref_cm).value,
        ref_spectrum.rows if ref_spectrum is not None else None,
    )

    records = []
    for method in names:
        counts = list(worker_counts) if takes_workers(method) else [1]
        for workers in counts:
            record = BenchRecord(method, s.n, s.m, workers, repetitions)
            # warm-up: populates caches and proves the configuration correct
            _checked_run(s, method, workers, mode, max_bytes, reference)
            for _ in range(repetitions):
                end_ms, transform_ms = _checked_run(s, method, workers, mode, max_bytes, reference)
                record.wall_times.append(end_ms)
                record.transform_times.append(transform_ms)
            records.append(record)
    records.sort(key=BenchRecord.sort_key)
    return records


@dataclass(frozen=True)
class SpeedupRow:
    n: int
    m: int
    method: str
    workers: int
    ratio: float


def speedup_report(
    records: Sequence[BenchRecord], baseline_method: str
) -> list[SpeedupRow]:
    """Ratio of the baseline method's mean to each record's mean (higher = faster).

    Records are compared within their own (n, m) group, so mixed-size record
    lists stay meaningful; the baseline record of each group gets ratio 1.0.
    """
    ordered = sorted(records, key=BenchRecord.sort_key)
    baselines: dict[tuple[int, int], BenchRecord] = {}
    for r in ordered:
        if r.method == baseline_method and (r.n, r.m) not in baselines:
            baselines[(r.n, r.m)] = r
    missing = {(r.n, r.m) for r in ordered} - set(baselines)
    if missing:
        raise ValueError(
            f"baseline method {baseline_method!r} not in records for "
            f"size(s) {sorted(missing)}"
        )
    return [
        SpeedupRow(r.n, r.m, r.method, r.workers,
                   baselines[(r.n, r.m)].mean_ms / r.mean_ms)
        for r in ordered
    ]


def write_csv(records: Sequence[BenchRecord], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in sorted(records, key=BenchRecord.sort_key):
        writer.writerow(
            [
                r.method,
                r.n,
                r.m,
                r.workers,
                r.repetitions,
                repr(r.mean_ms),
                repr(r.stddev_ms),
                repr(r.transform_only_mean_ms),
            ]
        )


def read_csv(stream: IO[str] | str) -> list[dict]:
    """Parse a report back into typed row dicts (inverse of write_csv)."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.DictReader(stream)
    rows = []
    for row in reader:
        rows.append(
            {
                "method": row["method"],
                "n": int(row["n"]),
                "m": int(row["m"]),
                "workers": int(row["workers"]),
                "repetitions": int(row["repetitions"]),
                "mean_ms": float(row["mean_ms"]),
                "stddev_ms": float(row["stddev_ms"]),
                "transform_only_mean_ms": float(row["transform_only_mean_ms"]),
            }
        )
    return rows
