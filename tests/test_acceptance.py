"""Acceptance suite: one test per release criterion, strictest stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Timing-sensitive checks (layout and parallel speedups) are
directional with generous margins; exact-value checks are exact.
"""

import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from sboxeval import (
    aes_sbox,
    evaluate,
    fwht_parallel,
    fwht_rowmajor,
    generate_sbox,
    nonlinearity_bruteforce,
    nonlinearity_from_maxima,
    nonlinearity_from_spectrum,
    partition_columns,
    render_sbox,
    run_benchmark,
    spectrum_allocations,
    walsh_direct,
)
from sboxeval.cli import main


def _report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_aes_golden_value_all_methods():
    """nl(AES) = 112 through every pipeline, each within 5 seconds."""
    aes = aes_sbox()
    configs = [
        ("rowmajor", None), ("transposed", None), ("fused", None),
        ("parallel", 1), ("parallel", 2), ("parallel", 4), ("parallel", 10),
        ("bruteforce", None),
    ]
    ok = True
    for method, workers in configs:
        start = time.perf_counter()
        result = evaluate(aes, method=method, workers=workers)
        elapsed = time.perf_counter() - start
        if result.value != 112 or elapsed >= 5.0:
            ok = False
            print(f"  {method} workers={workers}: value={result.value} "
                  f"({elapsed:.2f} s)")
    _report("AES golden value: 112 for every method", ok)


def test_oracle_equivalence_sweep():
    """50 seeded boxes per size: every variant equals the defining sum exactly,
    and the three nonlinearity paths agree."""
    sizes = [(3, 3), (4, 4), (5, 5), (6, 4), (4, 6)]
    start = time.perf_counter()
    ok = True
    for n, m in sizes:
        for seed in range(50):
            s = generate_sbox(n, m, seed)
            spectrum = fwht_parallel(s, 1, "retain")[0]
            if not np.array_equal(fwht_rowmajor(s).rows, spectrum.rows):
                ok = False
            retained, cm = fwht_parallel(s, 1, "retain")
            if not np.array_equal(retained.rows, spectrum.rows):
                ok = False
            for v in range(1, 1 << m):
                row = spectrum.rows[v - 1]
                if any(int(row[u]) != walsh_direct(s, u, v) for u in range(1 << n)):
                    ok = False
                    break
            values = {
                nonlinearity_from_spectrum(spectrum).value,
                nonlinearity_from_maxima(cm).value,
                nonlinearity_bruteforce(s).value,
            }
            if len(values) != 1:
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(f"oracle equivalence: 250 boxes, 5 sizes ({elapsed:.1f} s)", ok)


def test_parseval_suite():
    """Sum of squared spectrum entries is exactly 2^{2n} in every row."""
    sizes = [(4, 4), (5, 7), (6, 6), (7, 3), (3, 8), (8, 8), (9, 5), (5, 9),
             (10, 10), (7, 7)]
    ok = True
    for seed in range(20):
        n, m = sizes[seed % len(sizes)]
        spectrum, _ = fwht_parallel(generate_sbox(n, m, seed), 1, "retain")
        sums = np.sum(spectrum.rows.astype(np.int64) ** 2, axis=1)
        if not np.all(sums == np.int64(1) << (2 * n)):
            ok = False
    _report("Parseval: 20 boxes up to 10x10, exact integer equality", ok)


def test_thread_determinism():
    """10x10 box: identical bits out of fwht_parallel for workers 1..12."""
    s = generate_sbox(10, 10, seed=2024)
    ref_spec, ref_cm = fwht_parallel(s, workers=1, mode="retain")
    ok = True
    for workers in range(2, 13):
        spec, cm = fwht_parallel(s, workers=workers, mode="retain")
        if not (np.array_equal(spec.rows, ref_spec.rows)
                and np.array_equal(cm.values, ref_cm.values)):
            ok = False
    _report("thread determinism: workers 1..12 bit-identical", ok)


def test_partition_properties_exhaustive():
    """Worked example (15, 8) plus every (columns <= 4096, workers <= 64)."""
    sizes = [b - a for a, b in partition_columns(15, 8)]
    ok = sizes == [2, 2, 2, 2, 2, 2, 2, 1]
    for columns in range(1, 4097):
        for workers in range(1, 65):
            ranges = partition_columns(columns, workers)
            if len(ranges) > workers:
                ok = False
            if ranges[0][0] != 1 or ranges[-1][1] != columns + 1:
                ok = False
            span = [b - a for a, b in ranges]
            if max(span) - min(span) > 1 or min(span) < 1:
                ok = False
            if any(cur[0] != prev[1] for prev, cur in zip(ranges, ranges[1:])):
                ok = False
    _report("partition: (15,8) example and exhaustive sweep to 4096x64", ok)


def test_layout_speedup_directional():
    """Transposed transform at least 2x faster than the strided baseline."""
    s = generate_sbox(12, 12, seed=99)
    records = run_benchmark(s, {"rowmajor", "transposed"}, repetitions=5)
    by_method = {r.method: r for r in records}
    row = by_method["rowmajor"].transform_only_mean_ms
    tr = by_method["transposed"].transform_only_mean_ms
    ok = tr <= 0.5 * row
    _report(
        f"layout speedup: transposed {tr:.0f} ms <= 0.5 * rowmajor {row:.0f} ms "
        f"({row / tr:.1f}x)",
        ok,
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="parallel speedup check needs >= 4 hardware execution units",
)
def test_parallel_speedup_directional():
    """Four workers at least 1.5x faster than one on the fused transform."""
    s = generate_sbox(12, 12, seed=98)
    records = run_benchmark(s, {"parallel"}, worker_counts=[1, 4], repetitions=5)
    by_workers = {r.workers: r for r in records}
    one = by_workers[1].transform_only_mean_ms
    four = by_workers[4].transform_only_mean_ms
    ok = four * 1.5 <= one
    _report(
        f"parallel speedup: 4 workers {four:.0f} ms vs 1 worker {one:.0f} ms "
        f"({one / four:.2f}x)",
        ok,
    )


def test_stream_mode_memory(tmp_path, capsys):
    """`nl --mode stream` on a 14x14 box stays within the column-buffer budget
    and returns the retain-mode value."""
    s = generate_sbox(14, 14, seed=21)
    path = tmp_path / "r14.sbox"
    path.write_text(render_sbox(s))

    _, cm = fwht_parallel(s, 1, "retain")
    retain_value = nonlinearity_from_maxima(cm).value

    workers = 1
    spectrum_allocations.reset_peak()
    code = main(["nl", str(path), "--mode", "stream", "--workers", str(workers)])
    out = capsys.readouterr().out
    peak = spectrum_allocations.peak_bytes
    bound = (workers + 1) * (1 << 14) * 4

    match = re.match(r"nl = (\d+)", out)
    ok = (
        code == 0
        and match is not None
        and int(match.group(1)) == retain_value
        and peak <= bound
        and spectrum_allocations.current_bytes == 0
    )
    _report(
        f"stream memory: peak {peak} B <= {bound} B, value matches retain "
        f"({retain_value})",
        ok,
    )


def test_unverifiable_reported_values_documented():
    """The 10x10 -> 384 and 16x16 -> 32,000 figures are documented as
    unreproducible (source tables unpublished) and excluded from tests."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    ok = (
        "384" in readme
        and ("32,000" in readme or "32000" in readme)
        and any(phrase in readme for phrase in
                ("unpublished", "not published", "never published"))
    )
    _report("unverifiable reported values documented in README", ok)
