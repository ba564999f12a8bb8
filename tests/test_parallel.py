import tracemalloc

import numpy as np
import pytest

from sboxeval import (
    fwht_parallel,
    fwht_rowmajor,
    generate_sbox,
    partition_columns,
    spectrum_allocations,
)
from sboxeval.memory import MemoryBudgetError, memory_estimate, storage_plan


def hadamard_spectrum(s):
    """Independent reference: polarity matrix times the Sylvester H_n, in int64."""
    parity = np.bitwise_count(
        np.arange(1, 1 << s.m, dtype=np.uint32)[:, None] & s.table[None, :]
    ) & 1
    h = np.ones((1, 1), dtype=np.int64)
    for _ in range(s.n):
        h = np.block([[h, h], [h, -h]])
    return (1 - 2 * parity.astype(np.int64)) @ h


class TestPartition:
    def test_fifteen_columns_eight_workers(self):
        ranges = partition_columns(15, 8)
        assert [b - a for a, b in ranges] == [2, 2, 2, 2, 2, 2, 2, 1]

    def test_single_worker(self):
        assert partition_columns(7, 1) == ((1, 8),)

    def test_more_workers_than_columns(self):
        assert partition_columns(3, 8) == ((1, 2), (2, 3), (3, 4))

    @pytest.mark.parametrize("columns", [1, 2, 63, 255, 1023])
    @pytest.mark.parametrize("workers", [1, 3, 7, 16])
    def test_partition_properties(self, columns, workers):
        ranges = partition_columns(columns, workers)
        assert len(ranges) <= workers
        assert ranges[0][0] == 1
        assert ranges[-1][1] == columns + 1
        sizes = [b - a for a, b in ranges]
        assert all(size >= 1 for size in sizes)
        assert max(sizes) - min(sizes) <= 1
        for prev, cur in zip(ranges, ranges[1:]):
            assert cur[0] == prev[1]  # contiguous, disjoint, ordered

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            partition_columns(0, 4)
        with pytest.raises(ValueError):
            partition_columns(15, 0)


class TestParallelTransform:
    def test_single_worker_equals_fused(self):
        s = generate_sbox(6, 6, seed=9, bijective=True)
        spec_f, cm_f = fwht_parallel(s, 1, "retain")
        spec_p, cm_p = fwht_parallel(s, workers=1, mode="retain")
        assert np.array_equal(spec_f.rows, spec_p.rows)
        assert np.array_equal(cm_f.values, cm_p.values)

    @pytest.mark.parametrize("workers", [2, 3, 4, 7, 12])
    def test_worker_count_invariance_retain(self, workers):
        s = generate_sbox(8, 8, seed=9)
        ref_spec, ref_cm = fwht_parallel(s, workers=1, mode="retain")
        spec, cm = fwht_parallel(s, workers=workers, mode="retain")
        assert np.array_equal(spec.rows, ref_spec.rows)
        assert np.array_equal(cm.values, ref_cm.values)

    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_stream_matches_retain(self, workers):
        s = generate_sbox(7, 7, seed=31)
        spec, cm_stream = fwht_parallel(s, workers=workers, mode="stream")
        assert spec is None
        _, cm_retain = fwht_parallel(s, 1, "retain")
        assert np.array_equal(cm_stream.values, cm_retain.values)

    def test_stream_buffer_accounting(self):
        # each worker owns exactly one column buffer, plus the int32 maxima
        s = generate_sbox(10, 10, seed=12)
        spectrum_allocations.reset_peak()
        fwht_parallel(s, workers=4, mode="stream")
        assert spectrum_allocations.peak_bytes == 4 * (1 << 10) * 4 + 1023 * 4
        assert spectrum_allocations.peak_bytes == memory_estimate(10, 10, mode="stream", workers=4)
        assert spectrum_allocations.current_bytes == 0

    def test_default_worker_count_used(self):
        s = generate_sbox(5, 5, seed=2)
        _, cm_default = fwht_parallel(s)  # workers=None -> hardware count
        _, cm_one = fwht_parallel(s, workers=1)
        assert np.array_equal(cm_default.values, cm_one.values)

    def test_rejects_bad_arguments(self):
        s = generate_sbox(4, 4, seed=1)
        with pytest.raises(ValueError):
            fwht_parallel(s, workers=0)
        with pytest.raises(ValueError):
            fwht_parallel(s, mode="drop")

    def test_budget_error_propagates_from_workers(self):
        s = generate_sbox(8, 8, seed=4)
        with pytest.raises(MemoryBudgetError):
            fwht_parallel(s, workers=2, mode="retain", max_bytes=4096)


class TestBlocks:
    """Blocks that straddle worker ranges and end partially, against H_n."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_retain_2x16(self, workers):
        s = generate_sbox(2, 16, seed=41)
        step = storage_plan(2, 16, "retain", workers).rows_per_block
        ranges = partition_columns((1 << 16) - 1, workers)
        assert any((b - a) % step for a, b in ranges)  # a partial last block
        expected = hadamard_spectrum(s)
        spec, cm = fwht_parallel(s, workers=workers, mode="retain")
        assert np.array_equal(spec.rows, expected)
        assert np.array_equal(cm.values, (4 - np.abs(expected).max(axis=1)) // 2)

    @pytest.mark.parametrize("n", [6, 1])
    def test_stream_n_by_12_three_workers(self, n):
        s = generate_sbox(n, 12, seed=42 + n)
        step = storage_plan(n, 12, "stream", 3).rows_per_block
        assert step > 1 and all((b - a) % step for a, b in partition_columns(4095, 3))
        expected = hadamard_spectrum(s)
        spec, cm = fwht_parallel(s, workers=3, mode="stream")
        assert spec is None
        assert np.array_equal(cm.values, ((1 << n) - np.abs(expected).max(axis=1)) // 2)

    @pytest.mark.parametrize("n,m,workers", [(6, 12, 3), (10, 10, 4), (3, 2, 8)])
    def test_stream_peak_is_the_worker_buffers(self, n, m, workers):
        s = generate_sbox(n, m, seed=43)
        used = len(partition_columns((1 << m) - 1, workers))
        buffer_bytes = storage_plan(n, m, "stream", used).rows_per_block * (1 << n) * 4
        spectrum_allocations.reset_peak()
        fwht_parallel(s, workers=workers, mode="stream")
        assert spectrum_allocations.peak_bytes == used * buffer_bytes + ((1 << m) - 1) * 4
        assert spectrum_allocations.peak_bytes == memory_estimate(n, m, mode="stream", workers=used)
        assert spectrum_allocations.current_bytes == 0


class TestStorageBound:
    """The tracker charges exactly the plan, and the plan bounds the real peak.

    numpy reports its data buffers to tracemalloc, so the traced peak of a
    call is what it really allocated.  Beyond the planned int32 buffers the
    only allocations are transient: numpy's ufunc buffers in the butterfly's
    in-place updates on strided views (up to three of ``np.getbufsize()``
    elements per running worker), and a constant for the thread pool and the
    per-block maxima temporaries, measured at under 18 KB on numpy 2.4 and
    stated here as 24 KiB.
    """

    CONSTANT = 24 << 10
    SHAPES = [(8, 8), (6, 14), (10, 10)]

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = call()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        del result
        return peak

    def slack(self, workers):
        return 3 * np.getbufsize() * 4 * workers + self.CONSTANT

    @pytest.mark.parametrize("n,m", SHAPES + [(16, 8)])
    @pytest.mark.parametrize("mode", ["retain", "stream"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fwht_parallel(self, n, m, mode, workers):
        s = generate_sbox(n, m, seed=n * 100 + m)
        estimate = memory_estimate(n, m, mode=mode, workers=workers)
        spectrum_allocations.reset_peak()
        peak = self.traced_peak(lambda: fwht_parallel(s, workers, mode))
        assert spectrum_allocations.peak_bytes == estimate
        assert spectrum_allocations.current_bytes == 0
        assert peak <= estimate + self.slack(workers)

    @pytest.mark.parametrize("n,m", SHAPES)
    def test_fwht_rowmajor(self, n, m):
        s = generate_sbox(n, m, seed=n * 100 + m)
        estimate = memory_estimate(n, m, mode="retain")
        spectrum_allocations.reset_peak()
        peak = self.traced_peak(lambda: fwht_rowmajor(s))
        assert spectrum_allocations.peak_bytes <= estimate
        assert spectrum_allocations.current_bytes == 0
        assert peak <= estimate + self.slack(1)
