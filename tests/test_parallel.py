import tracemalloc

import numpy as np
import pytest

from sboxeval import (
    fwht_parallel,
    fwht_rowmajor,
    generate_sbox,
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
    """The plan cuts the masks into blocks and the blocks into worker runs."""

    def test_fifteen_columns_eight_workers(self):
        plan = storage_plan(9, 4, "stream", 8)  # one-row blocks
        assert [len(run) for run in plan.runs] == [1, 2, 2, 2, 2, 2, 2, 2]

    def test_single_worker(self):
        assert storage_plan(9, 3, "stream", 1).runs == (range(1, 8),)

    def test_more_workers_than_columns(self):
        plan = storage_plan(9, 2, "stream", 8)
        assert plan.runs == (range(1, 2), range(2, 3), range(3, 4))
        assert plan.shapes == ((1, 512),) * 3 + ((3,),)

    @pytest.mark.parametrize("columns", [1, 2, 63, 255, 1023])
    @pytest.mark.parametrize("workers", [1, 3, 7, 16])
    def test_partition_properties(self, columns, workers):
        m = columns.bit_length()  # the fewest output bits giving >= columns masks
        for n in (1, 6, 10):
            for mode in ("retain", "stream"):
                plan = storage_plan(n, m, mode, workers)
                starts = range(1, 1 << m, plan.rows_per_block)
                assert [lo for run in plan.runs for lo in run] == list(starts)
                assert len(plan.runs) == min(workers, len(starts))
                sizes = [len(run) for run in plan.runs]
                assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            storage_plan(4, 4, "stream", 0)
        with pytest.raises(ValueError):
            storage_plan(4, 4, "drop", 2)

    def test_one_block_when_the_box_fits(self):
        # n + m <= 16 retains one 256 KiB block, n + m <= 9 streams one 2 KiB block.
        assert len(storage_plan(8, 8, "retain", 8).runs) == 1
        assert len(storage_plan(10, 6, "retain", 8).runs) == 1
        assert len(storage_plan(4, 5, "stream", 8).runs) == 1
        assert len(storage_plan(8, 8, "stream", 8).runs) == 8


class TestParallelTransform:
    def test_single_worker_equals_fused(self):
        s = generate_sbox(6, 6, seed=9, bijective=True)
        spec_f, cm_f = fwht_parallel(s, 1, "retain")
        spec_p, cm_p = fwht_parallel(s, workers=1, mode="retain")
        assert np.array_equal(spec_f.rows, spec_p.rows)
        assert np.array_equal(cm_f.values, cm_p.values)

    @pytest.mark.parametrize("workers", [2, 3, 4, 7, 12])
    def test_worker_count_invariance_retain(self, workers):
        # 8x8 is one retain block; 10x10 is 16, so every worker count runs.
        for n in (8, 10):
            s = generate_sbox(n, n, seed=9)
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
    """Blocks that end partially and runs of several blocks, against H_n."""

    @staticmethod
    def last_block_rows(plan, m):
        return (1 << m) - plan.runs[-1][-1]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_retain_2x16(self, workers):
        s = generate_sbox(2, 16, seed=41)
        plan = storage_plan(2, 16, "retain", workers)
        assert 0 < self.last_block_rows(plan, 16) < plan.rows_per_block
        expected = hadamard_spectrum(s)
        spec, cm = fwht_parallel(s, workers=workers, mode="retain")
        assert np.array_equal(spec.rows, expected)
        assert np.array_equal(cm.values, (4 - np.abs(expected).max(axis=1)) // 2)

    @pytest.mark.parametrize("n", [6, 1])
    def test_stream_n_by_12_three_workers(self, n):
        s = generate_sbox(n, 12, seed=42 + n)
        plan = storage_plan(n, 12, "stream", 3)
        assert 0 < self.last_block_rows(plan, 12) < plan.rows_per_block
        assert len(plan.runs) == 3
        expected = hadamard_spectrum(s)
        spec, cm = fwht_parallel(s, workers=3, mode="stream")
        assert spec is None
        assert np.array_equal(cm.values, ((1 << n) - np.abs(expected).max(axis=1)) // 2)

    # 3x2 has 3 masks, so one 3-row block on one worker: 96 + 12 bytes.
    PEAKS = {(6, 12, 3): 22_524, (10, 10, 4): 20_476, (3, 2, 8): 108}

    @pytest.mark.parametrize("n,m,workers", [(6, 12, 3), (10, 10, 4), (3, 2, 8)])
    def test_stream_peak_is_the_worker_buffers(self, n, m, workers):
        s = generate_sbox(n, m, seed=43)
        plan = storage_plan(n, m, "stream", workers)
        buffer_bytes = plan.rows_per_block * (1 << n) * 4
        spectrum_allocations.reset_peak()
        fwht_parallel(s, workers=workers, mode="stream")
        peak = spectrum_allocations.peak_bytes
        assert peak == len(plan.runs) * buffer_bytes + ((1 << m) - 1) * 4
        assert peak == memory_estimate(n, m, mode="stream", workers=workers)
        assert peak == self.PEAKS[n, m, workers]
        assert spectrum_allocations.current_bytes == 0

    @pytest.mark.parametrize("mode", ["retain", "stream"])
    def test_tracker_peak_is_the_estimate_for_any_worker_count(self, mode):
        for n, m in [(3, 2), (8, 8), (6, 10), (10, 7), (17, 2)]:
            s = generate_sbox(n, m, seed=44)
            for workers in range(1, 13):
                spectrum_allocations.reset_peak()
                fwht_parallel(s, workers, mode)
                assert spectrum_allocations.peak_bytes == memory_estimate(
                    n, m, mode=mode, workers=workers
                )


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
