"""The float32 Kronecker kernel against the integer butterfly and the oracle.

Rows of 2^16 entries and up take the Kronecker kernel; raising
``memory.KRONECKER_MIN_BITS`` above every n forces the integer butterfly,
the reference each kernel run must equal bit for bit.
"""

import numpy as np
import pytest

import sboxeval.parallel
from sboxeval import SBox, blas, fwht_parallel, generate_sbox, spectrum_allocations, walsh_direct
from sboxeval import memory
from sboxeval.memory import memory_estimate, storage_plan, sylvester_factors
from sboxeval.sbox import MAX_BITS

needs_openblas = pytest.mark.skipif(blas.openblas() is None, reason="numpy's OpenBLAS is not at hand")


def integer_kernel(s, workers, mode):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(memory, "KRONECKER_MIN_BITS", MAX_BITS + 1)
        assert storage_plan(s.n, s.m).factors == ()
        return fwht_parallel(s, workers, mode)


def assert_same(got, want):
    (spec, cm), (ref_spec, ref_cm) = got, want
    assert np.array_equal(cm.values, ref_cm.values)
    if spec is not None:
        assert np.array_equal(spec.rows, ref_spec.rows)


class TestFactors:
    @pytest.mark.parametrize(
        "n,factors", [(1, (1,)), (8, (8,)), (9, (5, 4)), (16, (8, 8)), (17, (6, 6, 5)), (24, (8, 8, 8))]
    )
    def test_split(self, n, factors):
        assert sylvester_factors(n) == factors

    def test_exactness_bound(self):
        # float32 holds integers up to 2^24 exactly, and every box the package accepts fits.
        assert MAX_BITS <= memory.FLOAT32_EXACT_BITS == 24
        with pytest.raises(ValueError, match="exact"):
            sylvester_factors(25)

    @needs_openblas
    def test_kernel_per_n(self):
        assert storage_plan(15, 4).factors == ()
        assert storage_plan(16, 4, "stream", 2).factors == (8, 8)
        assert storage_plan(17, 2).factors == (6, 6, 5)

    @needs_openblas
    def test_plan_adds_a_scratch_block_per_worker_and_one_factor_matrix(self):
        plan = storage_plan(16, 4, "stream", 3)
        assert plan.shapes == ((1, 2**16),) * 6 + ((256, 256), (15,))
        plan = storage_plan(17, 2, "retain", 2)
        assert plan.shapes == ((3, 2**17),) + ((1, 2**17),) * 2 + ((64, 64), (3,))


@needs_openblas
class TestBitIdentical:
    @pytest.fixture(scope="class", params=[(16, 4), (17, 2)], ids=["16x4", "17x2"])
    def box(self, request):
        n, m = request.param
        s = generate_sbox(n, m, seed=n * 10 + m)
        return s, integer_kernel(s, 1, "retain")

    @pytest.mark.parametrize("mode", ["retain", "stream"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equals_the_integer_kernel(self, box, mode, workers):
        s, reference = box
        spectrum_allocations.reset_peak()
        got = fwht_parallel(s, workers, mode)
        assert spectrum_allocations.peak_bytes == memory_estimate(s.n, s.m, mode, workers)
        assert_same(got, reference if mode == "retain" else (None, reference[1]))

    def test_sampled_entries_equal_the_defining_sum(self, box):
        s, _ = box
        spec, _ = fwht_parallel(s, 2, "retain")
        rng = np.random.default_rng(7)
        for u, v in zip(rng.integers(0, 1 << s.n, 12), rng.integers(1, 1 << s.m, 12)):
            assert spec.value(int(u), int(v)) == walsh_direct(s, int(u), int(v))

    def test_affine_components_reach_2_to_the_n(self):
        # g_1 = x0, g_2 = x0 ^ x5 ^ 1 and g_3 = x5 ^ 1 are affine: |W| = 2^16 and nl = 0.
        x = np.arange(1 << 16, dtype=np.uint32)
        s = SBox(16, 2, (x & 1) | ((((x >> 5) ^ x ^ 1) & 1) << 1))
        spec, cm = fwht_parallel(s, 2, "retain")
        assert (spec.value(1, 1), spec.value(33, 2), spec.value(32, 3)) == (2**16, -(2**16), -(2**16))
        assert cm.values.tolist() == [0, 0, 0]
        assert_same((spec, cm), integer_kernel(s, 2, "retain"))

    @pytest.mark.parametrize("n,m", [(3, 5), (6, 8), (9, 6)])
    @pytest.mark.parametrize("mode", ["retain", "stream"])
    def test_multi_row_blocks_below_the_threshold(self, n, m, mode, monkeypatch):
        # With the threshold lowered, a block holds many rows and one factor may be all of n.
        s = generate_sbox(n, m, seed=n + m)
        reference = integer_kernel(s, 1, mode)
        monkeypatch.setattr(memory, "KRONECKER_MIN_BITS", 1)
        for workers in (1, 3):
            assert_same(fwht_parallel(s, workers, mode), reference)


@needs_openblas
class TestOpenBLASThreads:
    @pytest.fixture
    def two_threads(self):
        get, set_ = blas.openblas()
        before = get()
        set_(2)
        yield get
        set_(before)

    def test_pinned_to_one_thread_while_the_pool_runs(self, two_threads, monkeypatch):
        seen = []
        kernel = sboxeval.parallel.fwht_kronecker

        def spy(*args):
            seen.append(two_threads())
            return kernel(*args)

        monkeypatch.setattr(sboxeval.parallel, "fwht_kronecker", spy)
        fwht_parallel(generate_sbox(16, 3, seed=5), 2, "stream")
        assert seen == [1] * 7
        assert two_threads() == 2

    def test_restored_after_a_worker_raises(self, two_threads, monkeypatch):
        def broken(*_args):
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(sboxeval.parallel, "fwht_kronecker", broken)
        with pytest.raises(RuntimeError, match="kernel failed"):
            fwht_parallel(generate_sbox(16, 3, seed=5), 2, "retain")
        assert two_threads() == 2
        assert spectrum_allocations.current_bytes == 0


def test_without_openblas_the_integer_kernel_runs(monkeypatch):
    s = generate_sbox(16, 3, seed=6)
    monkeypatch.setattr(blas, "openblas", lambda: None)

    def unreachable(*_args):
        raise AssertionError("the Kronecker kernel ran without OpenBLAS")

    monkeypatch.setattr(sboxeval.parallel, "fwht_kronecker", unreachable)
    assert storage_plan(16, 3, "stream", 2).factors == ()
    assert memory_estimate(16, 3, "stream", 2) == 2 * 2**18 + 7 * 4
    spec, cm = fwht_parallel(s, 2, "retain")
    for v in range(1, 8):
        assert 2 * int(cm.values[v - 1]) == 2**16 - int(np.abs(spec.rows[v - 1]).max())
    assert spec.value(3, 5) == walsh_direct(s, 3, 5)
