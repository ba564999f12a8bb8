import io

import numpy as np
import pytest

from sboxeval import (
    aes_sbox,
    fwht_column_in_place,
    fwht_parallel,
    fwht_rowmajor,
    fwht_rows_in_place,
    generate_sbox,
    identity_sbox,
    walsh_direct,
    write_spectrum,
)
from sboxeval.memory import MemoryBudgetError
from sboxeval.walsh import column_nonlinearity


def direct_transform_oracle(col):
    """Independent oracle for the butterfly: the defining double loop."""
    length = len(col)
    out = []
    for u in range(length):
        total = 0
        for x in range(length):
            total += col[x] if (u & x).bit_count() % 2 == 0 else -col[x]
        out.append(total)
    return out


class TestWalshDirect:
    def test_constant_term(self):
        s = generate_sbox(5, 5, seed=1)
        assert walsh_direct(s, 0, 0) == 32

    def test_bijective_balance(self):
        s = generate_sbox(6, 6, seed=2, bijective=True)
        assert all(walsh_direct(s, 0, v) == 0 for v in range(1, 64))

    def test_range_checks(self):
        s = identity_sbox(3)
        with pytest.raises(IndexError):
            walsh_direct(s, 8, 0)
        with pytest.raises(IndexError):
            walsh_direct(s, 0, 8)

    def test_aes_exhaustive_max_is_32(self):
        # full 256x256 direct evaluation; consistent with nl = 128 - 32/2 = 112
        aes = aes_sbox()
        max_abs = max(
            abs(walsh_direct(aes, u, v)) for v in range(1, 256) for u in range(256)
        )
        assert max_abs == 32


class TestColumnKernel:
    def test_two_input_and_function(self):
        # polarity of x0 AND x1; expected values worked by hand and by the
        # direct double-loop oracle
        col = np.array([1, 1, 1, -1], dtype=np.int32)
        expected = direct_transform_oracle([1, 1, 1, -1])
        assert expected == [2, 2, 2, -2]
        _, max_abs = fwht_column_in_place(col)
        assert list(col) == expected
        assert max_abs == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_constant_column(self, n):
        col = np.ones(1 << n, dtype=np.int32)
        _, max_abs = fwht_column_in_place(col)
        assert col[0] == 1 << n and np.all(col[1:] == 0)
        assert max_abs == 1 << n

    @pytest.mark.parametrize("k", range(1, 13))
    def test_scale_involution(self, k):
        rng = np.random.default_rng(k)
        original = rng.choice([-1, 1], size=1 << k).astype(np.int32)
        col = original.copy()
        fwht_column_in_place(col)
        fwht_column_in_place(col)
        assert np.array_equal(col, (1 << k) * original)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_against_direct_double_loop(self, k):
        rng = np.random.default_rng(100 + k)
        values = rng.integers(-5, 6, size=1 << k).astype(np.int32)
        expected = direct_transform_oracle(list(values))
        col = values.copy()
        _, max_abs = fwht_column_in_place(col)
        assert list(col) == expected
        assert max_abs == max(abs(e) for e in expected)

    def test_strided_view_transforms_in_place(self):
        mat = np.zeros((4, 3), dtype=np.int32)
        mat[:, 1] = [1, 1, 1, -1]
        fwht_column_in_place(mat[:, 1])
        assert list(mat[:, 1]) == [2, 2, 2, -2]
        assert np.all(mat[:, 0] == 0) and np.all(mat[:, 2] == 0)

    def test_length_one(self):
        col = np.array([-7], dtype=np.int32)
        _, max_abs = fwht_column_in_place(col)
        assert col[0] == -7 and max_abs == 7

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            fwht_column_in_place(np.ones(6, dtype=np.int32))


def sylvester(k):
    """H_k by the Sylvester doubling [[H, H], [H, -H]], in int64."""
    h = np.ones((1, 1), dtype=np.int64)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return h


class TestRowsKernel:
    @pytest.mark.parametrize("rows,k", [(1, 0), (1, 1), (5, 2), (7, 3), (16, 6), (3, 8)])
    def test_against_sylvester_product(self, rows, k):
        rng = np.random.default_rng(200 + k)
        values = rng.integers(-9, 10, size=(rows, 1 << k))
        block = values.astype(np.int32)
        max_abs = fwht_rows_in_place(block)
        expected = values @ sylvester(k)  # H_k is symmetric
        assert np.array_equal(block, expected)
        assert max_abs.dtype == np.int64
        assert np.array_equal(max_abs, np.abs(expected).max(axis=1))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 9])
    def test_rows_agree_with_per_column_kernel(self, k):
        rng = np.random.default_rng(300 + k)
        block = rng.choice([-1, 1], size=(11, 1 << k)).astype(np.int32)
        cols = block.copy()
        max_abs = fwht_rows_in_place(block)
        per_col = [fwht_column_in_place(col)[1] for col in cols]
        assert np.array_equal(block, cols)
        assert list(max_abs) == per_col

    def test_rows_of_a_strided_view(self):
        mat = np.zeros((8, 5), dtype=np.int32)
        mat[:, 1:4] = np.tile([1, 1, 1, -1, 1, 1, 1, -1], (3, 1)).T
        max_abs = fwht_rows_in_place(mat.T[1:4])
        assert np.all(mat[:, [0, 4]] == 0)
        assert np.array_equal(mat.T[1:4], np.tile([4, 4, 4, -4, 0, 0, 0, 0], (3, 1)))
        assert list(max_abs) == [4, 4, 4]

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            fwht_rows_in_place(np.ones((2, 12), dtype=np.int32))

    def test_non_walsh_row_in_a_block_fails_the_gap_check(self):
        # rows 0 and 2 are genuine polarity rows; row 1 holds a 2, so its
        # transform has the odd maximum 5 and an odd gap to 2^n
        block = np.array([[1, 1, 1, -1], [1, 1, 1, 2], [1, -1, 1, -1]], dtype=np.int32)
        max_abs = fwht_rows_in_place(block)
        assert list(column_nonlinearity(4, max_abs[[0, 2]])) == [1, 0]
        with pytest.raises(AssertionError, match="odd spectrum gap"):
            column_nonlinearity(4, max_abs)


class TestTransformVariants:
    def test_identity_2x2_rows_are_linear(self):
        w = fwht_rowmajor(identity_sbox(2))
        for v in range(1, 4):
            row = w.rows[v - 1]
            hits = np.abs(row) == 4
            assert hits.sum() == 1 and np.all(row[~hits] == 0)

    def test_aes_row_v1_matches_direct(self):
        w = fwht_rowmajor(aes_sbox())
        aes = aes_sbox()
        assert all(int(w.rows[0, u]) == walsh_direct(aes, u, 1) for u in range(256))

    def test_variants_bit_identical_on_6x4(self):
        s = generate_sbox(6, 4, seed=42)
        a = fwht_rowmajor(s)
        b = fwht_parallel(s, 1, "retain")[0]
        c, _ = fwht_parallel(s, 1, "retain")
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(b.rows, c.rows)

    @pytest.mark.parametrize("n,m,seed", [(4, 4, 0), (5, 3, 1), (3, 5, 2)])
    def test_transposed_matches_direct_everywhere(self, n, m, seed):
        s = generate_sbox(n, m, seed)
        w = fwht_parallel(s, 1, "retain")[0]
        for v in range(1, 1 << m):
            for u in range(1 << n):
                assert int(w.rows[v - 1, u]) == walsh_direct(s, u, v)

    @pytest.mark.parametrize("n,m,seed", [(5, 5, 6), (6, 6, 7), (4, 7, 8)])
    def test_parseval_rows(self, n, m, seed):
        w = fwht_parallel(generate_sbox(n, m, seed), 1, "retain")[0]
        sums = np.sum(w.rows.astype(np.int64) ** 2, axis=1)
        assert np.all(sums == 1 << (2 * n))

    def test_spectrum_row_parity(self):
        # every entry of a row shares parity with 2^n
        w = fwht_parallel(generate_sbox(5, 4, seed=9), 1, "retain")[0]
        assert np.all(w.rows % 2 == 0)

    def test_zero_mask_accessor(self):
        w = fwht_parallel(identity_sbox(3), 1, "retain")[0]
        assert w.value(0, 0) == 8
        assert w.value(5, 0) == 0

    def test_budget_errors(self):
        s = generate_sbox(8, 8, seed=3)
        with pytest.raises(MemoryBudgetError):
            fwht_rowmajor(s, max_bytes=1024)
        with pytest.raises(MemoryBudgetError):
            fwht_parallel(s, 1, "retain", 1024)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="retain.*stream"):
            fwht_parallel(identity_sbox(2), 1, "drop")


class TestFused:
    def test_aes_minimum_is_112(self):
        _, cm = fwht_parallel(aes_sbox(), 1, "retain")
        assert int(cm.values.min()) == 112

    def test_identity_all_zero(self):
        _, cm = fwht_parallel(identity_sbox(4), 1, "retain")
        assert np.all(cm.values == 0)

    def test_5x5_bijection_against_direct_oracle(self):
        s = generate_sbox(5, 5, seed=3, bijective=True)
        _, cm = fwht_parallel(s, 1, "retain")
        for v in range(1, 32):
            max_direct = max(abs(walsh_direct(s, u, v)) for u in range(32))
            assert int(cm.values[v - 1]) == (32 - max_direct) // 2

    def test_maxima_consistent_with_retained_spectrum(self):
        s = generate_sbox(6, 5, seed=14)
        spectrum, cm = fwht_parallel(s, 1, "retain")
        rescan = (64 - np.abs(spectrum.rows).max(axis=1)) // 2
        assert np.array_equal(cm.values, rescan)

    def test_stream_equals_retain(self):
        s = generate_sbox(7, 6, seed=15)
        spectrum, cm_stream = fwht_parallel(s, 1, "stream")
        assert spectrum is None
        _, cm_retain = fwht_parallel(s, 1, "retain")
        assert np.array_equal(cm_stream.values, cm_retain.values)

    def test_column_count(self):
        _, cm = fwht_parallel(generate_sbox(4, 6, seed=16), 1, "stream")
        assert cm.values.shape == (63,)
        assert np.all(cm.values >= 0) and np.all(cm.values <= 8)


class TestSpectrumDump:
    def test_identity_2x2_dump(self):
        buf = io.StringIO()
        write_spectrum(fwht_parallel(identity_sbox(2), 1, "retain")[0], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "2 2"
        assert len(lines) == 4
        for line in lines[1:]:
            entries = [int(t) for t in line.split()]
            assert len(entries) == 4
            assert sorted(map(abs, entries)) == [0, 0, 0, 4]
