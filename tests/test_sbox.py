import numpy as np
import pytest

from sboxeval import (
    AES_SBOX,
    SBox,
    SBoxFormatError,
    aes_sbox,
    generate_sbox,
    identity_sbox,
    memory_estimate,
    parse_sbox,
    polarity_rows,
    polarity_truth_table,
    render_sbox,
)
from sboxeval.memory import MemoryBudgetError


def test_aes_table_is_the_standard_one():
    assert AES_SBOX[0] == 0x63
    assert AES_SBOX[1] == 0x7C
    assert AES_SBOX[0x53] == 0xED
    assert AES_SBOX[0xFF] == 0x16
    assert sorted(AES_SBOX) == list(range(256))  # bijective


class TestParse:
    def test_aes_file(self):
        text = "8 8\n" + " ".join(str(e) for e in AES_SBOX)
        s = parse_sbox(text)
        assert s.n == 8 and s.m == 8
        assert s == aes_sbox()

    def test_smallest_bijection(self):
        s = parse_sbox("1 1\n0 1")
        assert s == identity_sbox(1)

    def test_hex_and_comments(self):
        s = parse_sbox("# a box\n2 2  # header\n0x0 1\n# mid comment\n0x2 3\n")
        assert list(s.table) == [0, 1, 2, 3]

    def test_wrong_entry_count(self):
        with pytest.raises(SBoxFormatError, match="expected 4 entries, found 3"):
            parse_sbox("2 2\n0 1 2")

    def test_entry_too_wide_reports_line(self):
        with pytest.raises(SBoxFormatError, match="line 3.*does not fit in 2 bits"):
            parse_sbox("2 2\n0 1\n4 3")

    def test_non_numeric_token_reports_position(self):
        with pytest.raises(SBoxFormatError, match="line 2.*'zap'.*token 2"):
            parse_sbox("2 2\n0 zap 2 3")

    def test_bits_out_of_range(self):
        with pytest.raises(SBoxFormatError, match="1..24"):
            parse_sbox("25 8\n0")
        with pytest.raises(SBoxFormatError, match="1..24"):
            parse_sbox("0 4\n")

    def test_empty_input(self):
        with pytest.raises(SBoxFormatError, match="header"):
            parse_sbox("# nothing here\n")

    @pytest.mark.parametrize(
        "n,m,seed,bijective",
        [(3, 3, 7, True), (4, 3, 1, False), (5, 5, 11, True), (2, 6, 9, False)],
    )
    def test_render_parse_roundtrip(self, n, m, seed, bijective):
        s = generate_sbox(n, m, seed, bijective)
        assert parse_sbox(render_sbox(s)) == s

    def test_render_is_16_hex_entries_per_line(self):
        lines = render_sbox(aes_sbox()).splitlines()
        assert lines[0] == "8 8"
        assert len(lines) == 1 + 16
        assert lines[1].split() == [f"0x{e:02X}" for e in AES_SBOX[:16]]


class TestGenerate:
    def test_bijective_is_permutation(self):
        s = generate_sbox(3, 3, seed=7, bijective=True)
        assert sorted(s.table) == list(range(8))

    def test_nonbijective_entries_in_range(self):
        s = generate_sbox(4, 3, seed=1)
        assert s.table.size == 16
        assert int(s.table.max()) < 8

    def test_deterministic(self):
        a = generate_sbox(6, 6, seed=42, bijective=True)
        b = generate_sbox(6, 6, seed=42, bijective=True)
        assert a == b
        c = generate_sbox(6, 6, seed=43, bijective=True)
        assert a != c

    def test_bijective_needs_square(self):
        with pytest.raises(ValueError, match="n == m"):
            generate_sbox(4, 3, seed=0, bijective=True)


class TestSBoxInvariants:
    def test_wrong_table_length(self):
        with pytest.raises(ValueError, match="4 entries"):
            SBox(2, 2, np.array([0, 1, 2], dtype=np.uint32))

    def test_entry_exceeds_output_width(self):
        with pytest.raises(ValueError, match="does not fit"):
            SBox(2, 2, np.array([0, 1, 2, 4], dtype=np.uint32))

    def test_bit_width_caps(self):
        with pytest.raises(ValueError):
            SBox(0, 1, np.array([], dtype=np.uint32))
        with pytest.raises(ValueError):
            SBox(25, 1, np.zeros(1 << 25, dtype=np.uint32))

    def test_table_is_immutable(self):
        s = identity_sbox(3)
        with pytest.raises(ValueError):
            s.table[0] = 5


def component(s, v, x):
    """g_v(x) from its definition: the parity of v AND S(x)."""
    return (v & int(s.table[x])).bit_count() & 1


def polarity_block(s, lo, hi):
    """The polarity rows of masks lo..hi-1, through polarity_rows."""
    return polarity_rows(s, lo, hi, np.empty((hi - lo, 1 << s.n), dtype=np.int32))


class TestComponentValue:
    def test_zero_mask_is_constant_zero(self):
        s = generate_sbox(4, 4, seed=5)
        assert all(component(s, 0, x) == 0 for x in range(16))
        assert np.all(polarity_block(s, 0, 1) == 1)

    def test_identity_bit0(self):
        assert component(identity_sbox(3), 0b001, 5) == 1
        assert polarity_block(identity_sbox(3), 0b001, 0b010)[0, 5] == -1

    def test_aes_full_mask_at_zero(self):
        # parity of S(0) = 0x63; independent oracle: Python's bit counting
        expected = bin(0x63).count("1") & 1
        assert component(aes_sbox(), 0xFF, 0) == expected == 0
        assert polarity_block(aes_sbox(), 0xFF, 0x100)[0, 0] == 1


class TestPolarityTruthTable:
    def test_identity_1x1(self):
        ptt = polarity_truth_table(identity_sbox(1))
        assert ptt.rows.shape == (1, 2)
        assert list(ptt.rows[0]) == [1, -1]

    def test_constant_box_rows_all_plus_one(self):
        s = SBox(3, 2, np.zeros(8, dtype=np.uint32))
        ptt = polarity_truth_table(s)
        assert np.all(ptt.rows == 1)

    def test_aes_shape_and_first_row(self):
        ptt = polarity_truth_table(aes_sbox())
        assert ptt.rows.shape == (255, 256)
        assert set(np.unique(ptt.rows)) == {-1, 1}
        # bit0(0x63) = 1, bit0(0x7C) = 0
        assert ptt.rows[0, 0] == -1 and ptt.rows[0, 1] == 1

    @pytest.mark.parametrize("n,m,seed", [(4, 4, 2), (6, 6, 3), (5, 6, 4), (6, 5, 8)])
    def test_sign_to_bit_roundtrip(self, n, m, seed):
        s = generate_sbox(n, m, seed)
        rows = polarity_block(s, 1, 1 << m)
        for v in range(1, 1 << m):
            for x in range(1 << n):
                assert (1 - int(rows[v - 1, x])) // 2 == component(s, v, x)

    def test_row_sums_track_component_weight(self):
        s = generate_sbox(5, 4, seed=13)
        rows = polarity_block(s, 1, 16)
        for v in range(1, 16):
            weight = sum(component(s, v, x) for x in range(32))
            assert int(rows[v - 1].sum()) == 32 - 2 * weight

    def test_bijective_rows_balanced(self):
        s = generate_sbox(6, 6, seed=17, bijective=True)
        rows = polarity_truth_table(s).rows
        assert np.all(rows.sum(axis=1) == 0)

    def test_budget_enforced(self):
        with pytest.raises(MemoryBudgetError):
            polarity_truth_table(generate_sbox(8, 8, seed=1), max_bytes=1000)

    def test_blocked_fill_matches_definition_across_blocks(self):
        # 32,767 masks of 8 entries fill in 8,192-row blocks, the last one partial
        s = generate_sbox(3, 15, seed=19)
        parity = np.array([[(v & int(y)).bit_count() & 1 for y in s.table]
                           for v in range(1, 1 << 15)])
        assert np.array_equal(polarity_truth_table(s).rows, 1 - 2 * parity)

    def test_rows_fill_a_strided_view(self):
        s = generate_sbox(4, 3, seed=20)
        xmajor = np.zeros((16, 7), dtype=np.int32)
        polarity_rows(s, 2, 6, xmajor.T[1:5])
        expected = polarity_truth_table(s).rows
        assert np.array_equal(xmajor.T[1:5], expected[1:5])
        assert np.all(xmajor[:, [0, 5, 6]] == 0)


class TestMemoryEstimate:
    def test_retain_8x8(self):
        # 255 * 256 * 4 spectrum bytes plus the 2^8-entry maxima array
        assert memory_estimate(8, 8, 4, "retain") == 255 * 256 * 4 + 256 * 4

    def test_retain_16x16_is_16gib_class(self):
        # (2^16 - 1) * 2^16 * 4 + 2^16 * 4 collapses to exactly 2^34
        assert memory_estimate(16, 16, 4, "retain") == 1 << 34

    def test_stream_16x16_ten_workers(self):
        assert memory_estimate(16, 16, 4, "stream", workers=10) == 12 * (1 << 16) * 4

    def test_stream_below_n9_counts_2kib_blocks(self):
        # rows of 64 entries travel in 2 KiB blocks of 8 rows: two workers'
        # blocks plus one spare, and the 2^14-entry maxima array
        assert memory_estimate(6, 14, 4, "stream", workers=2) == 3 * 2**9 * 4 + 2**14 * 4

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            memory_estimate(4, 4, 4, "keep")
