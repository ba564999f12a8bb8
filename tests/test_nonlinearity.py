import numpy as np
import pytest

from sboxeval import (
    MethodOptionError,
    SBox,
    SizeCapError,
    WalshSpectrum,
    aes_sbox,
    evaluate,
    fwht_parallel,
    generate_sbox,
    identity_sbox,
    nonlinearity_bruteforce,
    nonlinearity_from_maxima,
    nonlinearity_from_spectrum,
    spectrum_allocations,
)


class TestSpectrumScan:
    def test_aes(self):
        result = nonlinearity_from_spectrum(fwht_parallel(aes_sbox(), 1, "retain")[0])
        assert result.value == 112

    def test_identity_is_linear(self):
        for n in (2, 4, 6):
            assert nonlinearity_from_spectrum(fwht_parallel(identity_sbox(n), 1, "retain")[0]).value == 0

    def test_matches_bruteforce_on_5x5(self):
        s = generate_sbox(5, 5, seed=3)
        scan = nonlinearity_from_spectrum(fwht_parallel(s, 1, "retain")[0])
        assert scan.value == nonlinearity_bruteforce(s).value

    def test_odd_gap_in_a_non_maximal_row_raises(self):
        rows = fwht_parallel(generate_sbox(6, 6, seed=5), 1, "retain")[0].rows.copy()
        row_max = np.abs(rows).max(axis=1)
        v = int(np.argmin(row_max))
        assert row_max[v] + 1 < row_max.max()  # the row stays below the maximum
        u = int(np.argmax(np.abs(rows[v])))
        rows[v, u] += np.sign(rows[v, u])  # its max |W|, and so its gap, turns odd
        with pytest.raises(AssertionError):
            nonlinearity_from_spectrum(WalshSpectrum(6, 6, rows))


class TestMaximaReduction:
    def test_aes(self):
        _, cm = fwht_parallel(aes_sbox(), 1, "retain")
        assert nonlinearity_from_maxima(cm).value == 112

    def test_identity_zero(self):
        _, cm = fwht_parallel(identity_sbox(4), 1, "retain")
        result = nonlinearity_from_maxima(cm)
        assert result.value == 0
        assert result.argmin_v == 1  # ties broken by smallest mask

    def test_matches_spectrum_path_on_6x6(self):
        s = generate_sbox(6, 6, seed=11)
        spectrum, cm = fwht_parallel(s, 1, "retain")
        scan = nonlinearity_from_spectrum(spectrum)
        reduced = nonlinearity_from_maxima(cm)
        assert scan.value == reduced.value
        assert scan.argmin_v == reduced.argmin_v

    def test_value_equals_values_at_argmin(self):
        _, cm = fwht_parallel(generate_sbox(5, 6, seed=23), 1, "stream")
        result = nonlinearity_from_maxima(cm)
        assert result.value == int(cm.values[result.argmin_v - 1])


class TestBruteforce:
    def test_identity_components_are_affine(self):
        result = nonlinearity_bruteforce(identity_sbox(3))
        assert result.value == 0

    def test_affine_nullity(self):
        # S(x) = x XOR c has only affine components on every path
        table = np.arange(16, dtype=np.uint32) ^ 0b1011
        s = SBox(4, 4, table)
        assert nonlinearity_bruteforce(s).value == 0
        assert nonlinearity_from_spectrum(fwht_parallel(s, 1, "retain")[0]).value == 0
        _, cm = fwht_parallel(s, 1, "stream")
        assert nonlinearity_from_maxima(cm).value == 0

    def test_aes_is_112(self):
        assert nonlinearity_bruteforce(aes_sbox()).value == 112

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            nonlinearity_bruteforce(generate_sbox(9, 9, seed=0))

    @pytest.mark.parametrize("seed", range(50))
    def test_oracle_sweep_5x5(self, seed):
        s = generate_sbox(5, 5, seed=seed)
        _, cm = fwht_parallel(s, 1, "retain")
        assert nonlinearity_from_maxima(cm).value == nonlinearity_bruteforce(s).value


class TestProperties:
    @pytest.mark.parametrize("n,seed", [(4, 1), (4, 2), (6, 3), (6, 4)])
    def test_bent_concatenation_bound(self, n, seed):
        # even n = m: value <= 2^{n-1} - 2^{n/2 - 1}
        s = generate_sbox(n, n, seed)
        _, cm = fwht_parallel(s, 1, "retain")
        assert nonlinearity_from_maxima(cm).value <= (1 << (n - 1)) - (1 << (n // 2 - 1))

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_appending_output_bit_never_raises_value(self, seed):
        rng = np.random.default_rng(seed)
        s = generate_sbox(5, 4, seed)
        extra = rng.integers(0, 2, size=32).astype(np.uint32)
        extended = SBox(5, 5, s.table | (extra << 4))
        _, cm_small = fwht_parallel(s, 1, "retain")
        _, cm_big = fwht_parallel(extended, 1, "retain")
        assert (
            nonlinearity_from_maxima(cm_big).value
            <= nonlinearity_from_maxima(cm_small).value
        )

    def test_value_range(self):
        for seed in range(5):
            s = generate_sbox(6, 3, seed)
            value = nonlinearity_bruteforce(s).value
            assert 0 <= value <= 32


class TestEvaluate:
    @pytest.mark.parametrize("method", ["rowmajor", "transposed", "fused", "parallel", "bruteforce"])
    def test_all_methods_agree(self, method):
        s = generate_sbox(6, 6, seed=77, bijective=True)
        reference = nonlinearity_bruteforce(s).value
        workers = 3 if method == "parallel" else None
        assert evaluate(s, method=method, workers=workers).value == reference

    def test_stream_parallel(self):
        s = generate_sbox(7, 7, seed=78)
        assert (
            evaluate(s, method="parallel", workers=2, mode="stream").value
            == evaluate(s, method="fused").value
        )

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            evaluate(identity_sbox(2), method="magic")

    @pytest.mark.parametrize(
        "method,workers,mode",
        [
            ("rowmajor", None, "stream"),
            ("transposed", None, "stream"),
            ("fused", 4, "retain"),
            ("bruteforce", None, "stream"),
        ],
    )
    def test_option_the_method_does_not_take_is_refused(self, method, workers, mode):
        spectrum_allocations.reset_peak()
        with pytest.raises(MethodOptionError):
            evaluate(generate_sbox(6, 6, seed=79), method, workers, mode)
        assert spectrum_allocations.peak_bytes == 0
