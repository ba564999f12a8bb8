import io

import pytest

import sboxeval.bench as bench
from sboxeval import (
    BenchVerificationError,
    generate_sbox,
    read_csv,
    run_benchmark,
    speedup_report,
    write_csv,
)
from sboxeval.nonlinearity import MethodOptionError, NonlinearityResult


@pytest.fixture(scope="module")
def small_records():
    s = generate_sbox(6, 6, seed=5)
    return run_benchmark(
        s, {"fused", "transposed", "parallel"}, worker_counts=[1, 2], repetitions=2
    )


class TestRunBenchmark:
    def test_one_record_per_method_workers_pair(self, small_records):
        keys = [(r.method, r.workers) for r in small_records]
        assert keys == [("fused", 1), ("parallel", 1), ("parallel", 2), ("transposed", 1)]

    def test_times_recorded_per_repetition(self, small_records):
        for r in small_records:
            assert len(r.wall_times) == r.repetitions == 2
            assert len(r.transform_times) == 2
            assert min(r.wall_times) <= r.mean_ms <= max(r.wall_times)
            assert all(t >= 0 for t in r.wall_times)
            assert all(t <= w for t, w in zip(r.transform_times, r.wall_times))

    def test_single_repetition_has_zero_stddev(self):
        s = generate_sbox(4, 4, seed=6)
        records = run_benchmark(s, {"fused"}, repetitions=1)
        assert len(records) == 1
        assert records[0].stddev_ms == 0.0

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            run_benchmark(generate_sbox(3, 3, seed=0), {"fused"}, repetitions=0)

    def test_wrong_result_is_an_error_not_a_data_point(self, monkeypatch):
        s = generate_sbox(4, 4, seed=7)
        monkeypatch.setitem(
            bench.METHODS,
            "bruteforce",
            lambda *_args: (NonlinearityResult(999, 1), None),
        )
        with pytest.raises(BenchVerificationError, match="999"):
            run_benchmark(s, {"bruteforce"}, repetitions=1)

    def test_retaining_method_in_stream_mode_raises_before_any_run(self, monkeypatch):
        def no_runs(*_args):
            raise AssertionError("a run started before the method was checked")

        monkeypatch.setattr(bench, "fwht_parallel", no_runs)
        monkeypatch.setitem(bench.METHODS, "transposed", no_runs)
        with pytest.raises(MethodOptionError, match="--mode stream"):
            run_benchmark(generate_sbox(4, 4, seed=8), {"transposed"}, mode="stream")

    def test_no_methods_runs_nothing(self, monkeypatch):
        def no_runs(*_args):
            raise AssertionError("the reference ran for an empty method list")

        monkeypatch.setattr(bench, "fwht_parallel", no_runs)
        assert run_benchmark(generate_sbox(4, 4, seed=8), []) == []


class TestSpeedupReport:
    def test_baseline_ratio_is_one(self, small_records):
        rows = speedup_report(small_records, "fused")
        by_key = {(r.method, r.workers): r.ratio for r in rows}
        assert by_key[("fused", 1)] == 1.0
        assert all(r.ratio >= 0 for r in rows)
        assert len(rows) == len(small_records)

    def test_known_ratio(self):
        a = bench.BenchRecord("rowmajor", 12, 12, 1, 1, [1641.0], [1641.0])
        b = bench.BenchRecord("transposed", 12, 12, 1, 1, [98.0], [98.0])
        rows = speedup_report([a, b], "rowmajor")
        transposed = next(r for r in rows if r.method == "transposed")
        assert transposed.ratio == pytest.approx(16.7, abs=0.1)

    def test_mixed_sizes_compared_per_group(self):
        rows = speedup_report(
            [
                bench.BenchRecord("rowmajor", 8, 8, 1, 1, [10.0], [10.0]),
                bench.BenchRecord("transposed", 8, 8, 1, 1, [5.0], [5.0]),
                bench.BenchRecord("rowmajor", 10, 10, 1, 1, [100.0], [100.0]),
                bench.BenchRecord("transposed", 10, 10, 1, 1, [20.0], [20.0]),
            ],
            "rowmajor",
        )
        ratios = {(r.n, r.method): r.ratio for r in rows}
        assert ratios[(8, "rowmajor")] == ratios[(10, "rowmajor")] == 1.0
        assert ratios[(8, "transposed")] == pytest.approx(2.0)
        assert ratios[(10, "transposed")] == pytest.approx(5.0)

    def test_missing_baseline(self, small_records):
        with pytest.raises(ValueError, match="rowmajor"):
            speedup_report(small_records, "rowmajor")


class TestCsv:
    def test_header_and_order(self, small_records):
        buf = io.StringIO()
        write_csv(small_records, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "method,n,m,workers,repetitions,mean_ms,stddev_ms,transform_only_mean_ms"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "fused", "parallel", "parallel", "transposed",
        ]

    def test_roundtrip(self, small_records):
        buf = io.StringIO()
        write_csv(small_records, buf)
        rows = read_csv(buf.getvalue())
        assert len(rows) == len(small_records)
        for row, record in zip(rows, small_records):
            assert row["method"] == record.method
            assert row["n"] == record.n and row["m"] == record.m
            assert row["workers"] == record.workers
            assert row["repetitions"] == record.repetitions
            assert row["mean_ms"] == record.mean_ms
            assert row["stddev_ms"] == record.stddev_ms
            assert row["transform_only_mean_ms"] == record.transform_only_mean_ms
