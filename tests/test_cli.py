import threading

import pytest

import sboxeval.parallel
from sboxeval import aes_sbox, generate_sbox, parse_sbox, render_sbox
from sboxeval.cli import main


@pytest.fixture()
def aes_file(tmp_path):
    path = tmp_path / "aes.sbox"
    path.write_text(render_sbox(aes_sbox()))
    return str(path)


def write_box(tmp_path, name, n, m, seed, bijective=False):
    path = tmp_path / name
    path.write_text(render_sbox(generate_sbox(n, m, seed, bijective)))
    return str(path)


class TestNl:
    def test_aes_default_method(self, aes_file, capsys):
        assert main(["nl", aes_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("nl = 112")
        assert "argmin v" in out

    def test_identity_is_zero(self, tmp_path, capsys):
        path = tmp_path / "id4.sbox"
        path.write_text("4 4\n" + " ".join(str(i) for i in range(16)))
        assert main(["nl", str(path)]) == 0
        assert capsys.readouterr().out.startswith("nl = 0")

    def test_bruteforce_agrees_with_default(self, tmp_path, capsys):
        path = write_box(tmp_path, "r5.sbox", 5, 5, seed=3)
        assert main(["nl", path]) == 0
        default_out = capsys.readouterr().out
        assert main(["nl", path, "--method", "bruteforce"]) == 0
        assert capsys.readouterr().out == default_out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.sbox"
        path.write_text("2 2\n0 1 2")
        assert main(["nl", str(path)]) == 2
        assert "expected 4 entries" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert main(["nl", "/nonexistent/x.sbox"]) == 2

    def test_memory_budget_exits_3_with_stream_hint(self, tmp_path, capsys):
        path = write_box(tmp_path, "r8.sbox", 8, 8, seed=1)
        assert main(["nl", path, "--max-mem", "1000"]) == 3
        assert "--mode stream" in capsys.readouterr().err

    def test_stream_mode_dodges_budget(self, tmp_path, capsys):
        path = write_box(tmp_path, "r8.sbox", 8, 8, seed=1)
        budget = str(8 * (1 << 8) * 4)  # a few columns, far below the full matrix
        assert main(["nl", path, "--max-mem", budget, "--mode", "stream",
                     "--workers", "2"]) == 0
        assert capsys.readouterr().out.startswith("nl = ")

    def test_bruteforce_size_cap_exits_4(self, tmp_path, capsys):
        path = write_box(tmp_path, "r9.sbox", 9, 9, seed=2)
        assert main(["nl", path, "--method", "bruteforce"]) == 4
        assert "capped" in capsys.readouterr().err

    def test_zero_workers_is_a_usage_error(self, tmp_path):
        path = write_box(tmp_path, "r4.sbox", 4, 4, seed=2)
        with pytest.raises(SystemExit) as exc:
            main(["nl", path, "--workers", "0"])
        assert exc.value.code == 1

    def test_env_var_budget(self, tmp_path, monkeypatch):
        path = write_box(tmp_path, "r7.sbox", 7, 7, seed=2)
        monkeypatch.setenv("SBOX_EVAL_MAX_MEM", "1000")
        assert main(["nl", path]) == 3
        monkeypatch.setenv("SBOX_EVAL_MAX_MEM", str(1 << 30))
        assert main(["nl", path]) == 0

    def test_bad_env_budget_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        path = write_box(tmp_path, "r4.sbox", 4, 4, seed=2)
        monkeypatch.setenv("SBOX_EVAL_MAX_MEM", "abc")
        assert main(["nl", path]) == 1
        assert "SBOX_EVAL_MAX_MEM" in capsys.readouterr().err

    def test_negative_max_mem_is_a_usage_error(self, tmp_path):
        path = write_box(tmp_path, "r4.sbox", 4, 4, seed=2)
        with pytest.raises(SystemExit) as exc:
            main(["nl", path, "--max-mem", "-5"])
        assert exc.value.code == 1

    def test_undecodable_file_exits_2(self, tmp_path):
        path = tmp_path / "bin.sbox"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["nl", str(path)]) == 2

    @pytest.mark.parametrize("method", ["rowmajor", "transposed", "fused", "parallel"])
    def test_budget_below_estimate_exits_3_for_every_spectrum_method(
        self, tmp_path, method
    ):
        # above the 8x8 polarity matrix (261,120 bytes), below the estimate
        # that adds the int32 maxima (262,140 bytes)
        path = write_box(tmp_path, "r8.sbox", 8, 8, seed=1)
        assert main(["nl", path, "--max-mem", "261500", "--method", method]) == 3

    @pytest.mark.parametrize("method", ["rowmajor", "transposed", "fused", "bruteforce"])
    def test_workers_without_parallel_is_a_usage_error(self, tmp_path, capsys, method):
        path = write_box(tmp_path, "r4.sbox", 4, 4, seed=2)
        assert main(["nl", path, "--method", method, "--workers", "3"]) == 1
        assert "--workers" in capsys.readouterr().err

    def test_out_of_memory_exits_3_with_stream_hint(self, tmp_path, monkeypatch, capsys):
        # no budget resolves, so only numpy's allocation can fail
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 64.0 GiB")

        monkeypatch.delenv("SBOX_EVAL_MAX_MEM", raising=False)
        monkeypatch.setattr("sboxeval.cli.default_budget", lambda: None)
        monkeypatch.setattr("sboxeval.cli.evaluate", exhausted)
        path = write_box(tmp_path, "r4.sbox", 4, 4, seed=2)
        assert main(["nl", path]) == 3
        err = capsys.readouterr().err
        assert "Unable to allocate" in err and "--mode stream" in err

    def test_internal_value_error_propagates(self, tmp_path, monkeypatch):
        # a library bug is not a bad input file: no exit code 2
        def broken(*args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr("sboxeval.cli.evaluate", broken)
        path = write_box(tmp_path, "r4.sbox", 4, 4, seed=2)
        with pytest.raises(ValueError, match="internal"):
            main(["nl", path])

    @pytest.mark.parametrize("method", ["rowmajor", "transposed"])
    def test_stream_with_retaining_method_is_a_usage_error(
        self, tmp_path, capsys, method
    ):
        path = write_box(tmp_path, "r4.sbox", 4, 4, seed=2)
        assert main(["nl", path, "--method", method, "--mode", "stream"]) == 1
        err = capsys.readouterr().err
        assert "--mode stream" in err and "hint" not in err


class TestWalsh:
    def test_identity_2x2_dump(self, tmp_path, capsys):
        path = tmp_path / "id2.sbox"
        path.write_text("2 2\n0 1 2 3")
        assert main(["walsh", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "2 2"
        assert len(lines) == 4
        for line in lines[1:]:
            entries = sorted(abs(int(t)) for t in line.split())
            assert entries == [0, 0, 0, 4]

    def test_out_file_matches_direct_spot_checks(self, aes_file, tmp_path):
        out = tmp_path / "aes.wspec"
        assert main(["walsh", aes_file, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "8 8"
        assert len(lines) == 256
        from sboxeval import walsh_direct

        aes = aes_sbox()
        row_v1 = [int(t) for t in lines[1].split()]
        assert row_v1[:8] == [walsh_direct(aes, u, 1) for u in range(8)]

    def test_oversized_dump_exits_4(self, tmp_path, capsys):
        path = write_box(tmp_path, "r12.sbox", 12, 12, seed=5)
        assert main(["walsh", str(path)]) == 4
        assert "refusing" in capsys.readouterr().err

    def test_unwritable_out_exits_1_naming_it(self, tmp_path, capsys):
        path = write_box(tmp_path, "r3.sbox", 3, 3, seed=5)
        out = tmp_path / "missing" / "r3.wspec"
        assert main(["walsh", path, "--out", str(out)]) == 1
        assert str(out) in capsys.readouterr().err


class TestBench:
    def test_csv_on_stdout(self, tmp_path, capsys):
        path = write_box(tmp_path, "r5.sbox", 5, 5, seed=6)
        assert main(["bench", path, "--methods", "fused,transposed",
                     "--reps", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("method,n,m,workers")
        assert len(lines) == 3

    def test_parallel_worker_list(self, tmp_path, capsys):
        path = write_box(tmp_path, "r4.sbox", 4, 4, seed=7)
        assert main(["bench", path, "--methods", "parallel",
                     "--workers", "1,2", "--reps", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3

    def test_unknown_method_exits_1(self, tmp_path):
        path = write_box(tmp_path, "r3.sbox", 3, 3, seed=8)
        assert main(["bench", path, "--methods", "warp"]) == 1

    def test_zero_workers_exits_1(self, tmp_path, capsys):
        path = write_box(tmp_path, "r3.sbox", 3, 3, seed=8)
        assert main(["bench", path, "--methods", "parallel", "--workers", "1,0"]) == 1
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("methods", ["rowmajor", "fused,transposed"])
    def test_stream_with_retaining_method_exits_1(self, tmp_path, capsys, methods):
        path = write_box(tmp_path, "r4.sbox", 4, 4, seed=8)
        assert main(["bench", path, "--methods", methods, "--mode", "stream",
                     "--reps", "1"]) == 1
        captured = capsys.readouterr()
        assert "--mode stream" in captured.err and captured.out == ""

    def test_stream_with_streaming_methods(self, tmp_path, capsys):
        path = write_box(tmp_path, "r4.sbox", 4, 4, seed=8)
        assert main(["bench", path, "--methods", "fused,parallel", "--mode", "stream",
                     "--reps", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_csv_file_roundtrip(self, tmp_path):
        from sboxeval import read_csv

        path = write_box(tmp_path, "r4.sbox", 4, 4, seed=9)
        out = tmp_path / "report.csv"
        assert main(["bench", path, "--methods", "fused", "--reps", "2",
                     "--out", str(out)]) == 0
        rows = read_csv(out.read_text())
        assert rows[0]["method"] == "fused" and rows[0]["repetitions"] == 2

    def test_unwritable_out_exits_1_before_any_run(self, tmp_path, capsys, monkeypatch):
        from sboxeval import cli

        def no_runs(*args, **kwargs):
            raise AssertionError("benchmark ran before --out was opened")

        monkeypatch.setattr(cli.bench, "run_benchmark", no_runs)
        path = write_box(tmp_path, "r3.sbox", 3, 3, seed=9)
        out = tmp_path / "missing" / "report.csv"
        assert main(["bench", path, "--methods", "fused", "--out", str(out)]) == 1
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("methods", [",", " , "])
    def test_empty_method_list_exits_1(self, tmp_path, capsys, methods):
        path = write_box(tmp_path, "r3.sbox", 3, 3, seed=9)
        assert main(["bench", path, "--methods", methods]) == 1
        captured = capsys.readouterr()
        assert "--methods" in captured.err and captured.out == ""


class TestGen:
    def test_writes_parseable_deterministic_box(self, tmp_path, capsys):
        out = tmp_path / "g.sbox"
        assert main(["gen", "6", "4", "--seed", "11", "--out", str(out)]) == 0
        s = parse_sbox(out.read_text())
        assert s.n == 6 and s.m == 4
        assert main(["gen", "6", "4", "--seed", "11"]) == 0
        assert parse_sbox(capsys.readouterr().out) == s

    def test_bijective_flag(self, tmp_path, capsys):
        assert main(["gen", "4", "4", "--seed", "3", "--bijective"]) == 0
        s = parse_sbox(capsys.readouterr().out)
        assert sorted(s.table) == list(range(16))

    def test_bijective_needs_square_exits_1(self, capsys):
        assert main(["gen", "4", "3", "--bijective"]) == 1
        assert "n == m" in capsys.readouterr().err

    def test_negative_seed_exits_1_naming_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "4", "4", "--seed", "-1"])
        assert exc.value.code == 1
        assert "--seed" in capsys.readouterr().err

    def test_unwritable_out_exits_1_naming_it(self, tmp_path, capsys):
        out = tmp_path / "missing" / "g.sbox"
        assert main(["gen", "4", "4", "--out", str(out)]) == 1
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("n,m", [("30", "30"), ("0", "4"), ("4", "25")])
    def test_bits_out_of_range_exit_1(self, n, m):
        with pytest.raises(SystemExit) as exc:
            main(["gen", n, m])
        assert exc.value.code == 1


class TestVerify:
    def test_small_box_all_pass(self, tmp_path, capsys):
        path = write_box(tmp_path, "r4.sbox", 4, 4, seed=12, bijective=True)
        assert main(["verify", path, "--max-workers", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out
        for name in ("direct-oracle equivalence", "parseval",
                     "triple nonlinearity agreement", "thread determinism"):
            assert name in out

    def test_identity_passes_with_zero_nl(self, tmp_path, capsys):
        path = tmp_path / "id3.sbox"
        path.write_text("3 3\n0 1 2 3 4 5 6 7")
        assert main(["verify", str(path), "--max-workers", "2"]) == 0
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out
        assert "nl = 0" in captured.err

    def test_injected_corruption_fails_named_invariants(self, tmp_path, capsys):
        path = write_box(tmp_path, "r4.sbox", 4, 4, seed=12)
        assert main(["verify", path, "--max-workers", "2",
                     "--inject-corruption"]) == 5
        out = capsys.readouterr().out
        assert "FAIL direct-oracle equivalence" in out
        assert "FAIL parseval" in out

    def test_thread_determinism_catches_a_diverging_thread(self, tmp_path, capsys,
                                                           monkeypatch):
        # Negative control: every pool thread but the first corrupts its maxima.
        real = sboxeval.parallel.column_nonlinearity

        def corrupt_off_first_thread(pw, max_abs):
            values = real(pw, max_abs)
            return values if threading.current_thread().name.endswith("_0") else values + 1

        monkeypatch.setattr(sboxeval.parallel, "column_nonlinearity", corrupt_off_first_thread)
        path = write_box(tmp_path, "box8.sbox", 8, 8, seed=14)
        assert main(["verify", path, "--max-workers", "2"]) == 5
        assert "FAIL thread determinism" in capsys.readouterr().out

    def test_oversized_box_exits_4(self, tmp_path):
        path = write_box(tmp_path, "r9.sbox", 9, 9, seed=13)
        assert main(["verify", path]) == 4


class TestUsage:
    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["warp"])
        assert exc.value.code == 1

    def test_missing_argument_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "4"])
        assert exc.value.code == 1
