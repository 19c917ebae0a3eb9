"""Command-line behavior: flags, config precedence, exit codes, outputs."""

import numpy as np
import pytest

from dgalab import attention
from dgalab.cli import _COMMANDS, build_parser, load_config, main
from dgalab.matrixio import write_csv


def run(argv):
    return main(argv)


class TestParser:
    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name in ("sparsity", "coding", "noise", "dga-check", "decode-bench"):
            assert name in text

    def test_subcommand_help_lists_flags(self, capsys):
        for cmd, flags in [
            ("sparsity", ["--seed", "--out", "--config", "--L", "--rho", "--trials", "--sampler"]),
            ("coding", ["--L", "--d", "--m", "--instances"]),
            ("noise", ["--sigma", "--trials", "--m"]),
            ("dga-check", ["--gamma", "--cases"]),
            ("decode-bench", ["--steps", "--gamma"]),
        ]:
            with pytest.raises(SystemExit):
                build_parser().parse_args([cmd, "--help"])
            text = capsys.readouterr().out
            for flag in flags:
                assert flag in text

    def test_help_prints_each_minimum(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["noise", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "logit vector length (at least 2)" in text
        assert "noise levels, comma-separated (at least" not in text

    def test_unknown_flag_rejected_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sparsity", "--bogus", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2


class TestConfigFile:
    def test_key_value_parsing_with_comments(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seed=5\n# comment line\nL=8,16  # inline\n\ntrials=12000\n")
        parsed = load_config(str(cfg))
        assert parsed == {"seed": "5", "L": "8,16", "trials": "12000"}

    def test_malformed_line_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed 5\n")
        code = run(["dga-check", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        """A misspelt key is named and rejected, not silently dropped."""
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("L=16\nrho=0.5\ntrails=5\n")
        out = tmp_path / "out"
        assert run(["sparsity", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "trails" in capsys.readouterr().err

    def test_empty_list_key_is_usage_error(self, tmp_path, capsys):
        """`m=` used to write two CSVs, then fail with an IndexError."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("m=\n")
        out = tmp_path / "out"
        assert run(["noise", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "--m needs at least one value" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("seed=1\nL=16\nrho=0.5\ntrials=10000\n")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        assert run(["sparsity", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert run(["sparsity", "--config", str(cfg), "--seed", "2", "--out", str(out_b)]) == 0
        assert run(["sparsity", "--seed", "1", "--L", "16", "--rho", "0.5",
                    "--trials", "10000", "--out", str(out_c)]) == 0
        text_a = (out_a / "sparsity.csv").read_text()
        assert text_a != (out_b / "sparsity.csv").read_text()
        assert text_a == (out_c / "sparsity.csv").read_text()


class TestSubcommands:
    def test_sparsity_writes_parseable_report(self, tmp_path):
        assert run(["sparsity", "--seed", "3", "--L", "32,64", "--rho", "0.1,0.5",
                    "--trials", "10000", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "sparsity.csv").read_text().splitlines()
        assert lines[0] == "L,rho,empirical_p,bound_p,samples"
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            L, rho, empirical_p, bound_p, samples = line.split(",")
            assert int(samples) == 10000
            assert 0.0 <= float(empirical_p) <= 1.0
            assert 0.0 <= float(bound_p) <= 1.0

    def test_coding_outputs_hold_everywhere(self, tmp_path):
        assert run(["coding", "--L", "8", "--d", "16", "--m", "2,4", "--instances", "20",
                    "--iters", "50", "--seed", "1", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "condnum.csv").read_text().splitlines()
        assert lines[0] == "L,d,m,kappa_H,kappa_Hbar,holds"
        assert len(lines) == 1 + 20 * 2
        assert all(ln.endswith("true") for ln in lines[1:])
        trace_lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace_lines[0] == "variant,m,iteration,objective"
        assert any(ln.startswith("ungrouped,0,") for ln in trace_lines[1:])
        assert any(ln.startswith("grouped,4,") for ln in trace_lines[1:])

    def test_coding_rejects_indivisible_group(self, tmp_path):
        assert run(["coding", "--L", "10", "--m", "3", "--instances", "1",
                    "--out", str(tmp_path)]) == 2

    def test_noise_rejects_indivisible_group(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["noise", "--L", "10", "--m", "3", "--trials", "100",
                    "--out", str(out)]) == 2
        assert not out.exists()
        assert "group size 3 does not divide L=10" in capsys.readouterr().err

    def test_unknown_sampler_is_usage_error(self, tmp_path, capsys):
        """Flag and config values both reach the one name check, and a
        rejected run leaves no output directory behind."""
        out = tmp_path / "out"
        assert run(["sparsity", "--sampler", "nope", "--out", str(out)]) == 2
        assert not out.exists()
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("sampler=nope\n")
        assert run(["sparsity", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert not list(tmp_path.glob("*.csv"))
        assert capsys.readouterr().err.count("unknown logit source 'nope'") == 2

    def test_noise_outputs(self, tmp_path):
        assert run(["noise", "--L", "8", "--m", "1,2", "--sigma", "0.001",
                    "--trials", "4000", "--seed", "2", "--out", str(tmp_path)]) == 0
        noise_lines = (tmp_path / "noise.csv").read_text().splitlines()
        assert noise_lines[0] == "L,m,sigma,emp_var,pred_var,ratio"
        assert len(noise_lines) == 3
        kl_lines = (tmp_path / "klnoise.csv").read_text().splitlines()
        assert kl_lines[0] == "sigma,kl_ungrouped,kl_grouped"
        alt_lines = (tmp_path / "noise_alt.csv").read_text().splitlines()
        assert alt_lines[0] == "L,m,sigma,ratio_ambient"

    def test_dga_check_passes_on_seeded_cases(self, tmp_path):
        assert run(["dga-check", "--seed", "7", "--L", "24", "--d", "8", "--m", "4",
                    "--gamma", "0.25", "--cases", "10", "--out", str(tmp_path)]) == 0

    def test_dga_check_rejects_fewer_than_one_case(self, tmp_path, capsys):
        out = tmp_path / "out"
        for cases in ("-3", "0"):
            assert run(["dga-check", "--cases", cases, "--out", str(out)]) == 2
        assert not out.exists()
        assert "passed" not in capsys.readouterr().out

    def test_dga_check_failure_dumps_matrices(self, tmp_path, monkeypatch, capsys):
        """A disagreeing oracle makes the battery exit 1 and dump the case."""
        import dgalab.cli as cli_mod

        def broken_oracle(batch, partition):
            from dgalab.oracles import naive_dga_attention as real

            return real(batch, partition) + 1.0

        monkeypatch.setattr(cli_mod, "naive_dga_attention", broken_oracle)
        code = run(["dga-check", "--seed", "7", "--cases", "1", "--out", str(tmp_path)])
        assert code == 1
        for name in ("Q", "K", "V", "got", "want"):
            assert (tmp_path / f"{name}.mat").exists()
        assert "FAIL" in capsys.readouterr().err

    def test_dga_check_catches_a_wrong_exact_attention(self, tmp_path, monkeypatch, capsys):
        """A causal_attention whose weights leak past the diagonal fails as `causal`."""
        import dgalab.cli as cli_mod
        from dgalab.attention import causal_attention

        def leaky(batch):
            out, weights = causal_attention(batch)
            return out, weights + 1e-9

        monkeypatch.setattr(cli_mod, "causal_attention", leaky)
        code = run(["dga-check", "--seed", "7", "--cases", "1", "--out", str(tmp_path)])
        assert code == 1
        for name in ("Q", "K", "V", "got", "want"):
            assert (tmp_path / f"{name}.mat").exists()
        assert "FAIL case 0 (causal," in capsys.readouterr().err

    def test_dga_check_fails_on_a_nan_output(self, tmp_path, monkeypatch, capsys):
        """NaN compares False against the tolerance; it must still fail, and the
        dump writes all five matrices, the NaN output included."""
        import dgalab.cli as cli_mod
        from dgalab.dga import dga_attention_with_partition as real

        def nan_last_row(batch, partition):
            out = real(batch, partition)
            out[-1] = np.nan
            return out

        monkeypatch.setattr(cli_mod, "dga_attention_with_partition", nan_last_row)
        code = run(["dga-check", "--seed", "7", "--cases", "3", "--out", str(tmp_path)])
        assert code == cli_mod.CHECK_FAILED == 1
        err = capsys.readouterr().err
        assert err.startswith("FAIL case 0 (attention,")
        assert err.rstrip().endswith(f"dumped 5 matrices to {tmp_path}")
        for name in ("Q", "K", "V", "want"):
            assert (tmp_path / f"{name}.mat").exists()
        got = np.loadtxt(tmp_path / "got.mat", skiprows=2, ndmin=2)
        assert np.isnan(got[-1]).all() and np.isfinite(got[:-1]).all()
        assert set((tmp_path / "got.mat").read_text().splitlines()[-1].split()) == {"nan"}

    def test_decode_bench_trace_schema(self, tmp_path):
        assert run(["decode-bench", "--seed", "4", "--L", "32", "--d", "4", "--m", "4",
                    "--gamma", "0.1", "--steps", "12", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "decode_trace.csv").read_text().splitlines()
        assert lines[0] == "step,focal_rows,group_rows,tail_rows,columns_touched,cache_entries"
        assert len(lines) == 13
        rows = [[int(tok) for tok in line.split(",")] for line in lines[1:]]
        assert [row[0] for row in rows] == list(range(1, 13))
        for row in rows:
            assert row[1] + row[2] + row[3] == row[5]
        first = rows[0]
        assert first[4] == first[1] + first[2] + first[3]  # tail includes the new token
        for prev, row in zip(rows, rows[1:]):
            assert row[4] == prev[5] + 1
        assert any(row[2] > prev[2] for prev, row in zip(rows, rows[1:]))  # a regroup
        summary = (tmp_path / "ledger_summary.csv").read_text().splitlines()
        assert summary[0] == ("tokens,dga_columns,vanilla_columns,dga_cache,vanilla_cache,"
                              "dga_dots,vanilla_dots")
        tokens, _, columns, _, cache, _, dots = (int(tok) for tok in summary[1].split(","))
        assert tokens == 32 + 12
        assert (columns, cache, dots) == (tokens, tokens, tokens * tokens)

    def test_decode_bench_rejects_negative_steps(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["decode-bench", "--L", "16", "--d", "4", "--m", "2", "--steps", "-4",
                    "--out", str(out)]) == 2
        assert not out.exists()
        assert "steps" in capsys.readouterr().err

    def test_coding_rejects_fewer_than_one_instance(self, tmp_path, capsys):
        out = tmp_path / "out"
        for instances in ("-3", "0"):
            assert run(["coding", "--L", "8", "--d", "4", "--m", "2", "--instances", instances,
                        "--iters", "5", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.count("--instances") == 2

    def test_coding_rejects_fewer_than_one_iteration(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["coding", "--L", "8", "--d", "4", "--m", "2", "--instances", "2",
                    "--iters", "0", "--out", str(out)]) == 2
        assert not out.exists()
        assert "--iters" in capsys.readouterr().err

    def test_noise_rejects_fewer_than_two_trials(self, tmp_path, capsys):
        """One trial has no sample variance: it would write nan."""
        out = tmp_path / "out"
        for trials in ("1", "0"):
            assert run(["noise", "--L", "8", "--m", "2", "--sigma", "0.01", "--trials", trials,
                        "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.count("--trials") == 2

    def test_sparsity_rejects_fewer_than_one_trial(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["sparsity", "--L", "32", "--rho", "0.1", "--trials", "0",
                    "--out", str(out)]) == 2
        assert not out.exists()
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize("lengths", ["0,32", "-4,32"])
    def test_sparsity_rejects_a_length_below_one(self, tmp_path, capsys, lengths):
        """L = 0 and L = -4 used to fail inside numpy, not naming --L."""
        out = tmp_path / "out"
        assert run(["sparsity", f"--L={lengths}", "--rho", "0.1", "--trials", "10",
                    "--out", str(out)]) == 2
        assert not (out / "sparsity.csv").exists()
        assert "--L" in capsys.readouterr().err

    @pytest.mark.parametrize("rho", ["0", "1.5", "-0.1"])
    def test_sparsity_rejects_a_grid_with_no_cell(self, tmp_path, capsys, rho):
        """No rho in (1/L, 1] for any L left only a header to write."""
        out = tmp_path / "out"
        assert run(["sparsity", "--L", "32,64", "--rho", rho, "--trials", "10",
                    "--out", str(out)]) == 2
        assert not out.exists()
        assert "no --rho value" in capsys.readouterr().err

    def test_zero_width_is_rejected(self, tmp_path, capsys):
        """A width of 0 crashed the attention sampler, made decode-bench
        divide by sqrt(0) yet exit 0, and let noise write two CSVs before
        failing on an empty instance."""
        out = tmp_path / "out"
        assert run(["sparsity", "--sampler", "attention", "--d", "0", "--trials", "10",
                    "--out", str(out)]) == 2
        assert run(["decode-bench", "--L", "16", "--d", "0", "--steps", "4",
                    "--out", str(out)]) == 2
        assert run(["noise", "--L", "8", "--m", "2", "--d", "0", "--trials", "10",
                    "--out", str(out)]) == 2
        assert run(["coding", "--L", "8", "--m", "2", "--d", "0", "--instances", "2",
                    "--iters", "5", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.count("--d must be at least 1") == 4

    @pytest.mark.parametrize("argv,low", [
        (["coding", "--m", "1", "--d", "4", "--instances", "2", "--iters", "5"], 1),
        (["noise", "--m", "1", "--trials", "10"], 2),
        (["decode-bench", "--d", "4", "--steps", "4"], 1),
    ], ids=["coding", "noise", "decode-bench"])
    def test_zero_length_is_rejected(self, tmp_path, capsys, argv, low):
        """L = 0 failed inside the group check or the attention batch,
        not naming --L."""
        out = tmp_path / "out"
        assert run(argv + ["--L", "0", "--out", str(out)]) == 2
        assert not out.exists()
        assert f"--L must be at least {low}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["coding", "--L", "8", "--d", "4", "--m", "2,0", "--instances", "2", "--iters", "5"],
        ["noise", "--L", "8", "--m", "2,0", "--trials", "10"],
        ["dga-check", "--m", "0", "--cases", "2"],
        ["decode-bench", "--L", "16", "--d", "4", "--m", "0", "--steps", "4"],
    ], ids=["coding", "noise", "dga-check", "decode-bench"])
    def test_zero_block_is_rejected(self, tmp_path, capsys, argv):
        """m = 0 failed inside the group or partition check, not naming --m;
        every value of a list flag is checked."""
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert "--m must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["nan", "inf", "0.1,inf"])
    def test_noise_rejects_a_non_finite_sigma(self, tmp_path, capsys, sigma):
        """A NaN sigma used to write rows of nan and exit 0."""
        out = tmp_path / "out"
        assert run(["noise", "--L", "8", "--m", "2", f"--sigma={sigma}", "--trials", "10",
                    "--out", str(out)]) == 2
        assert not out.exists()
        assert "sigma must be finite" in capsys.readouterr().err

    def test_sparsity_rejects_a_non_finite_rho(self, tmp_path, capsys):
        """A NaN rho used to be skipped like an out-of-domain one: exit 0, one cell."""
        out = tmp_path / "out"
        assert run(["sparsity", "--L", "16", "--rho", "nan,0.5", "--trials", "10",
                    "--out", str(out)]) == 2
        assert not out.exists()
        assert "rho must be finite" in capsys.readouterr().err

    def test_sparsity_names_finiteness_for_a_rho_of_only_nan(self, tmp_path, capsys):
        """A lone NaN rho used to be reported as out of the (1/L, 1] domain."""
        out = tmp_path / "out"
        assert run(["sparsity", "--L", "16", "--rho", "nan", "--trials", "10",
                    "--out", str(out)]) == 2
        assert not out.exists()
        assert "rho must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["coding", "--m", "0", "--instances", "0"], "--m"),
        (["noise", "--d", "0", "--m", "0"], "--m"),
        (["decode-bench", "--steps", "-1", "--L", "0"], "--L"),
    ], ids=["coding", "noise", "decode-bench"])
    def test_first_bad_flag_in_table_order_is_named(self, tmp_path, capsys, argv, flag):
        assert run(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} must be at least")

    def test_byte_identical_reruns(self, tmp_path):
        """Same seed and flags give identical file bytes for every command."""
        jobs = [
            (["sparsity", "--L", "32", "--rho", "0.1", "--trials", "10000"], ["sparsity.csv"]),
            (["coding", "--L", "8", "--d", "8", "--m", "2", "--instances", "5",
              "--iters", "20"], ["condnum.csv", "trace.csv"]),
            (["noise", "--L", "8", "--m", "2", "--sigma", "0.001", "--trials", "2000"],
             ["noise.csv", "noise_alt.csv", "klnoise.csv"]),
            (["decode-bench", "--L", "16", "--d", "4", "--m", "2", "--steps", "8"],
             ["decode_trace.csv", "ledger_summary.csv"]),
        ]
        for argv, files in jobs:
            d1 = tmp_path / (argv[0] + "_1")
            d2 = tmp_path / (argv[0] + "_2")
            assert run(argv + ["--seed", "11", "--out", str(d1)]) == 0
            assert run(argv + ["--seed", "11", "--out", str(d2)]) == 0
            for name in files:
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def _bad_flag_values():
    """Each flag minimum in the table, given minimum - 1 (after a valid
    value for a list flag), and each list flag given no value."""
    for command, (_, _, flags) in _COMMANDS.items():
        for flag, (_, default, low, _) in flags.items():
            listed = isinstance(default, list)
            if low is not None:
                value = f"{low},{low - 1}" if listed else str(low - 1)
                yield pytest.param(command, flag, value, f"--{flag} must be at least {low}, got",
                                   id=f"{command}-{flag}={value}")
            if listed:
                yield pytest.param(command, flag, ",", f"--{flag} needs at least one value",
                                   id=f"{command}-{flag}=,")


@pytest.mark.parametrize("command,flag,value,message", _bad_flag_values())
def test_every_bad_flag_value_is_rejected_before_any_output(
        tmp_path, capsys, command, flag, value, message):
    out = tmp_path / "out"
    assert run([command, f"--{flag}={value}", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_write_csv_accepts_a_bare_filename(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_csv("bare.csv", ["a", "b"], [[1, 0.5]])
    assert (tmp_path / "bare.csv").read_text() == "a,b\n1,0.5\n"


@pytest.mark.parametrize("command", ["dga-check", "decode-bench"])
def test_defaults_start_no_thread_on_many_cpus(tmp_path, monkeypatch, command):
    """The defaults' tile loops stay below two shares of _SHARE_LOGITS."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a tile loop made a thread pool")

    monkeypatch.setattr(attention.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    monkeypatch.setattr(attention, "ThreadPoolExecutor", no_pool)
    assert run([command, "--out", str(tmp_path)]) == 0
