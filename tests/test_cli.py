import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import imputebench
from imputebench.cli import parse_and_dispatch
from imputebench.harness import ExperimentConfig, export_figure_data, format_table, run_table1

FAST = ["--reps", "5", "--pop-size", "100000", "--seed", "123"]


def _run(capsys, argv):
    rc = parse_and_dispatch(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestTable1Command:
    def test_csv_output(self, capsys):
        rc, out, err = _run(capsys, ["table1", *FAST, "--format", "csv"])
        assert rc == 0
        assert err == ""
        lines = out.strip().split("\n")
        assert lines[0].startswith("signal,method,mechanism,mu,")
        assert len(lines) == 11

    def test_reruns_byte_identical(self, capsys):
        rc_a, out_a, _ = _run(capsys, ["table1", *FAST])
        rc_b, out_b, _ = _run(capsys, ["table1", *FAST])
        assert rc_a == rc_b == 0
        assert out_a == out_b

    def test_markdown_format(self, capsys):
        rc, out, _ = _run(capsys, ["table1", *FAST, "--format", "markdown"])
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("| signal | method | mechanism | mu |")
        assert set(lines[1].strip("|").split("|")) == {" --- "}
        assert len(lines) == 12

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table1.csv"
        rc, out, _ = _run(capsys, ["table1", *FAST, "--out", str(target)])
        assert rc == 0
        assert out == ""
        assert len(target.read_text().strip().split("\n")) == 11

    def test_matches_library_call(self, capsys):
        rc, out, _ = _run(capsys, ["table1", *FAST, "--samples", "500"])
        assert rc == 0
        cfg = ExperimentConfig(t_rep=5, pop_size=100_000, base_seed=123, n_sample=500)
        assert out == format_table(run_table1(cfg), "csv")


class TestConfigFile:
    def test_flags_override_file(self, capsys, tmp_path):
        cfg_file = tmp_path / "bench.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "t_rep = 3\n"
            "base_seed = 7\n"
            "\n"
            "pop_size = 30000  # trailing comment\n"
        )
        rc, out, _ = _run(
            capsys, ["table1", "--config", str(cfg_file), "--reps", "5"]
        )
        assert rc == 0
        expected = ExperimentConfig(t_rep=5, base_seed=7, pop_size=30_000)
        assert out == format_table(run_table1(expected), "csv")

    def test_missing_file(self, capsys, tmp_path):
        path = tmp_path / "missing.cfg"
        rc, out, err = _run(capsys, ["run", "--config", str(path)])
        assert rc == 1
        assert out == ""
        assert str(path) in err

    def test_undecodable_file(self, capsys, tmp_path):
        cfg_file = tmp_path / "latin1.cfg"
        cfg_file.write_bytes(b"\xfft_rep = 3\n")
        rc, out, err = _run(capsys, ["table1", "--config", str(cfg_file)])
        assert rc == 1
        assert out == ""
        assert err.startswith(f"imputebench: cannot read config file {cfg_file}: 'utf-8' codec ")
        assert err.count("\n") == 1

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        # editors on some systems save UTF-8 with a leading BOM
        cfg_file = tmp_path / "bom.cfg"
        cfg_file.write_bytes(b"\xef\xbb\xbfpop_size = 30000\nn_sample = 200\n")
        rc, out, err = _run(capsys, ["figure", "--config", str(cfg_file)])
        assert (rc, err) == (0, "")
        assert out == export_figure_data(ExperimentConfig(pop_size=30_000, n_sample=200))

    def test_key_set_twice(self, capsys, tmp_path):
        cfg_file = tmp_path / "twice.cfg"
        cfg_file.write_text("pop_size = 2000\n# later\npop_size = 3000\n")
        rc, out, err = _run(capsys, ["figure", "--config", str(cfg_file)])
        assert rc == 1
        assert out == ""
        assert err == f"imputebench: {cfg_file}:3: key 'pop_size' already set on line 1\n"

    @pytest.mark.parametrize("command", ["figure", "decompose"])
    def test_keys_only_where_read(self, capsys, tmp_path, command):
        # neither the figure nor the decomposition reads t_rep, so its file may not set it
        cfg_file = tmp_path / "bench.cfg"
        cfg_file.write_text("t_rep = 50\npop_size = 30000\n")
        rc, out, err = _run(capsys, [command, "--config", str(cfg_file)])
        assert rc == 1
        assert out == ""
        assert err == (
            f"imputebench: {cfg_file}:1: unknown key 't_rep'; "
            "expected one of ['base_seed', 'n_sample', 'pop_size']\n"
        )

    def test_unknown_key(self, capsys, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("t_rep = 3\nworkers = 4\n")
        rc, _, err = _run(capsys, ["table1", "--config", str(cfg_file)])
        assert rc == 1
        assert f"{cfg_file}:2" in err
        assert "workers" in err

    def test_non_integer_value(self, capsys, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("t_rep = soon\n")
        rc, _, err = _run(capsys, ["table1", "--config", str(cfg_file)])
        assert rc == 1
        assert f"{cfg_file}:1" in err

    def test_not_an_assignment(self, capsys, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("just some words\n")
        rc, _, err = _run(capsys, ["table1", "--config", str(cfg_file)])
        assert rc == 1
        assert f"{cfg_file}:1" in err


class TestArgumentErrors:
    def test_invalid_reps_value(self, capsys):
        rc, _, err = _run(capsys, ["table1", "--reps", "0"])
        assert rc == 1
        assert "t_rep" in err

    def test_sample_larger_than_population(self, capsys):
        rc, _, err = _run(capsys, ["table1", "--pop-size", "500", "--samples", "1000"])
        assert rc == 1
        assert "exceeds" in err

    @pytest.mark.parametrize("pop_size,samples", [("1", "1"), ("3", "2")])
    def test_truth_row_failure_named(self, capsys, pop_size, samples):
        rc, out, err = _run(capsys, [
            "table1", "--pop-size", pop_size, "--samples", samples, "--reps", "2",
        ])
        assert rc == 1
        assert out == ""
        assert err == (
            f"imputebench: truth row (signal=high) failed: "
            f"need more than 3 rows, got {pop_size}\n"
        )

    def test_reps_past_the_stream_layout(self, capsys):
        rc, out, err = _run(capsys, ["table1", "--reps", "1000000000000"])
        assert rc == 1
        assert out == ""
        assert err == (
            "imputebench: t_rep=1000000000000 is more replications than a stream id can address\n"
        )

    def test_seed_past_64_bits(self, capsys):
        rc, out, err = _run(capsys, ["table1", "--seed", str(2**64)])
        assert rc == 1
        assert out == ""
        assert err == f"imputebench: base_seed must be a non-negative 64-bit integer, got {2**64}\n"

    def test_population_too_large_for_memory(self, capsys):
        # 3 x 10^15 floats are 24 PB, past any address space: numpy's
        # allocation fails at once, and the error is one line naming the level
        rc, out, err = _run(capsys, ["table1", "--pop-size", str(10**15), "--reps", "1"])
        assert rc == 1
        assert out == ""
        assert err.startswith("imputebench: population (signal=high) failed: Unable to allocate ")
        assert err.count("\n") == 1

    def test_population_too_large_for_memory_pooled(self, capsys):
        argv = ["table1", "--pop-size", str(10**15), "--reps", "1", "--threads", "2"]
        rc, out, err = _run(capsys, argv)
        assert rc == 1
        assert out == ""
        assert err.startswith("imputebench: population (signal=high) failed: Unable to allocate ")
        assert err.count("\n") == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            parse_and_dispatch(["table9"])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_and_dispatch(["table1", "--turbo"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: imputebench table1 [-h] ")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            parse_and_dispatch(["table1", "--threads", threads])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: imputebench table1 [-h] ")
        assert "--threads" in err

    def test_repeats_below_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_and_dispatch(["decompose", "--repeats", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: imputebench decompose [-h] ")
        assert "--repeats" in err

    @pytest.mark.parametrize("flag", ["--threads", "--reps"])
    @pytest.mark.parametrize("command", ["figure", "decompose"])
    def test_threads_only_where_read(self, capsys, command, flag):
        # neither the figure nor the decomposition reads t_rep or a worker count
        with pytest.raises(SystemExit) as exc:
            parse_and_dispatch([command, flag, "2"])
        assert exc.value.code == 2
        # the usage shown is the subcommand's, which lists the flags it does take
        err = capsys.readouterr().err
        assert err.startswith(f"usage: imputebench {command} [-h] ")
        assert f"imputebench {command}: error: unrecognized arguments: {flag}" in err

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_and_dispatch(["table1", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for token in ("1000000", "1000", "200", "123"):
            assert token in out


class TestFigureCommand:
    def test_stdout_shape(self, capsys):
        rc, out, _ = _run(capsys, ["figure", "--pop-size", "30000"])
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x1,y,status,method"
        assert len(lines) == 2001

    def test_error_names_sample(self, capsys):
        rc, out, err = _run(capsys, ["figure", "--pop-size", "1000", "--samples", "3"])
        assert rc == 1
        assert out == ""
        assert "figure (signal=low, mechanism=MAR) failed at replication 1: " in err


class TestDecomposeCommand:
    def test_default_method_smoke(self, capsys):
        rc, out, _ = _run(
            capsys, ["decompose", "--pop-size", "30000", "--repeats", "10"]
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "signal,mechanism,bias_sq,variance,noise,total"
        assert len(lines) == 5
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 6
            for value in parts[2:]:
                assert float(value) >= 0.0

    def test_error_names_cell(self, capsys):
        rc, out, err = _run(capsys, [
            "decompose", "--pop-size", "1000", "--samples", "4", "--repeats", "2",
        ])
        assert rc == 1
        assert out == ""
        assert "cell (signal=high, method=draw, mechanism=MCAR) failed at replication 1: " in err


class TestRunCommand:
    def test_writes_all_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "results"
        rc, out, err = _run(capsys, [
            "run", "--out", str(out_dir),
            "--reps", "2", "--pop-size", "20000", "--samples", "300",
        ])
        assert rc == 0, err
        table1 = (out_dir / "table1.csv").read_text()
        table2 = (out_dir / "table2.csv").read_text()
        figure = (out_dir / "figure.csv").read_text()
        assert len(table1.strip().split("\n")) == 11
        assert len(table2.strip().split("\n")) == 15
        assert len(figure.strip().split("\n")) == 601


class TestModuleEntry:
    def test_python_dash_m_runs_the_command(self, capsys):
        argv = ["table1", "--reps", "2", "--pop-size", "20000", "--samples", "200"]
        env = dict(os.environ, PYTHONPATH=str(Path(imputebench.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "imputebench.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        rc, out, _ = _run(capsys, argv)
        assert rc == 0
        assert done.stdout == out != ""

    def test_python_dash_m_exit_status(self):
        env = dict(os.environ, PYTHONPATH=str(Path(imputebench.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "imputebench.cli", "table1", "--reps", "0"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("imputebench: t_rep must be at least 1")


class TestImportFootprint:
    def test_cli_import_loads_neither_scipy_nor_the_pool(self):
        probe = "import imputebench.cli, json, sys; print(json.dumps(sorted(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=str(Path(imputebench.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        loaded = json.loads(done.stdout)
        assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
        assert "concurrent.futures.process" not in loaded

    def test_tables_skip_numpy_ma(self):
        # np.unique and np.quantile import numpy.ma on first use
        probe = (
            "import contextlib, io, json, sys\n"
            "from imputebench.cli import parse_and_dispatch\n"
            "for table in ('table1', 'table2'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert parse_and_dispatch(\n"
            "            [table, '--reps', '2', '--pop-size', '2000', '--samples', '200']\n"
            "        ) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(imputebench.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        loaded = json.loads(done.stdout)
        assert [m for m in loaded if m == "numpy.ma" or m.startswith("numpy.ma.")] == []
