import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spincompile import __version__, cli, evolution, instructions, optimizer
from spincompile.cli import main, parse_angle, parse_config, parse_target
from spincompile.errors import ConfigError
from spincompile.schedule import (PulseSchedule, random_init,
                                  write_pulse_table, zeros)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_config("a = 1\n# comment\nb.c = hello  # trailing\n\n")
        assert cfg == {"a": "1", "b.c": "hello"}

    def test_error_carries_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("a = 1\nnonsense\n")

    def test_records_each_keys_line(self):
        cfg = parse_config("# header\na = 1\n\nb = x\n")
        assert cfg.lines == {"a": 2, "b": 4}

    def test_empty_key_names_its_line(self):
        with pytest.raises(ConfigError, match="^line 2: empty key$"):
            parse_config("a = 1\n = 2\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ConfigError, match="line 3: a repeats line 1"):
            parse_config("a = 1\nb = 2\na = 3\n")

    def test_cast_error_names_the_line(self):
        cfg = parse_config("a = 1\nb = two\n")
        assert cfg.get("a", 0, int) == 1 and cfg.get("c", 5, int) == 5
        with pytest.raises(ConfigError, match="line 2: b = two: "):
            cfg.get("b", 0, int)

    def test_check_rejects_the_first_unread_key(self):
        cfg = parse_config("a = 1\nb = 2\nc = 3\n")
        cfg.get("a")
        with pytest.raises(ConfigError, match="line 2: b = 2: unknown key"):
            cfg.check()
        cfg.get("b"), cfg.get("c")
        cfg.check()

    def test_angles(self):
        assert parse_angle("pi/2") == pytest.approx(np.pi / 2)
        assert parse_angle("0.5*pi") == pytest.approx(np.pi / 2)
        assert parse_angle("-pi/8") == pytest.approx(-np.pi / 8)
        assert parse_angle("1.25") == 1.25
        with pytest.raises(ConfigError):
            parse_angle("two*pi")
        # a factor on both sides of pi is not one of the accepted forms
        with pytest.raises(ConfigError, match="cannot parse angle '2\\*pi/3'"):
            parse_angle("2*pi/3")
        with pytest.raises(ConfigError, match="cannot parse angle 'pi/0'"):
            parse_angle("pi/0")
        with pytest.raises(ConfigError, match="cannot parse angle 'pi/0'"):
            parse_target("rz:pi/0")

    def test_targets(self):
        m, n = parse_target("cphase:pi/2")
        assert n == 2 and m[3, 3] == pytest.approx(1j)
        m, n = parse_target("qft:3")
        assert n == 3 and m.shape == (8, 8)
        m, n = parse_target("quvis:4")
        assert n == 3 and np.array_equal(m, instructions.quvis_gate(4).matrix)
        with pytest.raises(ConfigError):
            parse_target("frobnicate:2")

    @pytest.mark.parametrize("spec", ["hadamard:3", "cnot:junk", "swap:",
                                      "x:1.5"])
    def test_fixed_target_kinds_take_no_argument(self, spec):
        kind = spec.partition(":")[0]
        with pytest.raises(ConfigError, match=f"^bad target spec '{spec}': "
                                              f"{kind} takes no argument$"):
            parse_target(spec)
        assert parse_target(kind)[1] == (1 if kind in ("hadamard", "x")
                                         else 2)

    @pytest.mark.parametrize("spec", ["identity:-1", "identity:0", "identity:10",
                                      "qft:12", "swap_to_end:10"])
    def test_target_width_checked_before_building(self, spec, monkeypatch):
        def no_matrix(*args):
            raise AssertionError("a target matrix was built")

        for kind in ("identity", "qft", "swap_to_end"):
            monkeypatch.setitem(cli._SIZED_TARGETS, kind, no_matrix)
        with pytest.raises(ConfigError, match=r"outside 1\.\.9"):
            parse_target(spec)


class TestVerifyGolden:
    def test_loose_threshold_passes(self, tmp_path, capsys):
        rc = main(["verify-golden", "--out", str(tmp_path), "--threshold", "0.1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 9
        data = json.loads((tmp_path / "verify_golden.json").read_text())
        assert data["all_pass"] is True
        assert (tmp_path / "verify_golden.csv").exists()

    def test_default_threshold_flags_known_outliers(self, tmp_path, capsys):
        # every bundled table meets the default 5e-2 bound
        rc = main(["verify-golden", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        data = json.loads((tmp_path / "verify_golden.json").read_text())
        assert data["threshold"] == 0.05
        assert rc == 0
        assert out.count("PASS") == 9 and "FAIL" not in out
        # a threshold just below the worst error fails exactly the gates above it
        threshold = data["worst_error"] * (1 - 1e-6)
        above = {r["gate"] for r in data["rows"] if r["error"] > threshold}
        rc = main(["verify-golden", "--out", str(tmp_path),
                   "--threshold", repr(threshold)])
        out = capsys.readouterr().out
        assert rc == 1
        failed = {line.split(":")[0] for line in out.splitlines()
                  if "FAIL" in line}
        assert failed == above and len(above) >= 1


    @pytest.mark.parametrize("threshold", ["nan", "-1", "inf"])
    def test_bad_threshold_exits_2_before_any_table(self, tmp_path, capsys,
                                                    evolved_tables, threshold):
        rc = main(["verify-golden", "--out", str(tmp_path),
                   "--threshold", threshold])
        captured = capsys.readouterr()
        record = json.loads(captured.err.strip())
        assert rc == 2 and record["error"] == "OutOfRange"
        assert "threshold" in record["message"] and captured.out == ""
        assert not list(tmp_path.iterdir())
        assert evolved_tables == []

    def test_evolves_each_table_it_reads_once(self, tmp_path, capsys,
                                              evolved_tables):
        assert main(["verify-golden", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert sorted(map(write_pulse_table, evolved_tables)) == sorted(
            write_pulse_table(instructions.load_bundled_schedule(f"u{m}"))
            for m in range(9))

    def test_duration_mismatch_fails_that_gate(self, tmp_path, capsys,
                                               monkeypatch):
        # a gate whose cost disagrees with its table's own duration fails,
        # and the table's duration is what gets reported. The sets are
        # built once per process, so the cache is cleared before the cost
        # is patched and after it is restored.
        instructions.instruction_set.cache_clear()
        monkeypatch.setitem(instructions.QUVIS3_TIME, "u4", 2.5)
        try:
            rc = main(["verify-golden", "--out", str(tmp_path)])
        finally:
            monkeypatch.undo()
            instructions.instruction_set.cache_clear()
        out = capsys.readouterr().out
        assert rc == 1
        failed = [line for line in out.splitlines() if "FAIL" in line]
        assert len(failed) == 1 and failed[0].startswith("u4: T=2.4 ")
        data = json.loads((tmp_path / "verify_golden.json").read_text())
        rows = {r["gate"]: r for r in data["rows"]}
        assert rows["u4"]["time"] == 2.4 and not rows["u4"]["pass"]
        assert "2.5" in rows["u4"]["reason"]
        assert all(r["pass"] and r["reason"] is None
                   for g, r in rows.items() if g != "u4")


class TestEvolve:
    def test_zero_schedule_identity_target(self, tmp_path, capsys):
        table = tmp_path / "pulses.csv"
        table.write_text(write_pulse_table(zeros(1, 1.0, 4)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"pulse_table = {table}\ntarget = identity:1\n")
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "evolve.json").read_text())
        assert data["error"] <= 1e-12
        assert "error=0.000000" in capsys.readouterr().out or True

    def test_bundled_schedule(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bundled = u0\ntarget = quvis_physical:0\n")
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "evolve.json").read_text())
        assert data["error"] <= 0.05

    def test_non_finite_table_is_machine_readable(self, tmp_path, capsys):
        table = tmp_path / "pulses.csv"
        table.write_text("T=1.0,K=2,N=1\nx1,y1\n0.1,0.2\nnan,0.3\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"pulse_table = {table}\ntarget = identity:1\n")
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2
        assert record["error"] == "ParseError"
        assert "line 4, column 1" in record["message"]

    def test_error_is_read_from_one_evolution(self, tmp_path, monkeypatch):
        calls = []
        propagators = evolution._taylor_propagators

        def counted(*args, **kwargs):
            calls.append(1)
            return propagators(*args, **kwargs)

        monkeypatch.setattr(evolution, "_taylor_propagators", counted)
        table = tmp_path / "wide.csv"
        table.write_text(
            write_pulse_table(random_init(7, 0.65, 13, amplitude=1.0, seed=5)))
        # the bundled u0 table fits one chunk of the forward path; the
        # N = 7, K = 13 table spans three (4, 4 and 5 slices), each built once
        for source, target, chunks in (("bundled = u0", "quvis_physical:0", 1),
                                       (f"pulse_table = {table}", "qft:7", 3)):
            calls.clear()
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{source}\ntarget = {target}\n")
            assert main(["evolve", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
            data = json.loads((tmp_path / "evolve.json").read_text())
            last = (tmp_path / "evolve.csv").read_text().split()[-1].split(",")[1]
            assert len(calls) == chunks and data["error"] == float(last)

    def test_amplitudes_too_large_to_evolve_exit_2(self, tmp_path, capsys):
        # without a check the error came out nan with exit 0 at 1e200
        values = np.full((2, 2, 3), 1.0)
        values[:, :, 1] = 1e200
        table = tmp_path / "loud.csv"
        table.write_text(write_pulse_table(PulseSchedule(1.0, values)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"pulse_table = {table}\ntarget = cnot\n")
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "OutOfRange"
        assert record["message"].startswith("slice 1: ")
        assert not list(tmp_path.glob("evolve*"))

    def test_register_wider_than_limit_exits_2(self, tmp_path, capsys):
        # refused at the table's line, before the model is built
        table = tmp_path / "wide.csv"
        table.write_text(write_pulse_table(zeros(12, 1.0, 1)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"pulse_table = {table}\n")
        rc = main(["evolve", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record == {
            "error": "ConfigError",
            "message": f"line 1: pulse_table = {table}: register width 12 "
                       "outside 1..9"}
        assert not (tmp_path / "out").exists()

    def test_table_and_bundled_together_rejected(self, tmp_path, capsys):
        table = tmp_path / "pulses.csv"
        table.write_text(write_pulse_table(zeros(1, 1.0, 2)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"pulse_table = {table}\nbundled = u0\n")
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "ConfigError"

    def test_target_of_another_width_is_located(self, tmp_path, capsys,
                                                monkeypatch):
        # the 3-qubit target against the 2-qubit u0 table is refused at
        # its line, before any evolution, not as an unlocated mismatch
        def refuse(*args):
            raise AssertionError("evolution started")

        monkeypatch.setattr(cli, "error_trace", refuse)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bundled = u0\ntarget = qft:3\n")
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record == {
            "error": "ConfigError",
            "message": "line 2: target = qft:3: a 3-qubit target for a "
                       "2-qubit pulse table"}
        assert not list(tmp_path.glob("evolve*"))

    def test_missing_input_is_machine_readable(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("target = identity:1\n")
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        record = json.loads(err.strip())
        assert record["error"] == "ConfigError"


class TestSynthesize:
    def test_quick_run_writes_results(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "target = identity:1\ntime = 0.5\nname = quick\n"
            "optimizer.init_amplitude = 0\noptimizer.max_iters_per_stage = 5\n"
            "optimizer.n_refinements = 0\n")
        rc = main(["synthesize", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "quick.json").read_text())
        assert data["final_error"] <= 1e-12
        assert (tmp_path / "quick.pulses.csv").exists()
        assert (tmp_path / "quick.csv").exists()

    def test_meta_side_file_carries_version_and_wall_time(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "target = identity:1\ntime = 0.5\nname = quick\n"
            "optimizer.init_amplitude = 0\noptimizer.max_iters_per_stage = 5\n"
            "optimizer.n_refinements = 0\n")
        assert main(["synthesize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "quick.meta.json").read_text())
        assert meta["version"] == __version__
        assert isinstance(meta["wall_time_s"], float) and meta["wall_time_s"] >= 0
        assert "written_at" in meta

    def test_deterministic_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "target = cphase:pi/2\ntime = 0.3\nname = rerun\n"
            "optimizer.max_iters_per_stage = 8\noptimizer.n_refinements = 1\n"
            "optimizer.seed = 7\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synthesize", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["synthesize", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("rerun.json", "rerun.csv", "rerun.pulses.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("line, boundaries",
                             [("optimizer.n_refinements = 0\n", []),
                              ("optimizer.n_refinements = 1\n", [3]),
                              ("", [3, 6, 9])])
    def test_n_refinements_caps_the_stage_plan(self, tmp_path, line,
                                               boundaries):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("target = cphase:pi/2\ntime = 0.45\nname = plan\n"
                       "optimizer.max_iters_per_stage = 3\n" + line)
        assert main(["synthesize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "plan.json").read_text())
        assert data["stage_boundaries"] == boundaries

    def test_time_too_long_to_slice_exits_2(self, tmp_path, capsys):
        # numpy refused the start values' (2, N, K) array, and the run
        # ended in a raw ValueError traceback with exit 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text("target = x\ntime = 1e300\n")
        out = tmp_path / "out"
        rc = main(["synthesize", "--config", str(cfg), "--out", str(out)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "OutOfRange"
        assert "N = 1 qubits and K = 1.25e+301 slices" in record["message"]
        assert not out.exists()

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("target = identity:1\ntime = 0.5\nname = s\n"
                       "optimizer.max_iters_per_stage = 2\noptimizer.seed = 7\n")
        assert main(["synthesize", "--config", str(cfg), "--out", str(tmp_path),
                     "--seed", "3"]) == 0
        assert json.loads((tmp_path / "s.json").read_text())["seed"] == 3


class TestBadConfigExits2:
    """Every bad or unknown config value is a ConfigError record naming its
    line, raised before any synthesis starts."""

    @pytest.fixture(autouse=True)
    def no_synthesis(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("synthesis started")

        monkeypatch.setattr(cli, "synthesize_auto", refuse)

    @pytest.mark.parametrize("body, line", [
        ("target = identity:1\ntime = abc\n", 2),
        ("target = identity:1\noptimizer.learning_rate = abc\n", 2),
        ("target = identity:1\noptimizer.learning_rate = -1\n", 2),
        ("target = identity:1\nmodel.interaction = foo\n", 2),
        ("target = identity:1\noptimizer.max_iters_per_stage = 0\n", 2),
        ("target = identity:1\noptimizer.convergence_window = 0\n", 2),
        ("target = identity:1\ntime = 0.5\noptimizer.lerning_rate = 0.1\n", 3),
        ("target = identity:1\noptimizer.phase_mode = exact\n", 2),
        ("target = identity:-1\n", 1),
        ("name = wide\ntarget = qft:12\n", 2),
        ("target = cphase:two*pi\n", 1),
        ("target = identity:1\nmodel.coupling = pi/0\n", 2),
        ("target = cnot\ntime = 0.5\nmodel.coupling = inf\n", 3),
        ("target = cnot\ntime = 0.5\nmodel.coupling = nan\n", 3),
        ("target = identity:1\nmodel.field_sign = fields_subtract\n", 2),
        ("target = identity:1\noptimizer.field_clamp = 1.5\n", 2),
        ("target = identity:1\ntime = nan\n", 2),
        ("target = identity:1\ntime = inf\n", 2),
        ("target = identity:1\ntime = -1\n", 2),
        ("target = identity:1\ntime = 0\n", 2),
        ("target = identity:1\noptimizer.seed = -1\n", 2),
    ])
    def test_synthesize(self, tmp_path, capsys, body, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(body)
        rc = main(["synthesize", "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "ConfigError"
        assert record["message"].startswith(f"line {line}: ")

    @pytest.mark.parametrize("command, body", [
        ("evolve", "target = identity:1\npulse_table = {missing}\n"),
        ("evolve", "name = x\nbundled = no_such_table\n"),
        ("fit", "x = n\ninput = {missing}\n"),
        ("fit", "input = {csv}\nkind = quadratic\n"),
        ("fit", "input = {csv}\nn_min = nan\n"),
        ("fit", "input = {csv}\nn_min = -inf\n"),
        ("bench", "max_n = 3\nkind = qft3\n"),
        ("bench", "kind = qft\nmodel.interaction = ising\n"),
        ("bench", "kind = swap\ninteractions = ising,xy\n"),
        ("bench", "kind = qft\nsets = quvis3, nope\n"),
        # a repeated name would run its cells twice
        ("bench", "kind = qft\nsets = quvis3, quvis3\n"),
        ("bench", "kind = swap\ninteractions = ising, heisenberg, ising\n"),
        ("bench", "kind = phase-trace\ntime = nan\n"),
        ("bench", "kind = phase-trace\ntime = inf\n"),
        ("bench", "kind = phase-trace\ntime = -1\n"),
        ("bench", "kind = swap\noptimizer.seed = -1\n"),
        ("bench", "kind = phase-trace\nseeds = -1\n"),
        ("bench", "kind = swap\nerror_budget = nan\n"),
        ("bench", "kind = swap\nerror_budget = -1\n"),
    ])
    def test_other_commands(self, tmp_path, capsys, command, body):
        csv = tmp_path / "data.csv"
        csv.write_text("n,t\n1,2\n2,3\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(body.format(missing=tmp_path / "missing.csv", csv=csv))
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "ConfigError"
        assert record["message"].startswith("line 2: ")
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("command, body, message", [
        ("synthesize", "time = 0.5\n", "config needs target = <spec>"),
        ("fit", "x = n\n", "config needs input = <csv path>"),
        ("fit", "input = {csv}\nx = m\n",
         "columns 'm'/'y' not in ['n', 't']"),
        ("fit", "input = {csv}\nx = n\ny = u\n",
         "columns 'n'/'u' not in ['n', 't']"),
    ])
    def test_missing_key_or_column(self, tmp_path, capsys, command, body,
                                   message):
        csv = tmp_path / "data.csv"
        csv.write_text("n,t\n1,2\n2,3\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(body.format(csv=csv))
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record == {"error": "ConfigError",
                                      "message": message}
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("name", ["../escape", "", ".", "..", "a/b",
                                      "a\\b"])
    @pytest.mark.parametrize("command, body", [
        ("synthesize", "target = identity:1\nname = {name}\n"),
        ("evolve", "bundled = u0\nname = {name}\n"),
        ("fit", "input = {csv}\nname = {name}\nx = n\ny = t\n"),
    ])
    def test_name_is_one_file_in_the_output_directory(
            self, tmp_path, capsys, command, body, name):
        # a name that is empty, "." or "..", or holds a path separator,
        # wrote outside --out, wrote hidden files or crashed
        csv = tmp_path / "data.csv"
        csv.write_text("n,t\n1,2\n2,3\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(body.format(csv=csv, name=name))
        rc = main([command, "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "ConfigError"
        assert record["message"].startswith("line 2: name = ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv",
                                                              "run.cfg"]

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["synthesize", "--config", str(tmp_path / "none.cfg")])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "ConfigError"


class TestOut:
    """--out is refused before any work when it cannot be a directory, and
    a failed write is a ConfigError, not a traceback."""

    # each command's first step fails on these arguments, so a record
    # about --out shows that the check ran before the command did
    FIRST_STEP_FAILS = {
        "synthesize": ["--config", "missing.cfg"],
        "compile": ["--max-n", "2"],
        "evolve": ["--config", "missing.cfg"],
        "verify-golden": ["--threshold", "-1"],
        "bench": ["--config", "missing.cfg"],
        "fit": ["--config", "missing.cfg"],
    }

    @pytest.mark.parametrize("below", [False, True], ids=["file", "file/x"])
    @pytest.mark.parametrize("command", list(FIRST_STEP_FAILS))
    def test_out_that_is_or_is_below_a_file_exits_2(
            self, tmp_path, capsys, monkeypatch, command, below):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").touch()
        out = tmp_path / "taken" / "x" if below else tmp_path / "taken"
        rc = main([command, *self.FIRST_STEP_FAILS[command],
                   "--out", str(out)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record == {
            "error": "ConfigError",
            "message": f"--out {out}: {tmp_path / 'taken'} is not a "
                       "directory"}
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert (tmp_path / "taken").read_bytes() == b""

    def test_missing_out_below_a_directory_is_made(self, tmp_path, capsys):
        out = tmp_path / "a" / "b"
        assert main(["compile", "--max-n", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "compile_quvis3.json").is_file()

    def test_failed_write_names_the_file(self, tmp_path, capsys,
                                         monkeypatch):
        # a read-only directory does not stop a process run as root, so
        # the write itself is made to fail
        def refuse(path, text):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(Path, "write_text", refuse)
        rc = main(["compile", "--max-n", "3", "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "ConfigError"
        assert record["message"].startswith(
            f"cannot write {tmp_path / 'compile_quvis3.json'}: ")


class TestNoRunWritesOverAnInput:
    """A run whose name would write one of its files over a file it reads,
    the config or the file its pulse_table or input line names, is refused
    before any work: exit 2, a ConfigError naming the name line (or the
    name the run takes without one) and the file, and the file's bytes
    unchanged. Each wrote over its input."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch, tmp_path):
        def refuse(*args):
            raise AssertionError("work started")

        for work in ("synthesize_auto", "error_trace", "fit_linear",
                     "bench_qft", "bench_phase_trace", "bench_swap"):
            monkeypatch.setattr(cli, work, refuse)
        monkeypatch.chdir(tmp_path)
        for out in ("ev", "res"):
            Path(out).mkdir()

    @staticmethod
    def refused(capsys, argv, read, message):
        before = Path(read).read_bytes()
        rc = main(argv)
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record == {
            "error": "ConfigError",
            "message": f"{message}: would write over {read}, which this run "
                       "reads"}
        assert Path(read).read_bytes() == before

    def test_evolve_over_its_pulse_table(self, capsys):
        Path("ev/t5.csv").write_text(write_pulse_table(
            random_init(5, 2.0, 8, amplitude=1.0, seed=0)))
        Path("t5.cfg").write_text(
            "pulse_table = ev/t5.csv\ntarget = qft:5\nname = t5\n")
        self.refused(capsys, ["evolve", "--config", "t5.cfg", "--out", "ev"],
                     "ev/t5.csv", "line 3: name = t5")
        assert os.listdir("ev") == ["t5.csv"]

    @pytest.mark.parametrize("name_line, message", [
        ("name = fit\n", "line 4: name = fit"),
        ("", "name fit (the default)")])
    def test_fit_over_its_input(self, capsys, name_line, message):
        Path("res/fit.json").write_text("n,t\n1,2\n2,3\n")
        Path("fit.cfg").write_text(f"input = res/fit.json\nx = n\ny = t\n"
                                   f"{name_line}")
        self.refused(capsys, ["fit", "--config", "fit.cfg", "--out", "res"],
                     "res/fit.json", message)

    def test_synthesize_over_its_config(self, capsys):
        Path("res/syn.json").write_text(
            "target = identity:1\ntime = 0.5\nname = syn\n")
        self.refused(capsys, ["synthesize", "--config", "res/syn.json",
                              "--out", "res"],
                     "res/syn.json", "line 3: name = syn")
        assert os.listdir("res") == ["syn.json"]

    @pytest.mark.parametrize("body, name", [
        ("kind = qft\nmax_n = 3\nsets = quvis3\n", "qft_sweep_max3"),
        ("kind = phase-trace\n", "phase_trace"),
        ("kind = swap\n", "swap_sweep_max3")],
        ids=["qft", "phase-trace", "swap"])
    def test_bench_over_its_config(self, capsys, body, name):
        # bench has no name line: its files' stem is the sweep's id
        Path(f"res/{name}.json").write_text(body)
        self.refused(capsys, ["bench", "--config", f"res/{name}.json",
                              "--out", "res"],
                     f"res/{name}.json", f"name {name} (the sweep's)")
        assert os.listdir("res") == [f"{name}.json"]

    def test_evolve_with_no_target_writes_no_trace(self):
        # with no target there is no <name>.csv (and no error trace), so
        # the table is not written over and the run goes ahead
        text = write_pulse_table(random_init(2, 0.4, 3, amplitude=1.0, seed=1))
        Path("ev/t2.csv").write_text(text)
        Path("t2.cfg").write_text("pulse_table = ev/t2.csv\nname = t2\n")
        assert main(["evolve", "--config", "t2.cfg", "--out", "ev"]) == 0
        assert Path("ev/t2.csv").read_text() == text
        assert sorted(os.listdir("ev")) == ["t2.csv", "t2.json",
                                            "t2.meta.json"]


def test_results_csv_writes_numpy_scalars_as_python_values(tmp_path):
    cli.write_results(tmp_path, "row", {}, ("x", "n", "ok", "none"),
                      [(np.float64(0.1), np.int64(3), True, None)])
    assert ((tmp_path / "row.csv").read_text()
            == "x,n,ok,none\n0.1,3,True,None\n")


@pytest.mark.parametrize("argv", [
    ["synthesize", "--jobs", "2"],
    ["compile", "--seed", "1"],
    ["compile", "--jobs", "2"],
    ["evolve", "--seed", "1"],
    ["evolve", "--jobs", "2"],
    ["verify-golden", "--seed", "1"],
    ["verify-golden", "--jobs", "2"],
    ["fit", "--seed", "1"],
    ["fit", "--jobs", "2"],
    ["bench", "--max-n", "4"],
    ["bench", "--set", "direct"],
])
def test_removed_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    # argparse spends more time building the parser than parsing with it,
    # so a process builds it on its first main call and then reuses it
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.make_parser.cache_clear()
    counts = []
    for _ in range(3):
        assert main(["compile", "--max-n", "3", "--out", str(tmp_path)]) == 0
        counts.append(len(built))
    capsys.readouterr()
    assert built[0] == "spincompile" and counts == [counts[0]] * 3
    assert cli.make_parser() is cli.make_parser()


def test_exit_2_leaves_the_next_run_unaffected(tmp_path, capsys):
    # the parser is shared between main calls: neither a refused flag nor
    # a refused config may leave a value or default behind
    def compile_json(out):
        assert main(["compile", "--max-n", "3", "--out", str(out)]) == 0
        return (out / "compile_quvis3.json").read_bytes()

    before = compile_json(tmp_path / "before")
    with pytest.raises(SystemExit) as exc:
        main(["compile", "--set", "nope", "--max-n", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--seed", "7", "--jobs", "0"])
    assert exc.value.code == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bundled = u0\nname = ../escape\n")
    assert main(["evolve", "--config", str(cfg),
                 "--out", str(tmp_path / "bad")]) == 2
    capsys.readouterr()
    assert compile_json(tmp_path / "after") == before
    args = cli.make_parser().parse_args(["bench"])
    assert (args.seed, args.jobs, args.out, args.config) == (
        None, 1, "results", None)


@pytest.mark.parametrize("command", ["synthesize", "bench"])
def test_negative_seed_exits_2_at_parsing(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "-1"])
    assert exc.value.code == 2
    assert "seed -1 must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_exits_2_at_parsing(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--jobs", jobs])
    assert exc.value.code == 2
    assert f"jobs {jobs} must be >= 1" in capsys.readouterr().err


class TestCompileAndFit:
    def test_compile_and_targets_evolve_no_table(self, tmp_path, capsys,
                                                 evolved_tables):
        for name in ("quvis3", "quvis2", "qumis"):
            assert main(["compile", "--set", name, "--max-n", "9",
                         "--out", str(tmp_path)]) == 0
        for m in range(9):
            parse_target(f"quvis:{m}")
            parse_target(f"quvis_physical:{m}")
        capsys.readouterr()
        assert evolved_tables == []

    def test_compile_writes_rows(self, tmp_path, capsys):
        rc = main(["compile", "--set", "quvis3", "--max-n", "5",
                   "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "compile_quvis3.json").read_text())
        assert [r["n"] for r in data["rows"]] == [3, 4, 5]
        out = capsys.readouterr().out
        assert "qft5" in out

    @pytest.mark.parametrize("max_n", ["2", "10", "40"])
    @pytest.mark.parametrize("name", ["quvis3", "quvis2", "qumis"])
    def test_max_n_out_of_range_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, name, max_n):
        def no_work(*args):
            raise AssertionError("a circuit was compiled")

        monkeypatch.setattr(cli, "compile_qft", no_work)
        rc = main(["compile", "--set", name, "--max-n", max_n,
                   "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "OutOfRange"
        assert f"--max-n {max_n} outside 3..9" in record["message"]
        assert not list(tmp_path.iterdir())

    def test_fit_linear_roundtrip(self, tmp_path, capsys):
        csv = tmp_path / "data.csv"
        csv.write_text("n,t\n" + "\n".join(f"{x},{2.5*x+0.5}"
                                           for x in range(3, 9)) + "\n")
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"input = {csv}\nx = n\ny = t\nkind = linear\n")
        rc = main(["fit", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "fit.json").read_text())
        assert data["gamma"] == pytest.approx(2.5, abs=1e-9)
        assert data["beta"] == pytest.approx(0.5, abs=1e-9)

    def test_fit_n_min_drops_the_points_below_it(self, tmp_path):
        # the points at n = 3, 4 are off the line; n_min = 5 leaves them out
        csv = tmp_path / "data.csv"
        csv.write_text("n,t\n3,0\n4,100\n" + "".join(
            f"{x},{2.5 * x + 0.5}\n" for x in range(5, 9)))
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"input = {csv}\nx = n\ny = t\nn_min = 5\n")
        rc = main(["fit", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "fit.json").read_text())
        assert data["gamma"] == pytest.approx(2.5, abs=1e-9)
        assert data["beta"] == pytest.approx(0.5, abs=1e-9)
        assert data["residual"] <= 1e-9
        assert data["n_points"] == 4

    def test_fit_through_one_x_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "data.csv"
        csv.write_text("n,t\n3,1\n3,2\n3,3\n")
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"input = {csv}\nx = n\ny = t\n")
        rc = main(["fit", "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "Degenerate"
        assert "distinct x values" in record["message"]
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("text, where", [
        ("n,t\n2,abc\n", "line 2, column 2: "),
        ("n,t\n2,3\n\n3\n", "line 4, column 2: "),
        ("n,t\n2,3\n4,inf\n", "line 3, column 2: "),
        ("\n\n", "input has no header line"),
    ])
    def test_fit_bad_row_is_located(self, tmp_path, capsys, text, where):
        csv = tmp_path / "data.csv"
        csv.write_text(text)
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"input = {csv}\nx = n\ny = t\n")
        rc = main(["fit", "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "ParseError"
        assert record["message"].startswith(where)
        assert not list(tmp_path.glob("*.json"))


class TestBenchCommand:
    def test_qft_bench_deterministic(self, tmp_path):
        # at max_n = 9 the sweep reads and evolves all 16 bundled tables
        # (u8 and v8 are first used at N = 9)
        for max_n in (4, 9):
            cfg = tmp_path / f"bench{max_n}.cfg"
            cfg.write_text(f"kind = qft\nmax_n = {max_n}\n")
            out1, out2 = tmp_path / f"a{max_n}", tmp_path / f"b{max_n}"
            for out in (out1, out2):
                assert main(["bench", "--config", str(cfg),
                             "--out", str(out)]) == 0
            name = f"qft_sweep_max{max_n}"
            assert ((out1 / f"{name}.json").read_bytes()
                    == (out2 / f"{name}.json").read_bytes())
            assert ((out1 / f"{name}.csv").read_bytes()
                    == (out2 / f"{name}.csv").read_bytes())
            rows = json.loads((out1 / f"{name}.json").read_text())["rows"]
            assert {r["set"] for r in rows} == {"quvis3", "quvis2", "qumis"}
            assert len(rows) == 3 * (max_n - 2)
            assert all(r["error"] is not None for r in rows)

    def test_reruns_over_its_own_output(self, tmp_path, monkeypatch,
                                        capsys):
        # the files a sweep wrote before are no input of the next run,
        # with a config or without one
        monkeypatch.chdir(tmp_path)
        Path("qft.cfg").write_text("kind = qft\nmax_n = 3\n")
        for argv in (["--config", "qft.cfg"], []):
            for _ in range(2):
                assert main(["bench", *argv, "--out", "res"]) == 0
        assert sorted(os.listdir("res")) == [
            f"qft_sweep_max{n}{suffix}" for n in (3, 6)
            for suffix in (".csv", ".json", ".meta.json")]

    def test_unknown_set_exits_2_before_any_work(self, tmp_path, capsys,
                                                 evolved_tables):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("kind = qft\nsets = quvis3,quvus2\nmax_n = 3\n")
        rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2
        assert record["error"] == "ConfigError"
        assert record["message"].startswith("line 2: ")
        assert "'quvus2'" in record["message"]
        assert not list(tmp_path.glob("qft_sweep*"))
        assert evolved_tables == []

    @pytest.mark.parametrize("body", ["kind = qft\nmax_n = 12\n",
                                      "kind = qft\nmax_n = 2\n",
                                      "kind = swap\nmax_n = 1\n",
                                      "kind = swap\nmax_n = 10\n"])
    def test_max_n_out_of_range_exits_2(self, tmp_path, capsys, body):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(body)
        rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "OutOfRange"
        assert "max_n" in record["message"]
        assert not list(tmp_path.glob("*sweep*"))

    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_bad_error_budget_exits_2_before_any_synthesis(
            self, tmp_path, capsys, monkeypatch, budget):
        def refuse(*args):
            raise AssertionError("synthesis started")

        monkeypatch.setattr(optimizer, "synthesize_auto", refuse)
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"kind = swap\nerror_budget = {budget}\n")
        rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "ConfigError"
        assert record["message"].startswith(f"line 2: error_budget = {budget}")
        assert not list(tmp_path.glob("*.json"))

    def test_thetas_sharing_a_trace_key_exit_2(self, tmp_path, capsys,
                                               monkeypatch):
        def refuse(*args):
            raise AssertionError("synthesis started")

        monkeypatch.setattr(optimizer, "synthesize_auto", refuse)
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("kind = phase-trace\nthetas = pi/4, 0.7853982\n")
        rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "OutOfRange"
        assert "'direct_theta=0.785398'" in record["message"]
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("kind", ["phase-trace", "swap"])
    def test_no_seeds_exits_2(self, tmp_path, capsys, kind):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"kind = {kind}\nseeds = 0\n")
        rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "ConfigError"
        assert record["message"].startswith("line 2: seeds = 0")
        assert not list(tmp_path.glob("*.json"))


def test_module_entry_point_prints_the_version(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-m", "spincompile.cli",
                          "--version"], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == (0, f"{__version__}\n")
