import json

import numpy as np
import pytest

from spincompile import __version__, cli, evolution, instructions
from spincompile.cli import main, parse_angle, parse_config, parse_target
from spincompile.errors import ConfigError
from spincompile.schedule import write_pulse_table, zeros


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

    def test_targets(self):
        m, n = parse_target("cphase:pi/2")
        assert n == 2 and m[3, 3] == pytest.approx(1j)
        m, n = parse_target("qft:3")
        assert n == 3 and m.shape == (8, 8)
        with pytest.raises(ConfigError):
            parse_target("frobnicate:2")

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


    def test_duration_mismatch_fails_that_gate(self, tmp_path, capsys,
                                               monkeypatch):
        # a gate whose cost disagrees with its table's own duration fails,
        # and the table's duration is what gets reported
        monkeypatch.setitem(instructions.QUVIS3_TIME, "u4", 2.5)
        rc = main(["verify-golden", "--out", str(tmp_path)])
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
        propagators = evolution._slice_propagators

        def counted(*args):
            calls.append(1)
            return propagators(*args)

        monkeypatch.setattr(evolution, "_slice_propagators", counted)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bundled = u0\ntarget = quvis_physical:0\n")
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "evolve.json").read_text())
        last = (tmp_path / "evolve.csv").read_text().split()[-1].split(",")[1]
        assert len(calls) == 1 and data["error"] == float(last)

    def test_register_wider_than_limit_exits_2(self, tmp_path, capsys):
        table = tmp_path / "wide.csv"
        table.write_text(write_pulse_table(zeros(12, 1.0, 1)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"pulse_table = {table}\n")
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "OutOfRange"
        assert "12" in record["message"]

    def test_table_and_bundled_together_rejected(self, tmp_path, capsys):
        table = tmp_path / "pulses.csv"
        table.write_text(write_pulse_table(zeros(1, 1.0, 2)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"pulse_table = {table}\nbundled = u0\n")
        rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "ConfigError"

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
        ("bench", "max_n = 3\nkind = qft3\n"),
        ("bench", "kind = qft\nmodel.interaction = ising\n"),
        ("bench", "kind = swap\ninteractions = ising,xy\n"),
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

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["synthesize", "--config", str(tmp_path / "none.cfg")])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2 and record["error"] == "ConfigError"


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


class TestCompileAndFit:
    def test_compile_writes_rows(self, tmp_path, capsys):
        rc = main(["compile", "--set", "quvis3", "--max-n", "5",
                   "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "compile_quvis3.json").read_text())
        assert [r["n"] for r in data["rows"]] == [3, 4, 5]
        out = capsys.readouterr().out
        assert "qft5" in out

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


class TestBenchCommand:
    def test_qft_bench_deterministic(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("kind = qft\nmax_n = 4\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["bench", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["bench", "--config", str(cfg), "--out", str(out2)]) == 0
        name = "qft_sweep_max4"
        assert ((out1 / f"{name}.json").read_bytes()
                == (out2 / f"{name}.json").read_bytes())
        assert ((out1 / f"{name}.csv").read_bytes()
                == (out2 / f"{name}.csv").read_bytes())
        rows = json.loads((out1 / f"{name}.json").read_text())["rows"]
        assert {r["set"] for r in rows} == {"quvis3", "quvis2", "qumis"}

    def test_unknown_set_exits_2_before_any_work(self, tmp_path, capsys,
                                                 monkeypatch):
        def no_evolve(*args):
            raise AssertionError("a table was evolved")

        monkeypatch.setattr(instructions, "evolve", no_evolve)
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("kind = qft\nsets = quvis3,quvus2\nmax_n = 3\n")
        rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path)])
        record = json.loads(capsys.readouterr().err.strip())
        assert rc == 2
        assert record["error"] == "UnknownGate"
        assert "'quvus2'" in record["message"]
        assert not list(tmp_path.glob("qft_sweep*"))

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
