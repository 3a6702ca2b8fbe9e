import json

import numpy as np
import pytest

from spincompile import __version__, instructions
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
