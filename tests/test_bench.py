import re

import numpy as np
import pytest

from spincompile import bench, instructions
from spincompile.bench import (bench_phase_trace, bench_qft, bench_swap,
                               fit_exponential, fit_linear)
from spincompile.errors import (Degenerate, DimensionMismatch, OutOfRange,
                               ShapeError)
from spincompile.instructions import (QUMIS, QUVIS2, QUVIS3, compile_qft,
                                      instruction_set)
from spincompile.gates import Gate, swap_to_end_circuit
from spincompile.model import HEISENBERG, ISING, nearest_neighbor_chain
from spincompile.optimizer import OptimizerConfig, multi_seed_synthesize
from spincompile.schedule import write_pulse_table


class TestFits:
    def test_exact_line(self):
        pts = [(x, 2 * x + 1) for x in range(1, 8)]
        fit = fit_linear(pts)
        assert fit.gamma == pytest.approx(2.0, abs=1e-9)
        assert fit.beta == pytest.approx(1.0, abs=1e-9)
        assert fit.residual <= 1e-9

    def test_exact_exponential(self):
        pts = [(n, 0.5 * np.exp(0.2 * n)) for n in range(1, 9)]
        fit = fit_exponential(pts)
        assert fit.gamma == pytest.approx(0.2, abs=1e-9)
        assert fit.beta == pytest.approx(0.5, abs=1e-9)
        assert fit.residual <= 1e-9

    def test_refit_own_predictions(self):
        pts = [(x, -1.3 * x + 0.4) for x in (2, 3, 5, 8)]
        f1 = fit_linear(pts)
        pred = [(x, f1.gamma * x + f1.beta) for x, _ in pts]
        f2 = fit_linear(pred)
        assert f2.gamma == pytest.approx(f1.gamma, abs=1e-9)
        assert f2.beta == pytest.approx(f1.beta, abs=1e-9)

    def test_n_min_filter(self):
        pts = [(1, 100.0)] + [(x, 3 * x) for x in range(5, 10)]
        fit = fit_linear(pts, n_min=5)
        assert fit.gamma == pytest.approx(3.0, abs=1e-9)

    def test_degenerate(self):
        with pytest.raises(Degenerate):
            fit_linear([(1, 1)])
        with pytest.raises(Degenerate):
            fit_exponential([(1, -1.0), (2, 2.0)])
        # points at one x fix no line, also where n_min leaves only those
        for fit in (fit_linear, fit_exponential):
            with pytest.raises(Degenerate, match="2 distinct x values, all 3 "
                                                 "points have x = 3"):
                fit([(3, 1.0), (3, 2.0), (3, 3.0)])
            with pytest.raises(Degenerate, match="x = 5"):
                fit([(2, 1.0), (5, 2.0), (5, 3.0)], n_min=5)


    @pytest.mark.parametrize("fit", [fit_linear, fit_exponential])
    def test_non_finite_points_are_named(self, fit):
        # not Degenerate: bench reads that as too few points and skips
        pts = [(1, np.nan), (2, 1), (3, 2), (np.inf, 3)]
        with pytest.raises(ShapeError, match=r"2 of them, the first "
                                             r"\(1\.0, nan\) at index 0"):
            fit(pts)
        # named even where n_min would drop the point
        with pytest.raises(ShapeError, match=r"\(nan, 1\.0\) at index 0"):
            fit([(np.nan, 1), (2, 1), (3, 2)], n_min=2)


class TestCompiledTimeScaling:
    def test_quvis3_slope_matches_reported(self):
        pts = [(n, compile_qft(instruction_set(QUVIS3), n)[0])
               for n in range(5, 10)]
        fit = fit_linear(pts)
        assert fit.gamma == pytest.approx(7.65, abs=1e-9)

    def test_quvis2_slope_near_reported(self):
        pts = [(n, compile_qft(instruction_set(QUVIS2), n)[0])
               for n in range(5, 10)]
        fit = fit_linear(pts)
        assert fit.gamma == pytest.approx(9.25, rel=0.05)

    def test_qumis_slope_near_reported(self):
        pts = [(n, compile_qft(instruction_set(QUMIS), n)[0])
               for n in range(5, 10)]
        fit = fit_linear(pts)
        assert fit.gamma == pytest.approx(17.41, rel=0.05)


@pytest.fixture(scope="module")
def qft_sweep():
    return bench_qft(6, sets=(QUVIS3, QUVIS2, QUMIS))


class TestBenchQft:
    @pytest.fixture
    def result(self, qft_sweep):
        return qft_sweep

    def test_time_ordering_per_n(self, result):
        by = {(r["n"], r["set"]): r for r in result.rows}
        for n in range(3, 7):
            assert (by[(n, QUVIS3)]["time"] < by[(n, QUVIS2)]["time"]
                    < by[(n, QUMIS)]["time"])

    def test_time_reduction_factor_at_six(self, result):
        by = {(r["n"], r["set"]): r for r in result.rows}
        assert by[(6, QUVIS3)]["time"] <= 0.6 * by[(6, QUMIS)]["time"]

    def test_composed_errors_present_and_small(self, result):
        by = {(r["n"], r["set"]): r for r in result.rows}
        for n in range(3, 7):
            err = by[(n, QUVIS3)]["error"]
            assert err is not None and 0 < err < 1.0

    def test_error_growth_fit_band(self, result):
        fit = result.fits["error_quvis3"]
        assert 0 < fit.gamma < 0.5

    def test_each_bundled_table_evolved_once(self, evolved_tables):
        # compiling evolves nothing; a sweep evolves each table its
        # circuits use once (u0, swap and u3/u5/u7, as v3/v5/v7, serve two
        # or three of the sets), and a repeated sweep evolves none
        sets = (QUVIS3, QUVIS2, QUMIS)
        for name in sets:
            for n in range(2, 10):
                compile_qft(instruction_set(name), n)
        assert evolved_tables == []
        first = bench_qft(8, sets=sets)
        assert len(evolved_tables) == 14   # u8 and v8 are first used at N = 9
        assert bench_qft(8, sets=sets).rows == first.rows
        assert len(evolved_tables) == 14
        bench_qft(9, sets=sets)
        assert sorted(map(write_pulse_table, evolved_tables)) == sorted(
            write_pulse_table(instructions.load_bundled_schedule(t))
            for t in instructions.bundled_pulse_ids())
        assert len(evolved_tables) == 16

    def test_warm_sweep_builds_no_set_or_baseline_gate(self, monkeypatch):
        # every set and every exact baseline gate is built once per
        # process, so a warm sweep constructs only its Fourier targets
        sets = (QUVIS3, QUVIS2, QUMIS)
        bench_qft(8, sets=sets)
        built = []
        for cls in (Gate, instructions.ElementaryGate):
            def counting(self, *args, init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        bench_qft(8, sets=sets)
        assert built == ["_FourierGate"] * 6

    def test_cold_and_warm_sweeps_are_bitwise_equal(self, evolved_tables):
        # the cold sweep builds the sets and evolves their tables, the warm
        # one reuses both; repr writes every float exactly
        instructions.qumis_gate.cache_clear()
        cold = bench_qft(6)
        evolved = len(evolved_tables)
        assert evolved == 11 and repr(bench_qft(6).rows) == repr(cold.rows)
        assert len(evolved_tables) == evolved


class TestBenchQftDirect:
    @pytest.mark.parametrize("direct_max_n", [-1, 1, 2, 10])
    def test_direct_max_n_outside_range_rejected(self, evolved_tables,
                                                 direct_max_n):
        with pytest.raises(OutOfRange,
                           match=f"direct_max_n {direct_max_n} outside 3..9"):
            bench_qft(3, direct_max_n=direct_max_n)
        assert evolved_tables == []

    def test_float_max_n_rejected(self, evolved_tables):
        with pytest.raises(OutOfRange, match="max_n 4.0 is not an integer"):
            bench_qft(4.0)
        assert evolved_tables == []

    def test_repeated_set_rejected_before_any_work(self, evolved_tables):
        with pytest.raises(OutOfRange, match="'quvis3' is listed twice"):
            bench_qft(3, sets=(QUVIS3, QUMIS, QUVIS3))
        assert evolved_tables == []

    def test_no_set_and_no_direct_rejected_before_any_work(self,
                                                           evolved_tables):
        with pytest.raises(OutOfRange, match="need at least one set"):
            bench_qft(3, sets=())
        assert evolved_tables == []
        # direct control alone is a sweep
        cfg = OptimizerConfig(max_iters_per_stage=2, n_refinements=0)
        rows = bench_qft(3, sets=(), direct_max_n=3, opt_cfg=cfg).rows
        assert [(r["n"], r["set"]) for r in rows] == [(3, bench.DIRECT)]

    def test_capped_direct_rows(self):
        # two iterations per attempt meet no budget, so each row is the
        # best grid point, marked failed; jobs=2 maps N = 3, 4 on threads
        cfg = OptimizerConfig(max_iters_per_stage=2, n_refinements=0)
        one, two = (bench_qft(4, sets=(QUVIS3,), direct_max_n=4, opt_cfg=cfg,
                              jobs=jobs) for jobs in (1, 2))
        direct = [r for r in one.rows if r["set"] == bench.DIRECT]
        assert [r["n"] for r in direct] == [3, 4]
        for r in direct:
            assert set(r) == {"n", "set", "time", "error", "failed"}
            grid = [0.7 * r["n"] + 0.7 * i for i in range(4)]
            assert r["time"] in grid and r["error"] > 5e-2
        assert two.rows == one.rows
        assert {"time_direct", "error_direct"} <= set(one.fits)

    def test_provenance_reports_the_width_run(self):
        cfg = OptimizerConfig(max_iters_per_stage=2, n_refinements=0)
        result = bench_qft(3, sets=(QUVIS3,), direct_max_n=5, opt_cfg=cfg)
        assert [r["n"] for r in result.rows if r["set"] == bench.DIRECT] == [3]
        assert result.provenance["direct_max_n"] == 3


class TestBenchQftMissingRealization:
    def test_other_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise DimensionMismatch("broken estimate")

        monkeypatch.setattr(bench, "circuit_error_estimate", broken)
        with pytest.raises(DimensionMismatch):
            bench_qft(3, sets=(QUVIS3,))


class TestBenchPhaseTrace:
    def test_quarter_turn_trace(self):
        cfg = OptimizerConfig(seed=1, max_iters_per_stage=400)
        res = bench_phase_trace([np.pi / 2], total_time=0.45, opt_cfg=cfg,
                                seeds=2)
        row = res.rows[0]
        assert row["direct_error"] <= 5e-2
        assert row["direct_time"] < 0.5  # under the CNOT budget
        assert row["qumis_time"] == pytest.approx(2 * 0.5 + np.pi / 20)
        trace = res.provenance["traces"]["direct_theta=1.5708"]
        assert len(trace["times"]) == len(trace["errors"])
        assert trace["errors"][-1] == pytest.approx(row["direct_error"])

    def test_thetas_from_an_iterator(self):
        cfg = OptimizerConfig(max_iters_per_stage=5, n_refinements=0)
        res = bench_phase_trace(iter([np.pi / 2, np.pi / 4]), opt_cfg=cfg,
                                seeds=1)
        assert [row["theta"] for row in res.rows] == [np.pi / 2, np.pi / 4]

    def test_no_thetas(self):
        with pytest.raises(OutOfRange, match="at least one theta"):
            bench_phase_trace([])

    def test_thetas_sharing_a_trace_key_rejected_before_any_work(
            self, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "multi_seed_synthesize",
                            lambda *args: calls.append(args))
        # both print as 0.785398, so one trace would overwrite the other
        thetas = [np.pi / 2, np.pi / 4, np.pi / 4 + 1e-7]
        message = (f"thetas {np.pi / 4!r} and {np.pi / 4 + 1e-7!r} share the "
                   "trace key 'direct_theta=0.785398'")
        with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
            bench_phase_trace(thetas)
        assert calls == []


class TestBenchSwap:
    def test_two_qubit_ising_swap(self):
        cfg = OptimizerConfig(seed=5, max_iters_per_stage=250,
                              convergence_window=25)
        res = bench_swap(2, interactions=(ISING,), opt_cfg=cfg,
                         error_budget=1e-1, seeds=2,
                         t_grids={(ISING, 2): [1.5, 2.0]})
        row = res.rows[0]
        assert row["time"] <= 2.0
        assert row["error"] <= 1e-1

    def test_unreachable_budget_records_best_attempt(self):
        cfg = OptimizerConfig(seed=3, max_iters_per_stage=10,
                              convergence_window=5)
        grid = [0.2, 0.4]
        res = bench_swap(2, interactions=(ISING,), opt_cfg=cfg,
                         error_budget=1e-9, seeds=2,
                         t_grids={(ISING, 2): grid})
        target = swap_to_end_circuit(2).matrix
        model = nearest_neighbor_chain(2)
        errors = [multi_seed_synthesize(target, model, t, cfg, [3, 4],
                                        1e-9)[0].final_error for t in grid]
        best = int(np.argmin(errors))
        assert min(errors) > 1e-9
        assert res.rows == [{"interaction": ISING, "n": 2, "time": grid[best],
                             "error": errors[best], "failed": True}]

    def test_repeated_interaction_rejected_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a cell was synthesized")

        monkeypatch.setattr(bench, "time_cost_search", refuse)
        with pytest.raises(OutOfRange, match="is listed twice"):
            bench_swap(2, interactions=(ISING, HEISENBERG, ISING))

    def test_no_interaction_rejected_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a cell was synthesized")

        monkeypatch.setattr(bench, "time_cost_search", refuse)
        with pytest.raises(OutOfRange, match="need at least one interaction"):
            bench_swap(3, interactions=())

    def test_non_ascending_grid_rejected_like_time_cost_search(self):
        cfg = OptimizerConfig(max_iters_per_stage=1)
        for grid in ([0.4, 0.2], []):
            with pytest.raises(OutOfRange, match="strictly ascending"):
                bench_swap(2, interactions=(ISING,), opt_cfg=cfg,
                           t_grids={(ISING, 2): grid})
