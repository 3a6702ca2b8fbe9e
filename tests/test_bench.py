import numpy as np
import pytest

from spincompile import bench, instructions
from spincompile.bench import (bench_phase_trace, bench_qft, bench_swap,
                               fit_exponential, fit_linear)
from spincompile.errors import Degenerate, DimensionMismatch
from spincompile.evolution import evolve
from spincompile.instructions import (QUMIS, QUVIS2, QUVIS3,
                                      compile_qft_qumis, compile_qft_quvis,
                                      compile_qft_quvis2)
from spincompile.gates import swap_to_end_circuit
from spincompile.model import ISING, nearest_neighbor_chain
from spincompile.optimizer import OptimizerConfig, multi_seed_synthesize


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


class TestCompiledTimeScaling:
    def test_quvis3_slope_matches_reported(self):
        pts = [(n, compile_qft_quvis(n).total_time) for n in range(5, 10)]
        fit = fit_linear(pts)
        assert fit.gamma == pytest.approx(7.65, abs=1e-9)

    def test_quvis2_slope_near_reported(self):
        pts = [(n, compile_qft_quvis2(n).total_time) for n in range(5, 10)]
        fit = fit_linear(pts)
        assert fit.gamma == pytest.approx(9.25, rel=0.05)

    def test_qumis_slope_near_reported(self):
        pts = [(n, compile_qft_qumis(n)[1]) for n in range(5, 10)]
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

    def test_each_bundled_table_evolved_once(self, monkeypatch):
        # 16 tables; u0, swap and u3/u5/u7 (as v3/v5/v7) serve two or
        # three of the sets
        calls = []

        def counting_evolve(model, schedule):
            calls.append(schedule)
            return evolve(model, schedule)

        monkeypatch.setattr(instructions, "evolve", counting_evolve)
        bench_qft(8, sets=(QUVIS3, QUVIS2, QUMIS))
        assert len(calls) == len(instructions.bundled_pulse_ids()) == 16
        assert len({id(s) for s in calls}) == 16


class TestBenchQftMissingRealization:
    def test_unrealized_gate_leaves_its_cells_empty(self, monkeypatch):
        load = bench.load_bundled_realizations

        def without_u4(iset):
            iset = load(iset)
            if iset.kind == QUVIS3:
                iset["u4"].realized_schedule = None
            return iset

        monkeypatch.setattr(bench, "load_bundled_realizations", without_u4)
        rows = bench_qft(5, sets=(QUVIS3,)).rows
        errors = {r["n"]: r["error"] for r in rows}
        # u4 first appears in the N = 5 lowering
        assert errors[3] is not None and errors[4] is not None
        assert errors[5] is None

    def test_unrealized_qumis_gate_leaves_its_cells_empty(self, monkeypatch):
        load = bench.load_bundled_realizations

        def without_cnot(*isets):
            load(*isets)
            for iset in isets:
                if iset.kind == QUMIS:
                    iset["cnot"].realized_schedule = None
            return isets[0]

        monkeypatch.setattr(bench, "load_bundled_realizations", without_cnot)
        rows = bench_qft(4, sets=(QUVIS3, QUMIS)).rows
        errors = {(r["n"], r["set"]): r["error"] for r in rows}
        assert errors[(4, QUVIS3)] is not None
        assert errors[(3, QUMIS)] is None and errors[(4, QUMIS)] is None

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

    def test_non_ascending_grid_rejected_like_time_cost_search(self):
        cfg = OptimizerConfig(max_iters_per_stage=1)
        with pytest.raises(ValueError, match="t_grid must be strictly ascending"):
            bench_swap(2, interactions=(ISING,), opt_cfg=cfg,
                       t_grids={(ISING, 2): [0.4, 0.2]})
