from types import SimpleNamespace

import numpy as np
import pytest

from spincompile import optimizer
from spincompile.errors import (DimensionMismatch, NonUnitaryTarget,
                               OutOfRange, ShapeError)
from spincompile.evolution import GRADIENT_EPS_FLOOR, evolve, gate_error
from spincompile.gates import Gate, controlled_phase
from spincompile.instructions import quvis_gate_physical
from spincompile.model import nearest_neighbor_chain
from spincompile.optimizer import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
                                   AdamState, OptimizerConfig, adam_step,
                                   det1_phase, fgto_synthesize,
                                   multi_seed_synthesize, synthesize_auto,
                                   time_cost_search)
from spincompile.schedule import random_init, zeros


CFG = OptimizerConfig(seed=0, max_iters_per_stage=60, convergence_window=10)


class TestAdamStep:
    def test_zero_gradient_fresh_state(self):
        s = random_init(1, 1.0, 3, amplitude=1.0, seed=0)
        state = AdamState.like(s)
        s2, state2 = adam_step(s, np.zeros_like(s.values), state, CFG)
        assert np.array_equal(s2.values, s.values)
        assert state2.t == 1 and not state2.m.any()

    def test_moments_decay_on_zero_gradient(self):
        s = zeros(1, 1.0, 1)
        state = AdamState(m=np.full((2, 1, 1), 0.5), v=np.full((2, 1, 1), 0.25),
                          t=3)
        _s2, state2 = adam_step(s, np.zeros_like(s.values), state, CFG)
        assert np.allclose(state2.m, ADAM_BETA1 * 0.5)
        assert np.allclose(state2.v, ADAM_BETA2 * 0.25)

    def test_first_step_matches_hand_computation(self):
        s = zeros(1, 1.0, 1)
        g = np.zeros((2, 1, 1))
        g[0, 0, 0] = 0.3
        s2, _ = adam_step(s, g, AdamState.like(s), CFG)
        # bias correction makes m_hat = g and v_hat = g^2 on the first step
        expect = -CFG.learning_rate * 0.3 / (0.3 + ADAM_EPS)
        assert s2.values[0, 0, 0] == pytest.approx(expect, rel=1e-12)
        assert s2.values[1, 0, 0] == 0.0

    def test_gradient_must_have_the_values_shape(self):
        s = zeros(1, 1.0, 2)
        with pytest.raises(DimensionMismatch, match=r"gradient shape "
                                                    r"\(2, 1, 1\)"):
            adam_step(s, np.zeros((2, 1, 1)), AdamState.like(s), CFG)


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", 0.0), ("learning_rate", -1.0),
        ("learning_rate", float("nan")), ("max_iters_per_stage", 0),
        ("convergence_window", 0), ("n_refinements", -1),
        ("init_amplitude", -0.5), ("init_amplitude", float("inf")),
        ("seed", -1), ("max_iters_per_stage", 1.5),
        ("convergence_window", 2.5), ("n_refinements", 0.5), ("seed", 1.5)])
    def test_rejects_out_of_domain(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: value})


class TestSynthesize:
    def test_n_refinements_caps_the_plan(self):
        model = nearest_neighbor_chain(2)
        target = controlled_phase(np.pi / 2).matrix
        for cap, stages in ((0, 1), (2, 3)):
            cfg = OptimizerConfig(seed=1, max_iters_per_stage=2,
                                  n_refinements=cap)
            report = synthesize_auto(target, model, 0.45, cfg)
            assert len(report.stage_boundaries) + 1 == stages
            assert report.final_schedule.n_slices == 6 * 2 ** cap

    def test_identity_target_zero_init(self):
        model = nearest_neighbor_chain(1)
        cfg = OptimizerConfig(init_amplitude=0.0, n_refinements=1)
        report = fgto_synthesize(np.eye(2), model, 0.7, 2, cfg)
        assert report.final_error == 0.0
        assert len(report.loss_history) == 1

    def test_exact_start_ends_the_run(self):
        # the start schedule realizes the target to rounding (1.7e-16),
        # below GRADIENT_EPS_FLOOR, so no stage runs past its first
        # evaluation
        model = nearest_neighbor_chain(2)
        cfg = OptimizerConfig(seed=4, n_refinements=2)
        start = random_init(2, 0.5, 3, cfg.init_amplitude, cfg.seed)
        report = fgto_synthesize(evolve(model, start), model, 0.5, 3, cfg)
        assert 0.0 < report.final_error < GRADIENT_EPS_FLOOR
        assert len(report.loss_history) == 1
        assert report.stage_boundaries == ()
        assert np.array_equal(report.final_schedule.values, start.values)

    def test_non_unitary_target_rejected(self):
        model = nearest_neighbor_chain(1)
        with pytest.raises(NonUnitaryTarget):
            fgto_synthesize(np.array([[1, 0], [0, 2.0]]), model, 0.5, 2, CFG)

    def test_target_refused_as_a_gate_is_refused(self):
        # m^H m is 2e-9 from the identity: past Gate's bound, so neither a
        # Gate nor a synthesis target
        target = np.diag([1, 1 + 1e-9])
        with pytest.raises(ValueError, match="not unitary"):
            Gate("t", target)
        with pytest.raises(NonUnitaryTarget, match="not unitary"):
            fgto_synthesize(target, nearest_neighbor_chain(1), 0.5, 2, CFG)

    @pytest.mark.parametrize("target", [np.eye(4), np.ones((2, 3)),
                                        np.ones(2)])
    def test_target_of_the_wrong_shape_rejected(self, target):
        model = nearest_neighbor_chain(1)
        with pytest.raises(DimensionMismatch, match="model dim 2"):
            fgto_synthesize(target, model, 0.5, 2, CFG)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_target_rejected(self, bad):
        model = nearest_neighbor_chain(1)
        target = np.eye(2, dtype=complex)
        target[1, 0] = bad
        with pytest.raises(NonUnitaryTarget,
                           match="not finite.*row 1, column 0"):
            fgto_synthesize(target, model, 0.5, 2, CFG)

    @pytest.mark.parametrize("initial_slices", [0, -2])
    def test_initial_slices_below_one_rejected(self, initial_slices):
        model = nearest_neighbor_chain(1)
        with pytest.raises(ShapeError, match="must be positive"):
            fgto_synthesize(np.eye(2), model, 0.5, initial_slices, CFG)

    def test_deterministic_rerun(self):
        model = nearest_neighbor_chain(2)
        target = quvis_gate_physical(0)
        a = fgto_synthesize(target, model, 0.3, 4, CFG)
        b = fgto_synthesize(target, model, 0.3, 4, CFG)
        assert np.array_equal(a.loss_history, b.loss_history)
        assert np.array_equal(a.final_schedule.values, b.final_schedule.values)
        assert a.final_error == b.final_error

    def test_stage_boundary_continuity(self):
        model = nearest_neighbor_chain(2)
        target = quvis_gate_physical(0)
        cfg = OptimizerConfig(seed=3, max_iters_per_stage=25,
                              convergence_window=5, n_refinements=2)
        report = fgto_synthesize(target, model, 0.3, 4, cfg)
        for b in report.stage_boundaries:
            assert abs(report.loss_history[b] - report.loss_history[b - 1]) <= 1e-10

    def test_running_minimum_nonincreasing_and_final_error(self):
        model = nearest_neighbor_chain(2)
        target = quvis_gate_physical(0)
        report = fgto_synthesize(target, model, 0.3, 4, CFG)
        run_min = np.minimum.accumulate(report.loss_history)
        assert np.all(np.diff(run_min) <= 0)
        assert report.final_error == pytest.approx(
            gate_error(report.target_phase * target, model,
                       report.final_schedule), abs=1e-12)
        assert report.final_error == report.loss_history.min()
        assert report.final_error <= report.loss_history[0]

    def test_det1_phase_mode_on_nonunimodular_target(self):
        target = controlled_phase(np.pi / 2).matrix
        phase = det1_phase(target)
        assert abs(np.linalg.det(phase * target) - 1) <= 1e-12
        model = nearest_neighbor_chain(2)
        report = synthesize_auto(target, model, 0.45,
                                 OptimizerConfig(seed=1,
                                                 max_iters_per_stage=400))
        assert report.target_phase == pytest.approx(phase)
        assert report.final_error < 0.05


class TestTimeCostSearch:
    def test_identity_returns_first_grid_point(self):
        model = nearest_neighbor_chain(1)
        cfg = OptimizerConfig(init_amplitude=0.0, n_refinements=0,
                              max_iters_per_stage=5)
        t, report, met = time_cost_search(np.eye(2), model, cfg, 1e-9,
                                          [0.1, 0.2, 0.3])
        assert t == 0.1 and report.final_error <= 1e-9 and met is True

    def test_missed_budget_returns_best_point(self):
        model = nearest_neighbor_chain(2)
        cfg = OptimizerConfig(seed=0, max_iters_per_stage=5, n_refinements=0)
        target = controlled_phase(np.pi / 2).matrix
        grid = [0.05, 0.1]
        t, report, met = time_cost_search(target, model, cfg, 0.0, grid,
                                          restarts=2)
        per_point = [multi_seed_synthesize(target, model, g, cfg, [0, 1], 0.0)
                     for g in grid]
        assert not any(ok for _report, ok in per_point)
        errors = [r.final_error for r, _ok in per_point]
        best = int(np.argmin(errors))
        assert met is False and t == grid[best]
        assert report.final_error == errors[best]
        assert np.array_equal(report.final_schedule.values,
                              per_point[best][0].final_schedule.values)

    def test_grid_must_ascend(self):
        model = nearest_neighbor_chain(1)
        for grid in ([0.2, 0.1], [0.1, 0.1], []):
            with pytest.raises(OutOfRange, match="t_grid"):
                time_cost_search(np.eye(2), model, CFG, 0.1, grid)

    def test_empty_seed_list_rejected(self):
        model = nearest_neighbor_chain(1)
        with pytest.raises(OutOfRange, match="seed"):
            multi_seed_synthesize(np.eye(2), model, 0.1, CFG, [], 0.1)


# (errors of the attempts in order, budget, index returned, budget met)
SCRIPTS = [
    ([0.5, 0.05, 0.01, 0.2], 0.1, 1, True),    # nothing runs after a hit
    ([0.1, 0.0], 0.1, 0, True),                # the budget is inclusive
    ([0.5, 0.3, 0.3, 0.4], 0.1, 1, False),     # ties go to the first
    ([0.2, 0.6, 0.2], 0.1, 0, False),
]


class TestFirstWithin:
    """multi_seed_synthesize tries seeds and time_cost_search grid points
    by one rule: the first attempt within budget, else the smallest error,
    the first on ties."""

    @staticmethod
    def script(monkeypatch, errors):
        """synthesize_auto returns errors[(total_time, seed)]; the keys it
        was asked for are recorded in order."""
        calls = []

        def scripted(target, model, total_time, cfg):
            calls.append((total_time, cfg.seed))
            return SimpleNamespace(final_error=errors[calls[-1]],
                                   key=calls[-1])

        monkeypatch.setattr(optimizer, "synthesize_auto", scripted)
        return calls

    @pytest.mark.parametrize("errors, budget, pick, met", SCRIPTS)
    def test_multi_seed(self, monkeypatch, errors, budget, pick, met):
        seeds = list(range(len(errors)))
        calls = self.script(monkeypatch, {(1.0, s): e
                                          for s, e in zip(seeds, errors)})
        report, ok = multi_seed_synthesize(np.eye(2), None, 1.0, CFG, seeds,
                                           budget)
        assert ok is met and report.key == (1.0, pick)
        assert calls == [(1.0, s) for s in seeds[:pick + 1 if met else None]]

    @pytest.mark.parametrize("errors, budget, pick, met", SCRIPTS)
    def test_time_cost_search(self, monkeypatch, errors, budget, pick, met):
        grid = [1.0 + i for i in range(len(errors))]
        calls = self.script(monkeypatch, {(t, CFG.seed): e
                                          for t, e in zip(grid, errors)})
        t, report, ok = time_cost_search(np.eye(2), None, CFG, budget, grid)
        assert ok is met and t == grid[pick]
        assert report.key == (grid[pick], CFG.seed)
        assert calls == [(t, CFG.seed) for t in grid[:pick + 1 if met else None]]

    @pytest.mark.parametrize("budget", [float("nan"), -1.0, -np.inf])
    def test_bad_budget_rejected_before_any_attempt(self, monkeypatch, budget):
        calls = self.script(monkeypatch, {})
        with pytest.raises(OutOfRange, match="error_budget"):
            multi_seed_synthesize(np.eye(2), None, 1.0, CFG, [0, 1], budget)
        with pytest.raises(OutOfRange, match="error_budget"):
            time_cost_search(np.eye(2), None, CFG, budget, [1.0, 2.0])
        assert calls == []

    def test_time_cost_search_keeps_each_points_best_seed(self, monkeypatch):
        # each point's best seed competes; the points tie at 0.3, so the
        # first point wins with its second seed
        calls = self.script(monkeypatch, {(1.0, 0): 0.4, (1.0, 1): 0.3,
                                          (2.0, 0): 0.3, (2.0, 1): 0.5})
        t, report, ok = time_cost_search(np.eye(2), None, CFG, 0.1,
                                         [1.0, 2.0], restarts=2)
        assert (t, report.key, ok) == (1.0, (1.0, 1), False)
        assert len(calls) == 4
