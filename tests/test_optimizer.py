import numpy as np
import pytest

from spincompile.errors import BudgetUnreachable, NonUnitaryTarget, OutOfRange
from spincompile.evolution import gate_error
from spincompile.gates import controlled_phase
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

    def test_degenerate_clamp_forces_zero(self):
        cfg = OptimizerConfig(field_clamp=0.0)
        s = random_init(1, 1.0, 4, amplitude=2.0, seed=1)
        g = np.ones_like(s.values)
        s2, _ = adam_step(s, g, AdamState.like(s), cfg)
        assert not s2.values.any()

    def test_clamp_bounds_all_values(self):
        cfg = OptimizerConfig(field_clamp=0.4)
        s = random_init(2, 1.0, 4, amplitude=2.0, seed=2)
        g = np.ones_like(s.values)
        s2, _ = adam_step(s, g, AdamState.like(s), cfg)
        assert np.all(np.abs(s2.values) <= 0.4)


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", 0.0), ("learning_rate", -1.0),
        ("learning_rate", float("nan")), ("max_iters_per_stage", 0),
        ("convergence_window", 0), ("n_refinements", -1),
        ("init_amplitude", -0.5), ("init_amplitude", float("inf")),
        ("field_clamp", -1.0)])
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

    def test_non_unitary_target_rejected(self):
        model = nearest_neighbor_chain(1)
        with pytest.raises(NonUnitaryTarget):
            fgto_synthesize(np.array([[1, 0], [0, 2.0]]), model, 0.5, 2, CFG)

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

    def test_clamped_run_respects_bound(self):
        model = nearest_neighbor_chain(2)
        cfg = OptimizerConfig(seed=1, max_iters_per_stage=30,
                              field_clamp=1.5, init_amplitude=1.0)
        report = fgto_synthesize(quvis_gate_physical(0), model, 0.3, 4, cfg)
        assert np.all(np.abs(report.final_schedule.values) <= 1.5)

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
        t, report = time_cost_search(np.eye(2), model, cfg, 1e-9,
                                     [0.1, 0.2, 0.3])
        assert t == 0.1 and report.final_error <= 1e-9

    def test_zero_budget_unreachable(self):
        model = nearest_neighbor_chain(2)
        cfg = OptimizerConfig(seed=0, max_iters_per_stage=5, n_refinements=0)
        with pytest.raises(BudgetUnreachable) as exc:
            time_cost_search(controlled_phase(np.pi / 2).matrix, model, cfg,
                             0.0, [0.05, 0.1])
        assert len(exc.value.reports) == 2

    def test_grid_must_ascend(self):
        model = nearest_neighbor_chain(1)
        with pytest.raises(ValueError):
            time_cost_search(np.eye(2), model, CFG, 0.1, [0.2, 0.1])

    def test_empty_seed_list_rejected(self):
        model = nearest_neighbor_chain(1)
        with pytest.raises(OutOfRange, match="seed"):
            multi_seed_synthesize(np.eye(2), model, 0.1, CFG, [], 0.1)
