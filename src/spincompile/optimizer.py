"""Coarse-to-fine gradient synthesis of pulse schedules.

One synthesis run is a sequence of stages. Within a stage, Adam updates
every pulse amplitude using the exact gradient of the gate error; when the
windowed loss stops improving (or the iteration budget runs out) the
schedule is refined by halving the slice width, which preserves the
realized evolution exactly, and the next stage continues from there.

Targets are matched phase-sensitively. Because the control Hamiltonian is
traceless, every reachable evolution operator has unit determinant, so a
target whose determinant is not 1 can never be reached exactly; the
synthesis therefore rephases every target to its closest unit-determinant
representative and reports the phase it applied (1 for a target that
already has unit determinant). ``OptimizerConfig`` owns every setting of
a run and its default and rejects a value outside its domain;
``n_refinements`` caps the refinements of ``synthesize_auto``'s plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetUnreachable, DimensionMismatch, NonUnitaryTarget
from .evolution import error_and_gradient, gate_error
from .model import SpinChainModel
from .schedule import PulseSchedule, random_init, refine_double, stage_plan

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.01
    max_iters_per_stage: int = 2000
    convergence_window: int = 50
    convergence_rel_tol: float = 1e-4
    n_refinements: int = 3
    init_amplitude: float = 1.0
    seed: int = 0
    field_clamp: float | None = None

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.max_iters_per_stage < 1 or self.convergence_window < 1:
            raise ValueError("max_iters_per_stage and convergence_window must be >= 1")
        if self.n_refinements < 0:
            raise ValueError("n_refinements must be >= 0")
        if not 0 <= self.init_amplitude < np.inf:
            raise ValueError("init_amplitude must be >= 0 and finite")
        if self.field_clamp is not None and not self.field_clamp >= 0:
            raise ValueError("field_clamp must be >= 0")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def like(cls, schedule: PulseSchedule) -> "AdamState":
        return cls(m=np.zeros_like(schedule.values),
                   v=np.zeros_like(schedule.values))


def adam_step(schedule: PulseSchedule, grad: np.ndarray, state: AdamState,
              cfg: OptimizerConfig):
    """One bias-corrected Adam update; returns (schedule', state')."""
    if grad.shape != schedule.values.shape:
        raise DimensionMismatch(
            f"gradient shape {grad.shape} vs values {schedule.values.shape}")
    t = state.t + 1
    m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * grad ** 2
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    vals = schedule.values - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if cfg.field_clamp is not None:
        vals = np.clip(vals, -cfg.field_clamp, cfg.field_clamp)
    return schedule.with_values(vals), AdamState(m=m, v=v, t=t)


@dataclass(frozen=True)
class OptimizationReport:
    loss_history: np.ndarray
    stage_boundaries: tuple
    final_error: float
    final_schedule: PulseSchedule
    wall_time: float
    target_phase: complex = 1.0 + 0.0j


def check_unitary_target(target: np.ndarray) -> np.ndarray:
    target = np.asarray(target, dtype=complex)
    d = target.shape[0]
    if target.shape != (d, d):
        raise NonUnitaryTarget("target must be square")
    dev = np.linalg.norm(target.conj().T @ target - np.eye(d))
    if dev > 1e-8:
        raise NonUnitaryTarget(f"target deviates from unitarity by {dev:.3e}")
    return target


def det1_phase(target: np.ndarray) -> complex:
    """Phase factor s with det(s * target) = 1, principal branch."""
    d = target.shape[0]
    return np.exp(-1j * np.angle(np.linalg.det(target)) / d)


def _converged(losses, cfg: OptimizerConfig) -> bool:
    w = cfg.convergence_window
    if len(losses) < 2 * w:
        return False
    prev = np.mean(losses[-2 * w:-w])
    cur = np.mean(losses[-w:])
    return (prev - cur) < cfg.convergence_rel_tol * max(prev, 1e-300)


def fgto_synthesize(target, model: SpinChainModel, total_time: float,
                    initial_slices: int,
                    cfg: OptimizerConfig) -> OptimizationReport:
    """Synthesize a schedule whose evolution matches the target unitary.

    Runs n_refinements + 1 stages, halving the slice width between stages,
    and returns the best schedule encountered anywhere in the run.
    """
    t0 = time.perf_counter()
    target = check_unitary_target(target)
    if target.shape[0] != model.dim:
        raise DimensionMismatch(
            f"target dim {target.shape[0]}, model dim {model.dim}")
    phase = det1_phase(target)
    work_target = phase * target
    schedule = random_init(model.n_qubits, total_time, initial_slices,
                           cfg.init_amplitude, cfg.seed)
    losses: list[float] = []
    boundaries: list[int] = []
    best_err = np.inf
    best_schedule = schedule
    for stage in range(cfg.n_refinements + 1):
        if stage > 0:
            boundaries.append(len(losses))
            schedule = refine_double(schedule)
        state = AdamState.like(schedule)
        stage_losses: list[float] = []
        for it in range(cfg.max_iters_per_stage):
            err, grad = error_and_gradient(work_target, model, schedule)
            stage_losses.append(err)
            if err < best_err:
                best_err = err
                best_schedule = schedule
            if err == 0.0 or _converged(stage_losses, cfg):
                break
            if it == cfg.max_iters_per_stage - 1:
                break  # keep the recorded loss aligned with the schedule
            schedule, state = adam_step(schedule, grad, state, cfg)
        losses.extend(stage_losses)
        if best_err == 0.0:
            break

    final_error = gate_error(work_target, model, best_schedule)
    return OptimizationReport(
        loss_history=np.array(losses),
        stage_boundaries=tuple(boundaries),
        final_error=final_error,
        final_schedule=best_schedule,
        wall_time=time.perf_counter() - t0,
        target_phase=phase,
    )


def synthesize_auto(target, model, total_time, cfg) -> OptimizationReport:
    """fgto_synthesize on the coarse-to-fine stage plan for total_time,
    with at most cfg.n_refinements refinements."""
    k0, refinements = stage_plan(total_time, cfg.n_refinements)
    return fgto_synthesize(target, model, total_time, k0,
                           replace(cfg, n_refinements=refinements))


def multi_seed_synthesize(target, model, total_time, cfg, seeds,
                          error_budget: float):
    """Try seeds in order; return the first report meeting the budget, else
    the best report. Second return element says whether the budget was met."""
    best = None
    for seed in seeds:
        report = synthesize_auto(target, model, total_time,
                                 replace(cfg, seed=int(seed)))
        if best is None or report.final_error < best.final_error:
            best = report
        if report.final_error <= error_budget:
            return report, True
    return best, False


def time_cost_search(target, model: SpinChainModel, cfg: OptimizerConfig,
                     error_budget: float, t_grid, restarts: int = 1):
    """Smallest grid time whose synthesis meets the budget.

    Returns (time, report). Raises BudgetUnreachable (carrying all
    per-point reports) if no grid point succeeds.
    """
    t_grid = list(t_grid)
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly ascending")
    attempts = []
    for t in t_grid:
        seeds = [cfg.seed + i for i in range(restarts)]
        report, ok = multi_seed_synthesize(target, model, t, cfg, seeds,
                                           error_budget)
        attempts.append((t, report))
        if ok:
            return t, report
    raise BudgetUnreachable(
        f"no grid point reached error {error_budget:g}", reports=attempts)
