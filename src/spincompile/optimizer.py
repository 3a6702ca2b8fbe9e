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

from .errors import DimensionMismatch, NonUnitaryTarget, OutOfRange
from .evolution import GRADIENT_EPS_FLOOR, check_target, error_and_gradient
from .gates import check_unitary
from .model import SpinChainModel
from .schedule import PulseSchedule, random_init, refine_double, stage_plan

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# A stage has converged when its windowed mean loss fell by less than this
# fraction of the window before.
CONVERGENCE_REL_TOL = 1e-4


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.01
    max_iters_per_stage: int = 2000
    convergence_window: int = 50
    n_refinements: int = 3
    init_amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        for name, least in (("max_iters_per_stage", 1),
                            ("convergence_window", 1), ("n_refinements", 0),
                            ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}")
        if not 0 <= self.init_amplitude < np.inf:
            raise ValueError("init_amplitude must be >= 0 and finite")


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
    return schedule.with_values(vals), AdamState(m=m, v=v, t=t)


@dataclass(frozen=True)
class OptimizationReport:
    loss_history: np.ndarray
    stage_boundaries: tuple
    final_error: float
    final_schedule: PulseSchedule
    wall_time: float
    target_phase: complex = 1.0 + 0.0j


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
    return (prev - cur) < CONVERGENCE_REL_TOL * max(prev, 1e-300)


def fgto_synthesize(target, model: SpinChainModel, total_time: float,
                    initial_slices: int,
                    cfg: OptimizerConfig) -> OptimizationReport:
    """Synthesize a schedule whose evolution matches the target unitary.

    Runs n_refinements + 1 stages, halving the slice width between stages,
    and returns the best schedule encountered anywhere in the run. An
    error below GRADIENT_EPS_FLOOR (zero gradient) ends the run. A target
    that fails ``gates.check_unitary`` raises NonUnitaryTarget.
    """
    t0 = time.perf_counter()
    target = check_target(target, model)
    try:
        check_unitary("target", target)
    except ValueError as exc:
        raise NonUnitaryTarget(str(exc)) from None
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
            if err < GRADIENT_EPS_FLOOR or _converged(stage_losses, cfg):
                break
            if it == cfg.max_iters_per_stage - 1:
                break  # keep the recorded loss aligned with the schedule
            schedule, state = adam_step(schedule, grad, state, cfg)
        losses.extend(stage_losses)
        if best_err < GRADIENT_EPS_FLOOR:
            break

    return OptimizationReport(
        loss_history=np.array(losses),
        stage_boundaries=tuple(boundaries),
        final_error=best_err,
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


def _first_within(attempts, error_budget: float):
    """(key, report, met) of the first of the lazy (key, report) attempts
    whose error is within the budget, running none after it; when none is,
    the attempt with the smallest error (the first on ties) and met False.
    A nan or negative budget raises OutOfRange before the first attempt."""
    if not error_budget >= 0:
        raise OutOfRange(f"error_budget {error_budget!r} must be >= 0")
    best = None
    for key, report in attempts:
        if report.final_error <= error_budget:
            return key, report, True
        if best is None or report.final_error < best[1].final_error:
            best = key, report
    return (*best, False)


def multi_seed_synthesize(target, model, total_time, cfg, seeds,
                          error_budget: float):
    """Try seeds in order; return the first report meeting the budget, else
    the best report. Second return element says whether the budget was met.
    An empty seed list raises OutOfRange."""
    seeds = list(seeds)
    if not seeds:
        raise OutOfRange("need at least one seed")
    _seed, report, met = _first_within(
        ((seed, synthesize_auto(target, model, total_time,
                                replace(cfg, seed=int(seed))))
         for seed in seeds), error_budget)
    return report, met


def time_cost_search(target, model: SpinChainModel, cfg: OptimizerConfig,
                     error_budget: float, t_grid, restarts: int = 1):
    """Smallest grid time whose synthesis meets the budget.

    Returns (time, report, met): the first grid point whose multi-seed
    synthesis meets the budget, else the point with the smallest error
    (the first on ties) and met False. An empty or non-ascending grid
    raises OutOfRange.
    """
    t_grid = list(t_grid)
    if not t_grid or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise OutOfRange(f"t_grid {t_grid} must be non-empty and strictly "
                         "ascending")
    seeds = [cfg.seed + i for i in range(restarts)]
    return _first_within(
        ((t, multi_seed_synthesize(target, model, t, cfg, seeds,
                                   error_budget)[0])
         for t in t_grid), error_budget)
