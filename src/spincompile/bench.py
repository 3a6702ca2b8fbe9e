"""Desk-scale experiment harness: sweeps, fits, result records.

Results are plain data (dicts of rows plus fits) so they serialize to
JSON and columnar text without further massaging. Sweep cells that fail
synthesis are recorded with their best error instead of aborting the
sweep.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import Degenerate, OutOfRange, ShapeError
from .evolution import error_trace
from .gates import controlled_phase, qft_matrix, swap_to_end_circuit
from .instructions import (SET_TIMES, circuit_error_estimate, compile_qft,
                           instruction_set, qumis_decompose_controlled_phase,
                           qumis_time_cost)
from .model import HEISENBERG, ISING, check_width, nearest_neighbor_chain
from .optimizer import (OptimizerConfig, multi_seed_synthesize,
                        time_cost_search)

DIRECT = "direct"
DIRECT_BUDGET = 5e-2    # the qft and phase-trace sweeps' synthesis budget


def experiment_id(kind: str, max_n: int | None = None) -> str:
    """The id of a sweep of that kind ("qft", "phase-trace" or "swap"), the
    stem of the files ``spincompile bench`` writes for it."""
    return ("phase_trace" if kind == "phase-trace"
            else f"{kind}_sweep_max{max_n}")


@dataclass(frozen=True)
class FitResult:
    gamma: float
    beta: float
    residual: float


def usable_points(points, n_min=None) -> np.ndarray:
    """The (x, y) points a fit uses: those with x >= n_min, if given, as a
    (count, 2) array. ShapeError if any point is not finite, Degenerate
    if fewer than two remain or they share one x, which fixes no line."""
    pts = [(float(x), float(y)) for x, y in points]
    bad = [i for i, p in enumerate(pts) if not np.isfinite(p).all()]
    if bad:
        raise ShapeError(f"fit points are not finite: {len(bad)} of them, "
                         f"the first {pts[bad[0]]} at index {bad[0]}")
    if n_min is not None:
        pts = [(x, y) for x, y in pts if x >= n_min]
    if len(pts) < 2:
        raise Degenerate(f"need >= 2 usable points, have {len(pts)}")
    if len({x for x, _ in pts}) < 2:
        raise Degenerate(f"need >= 2 distinct x values, all {len(pts)} "
                         f"points have x = {pts[0][0]:g}")
    return np.array(pts)


def distinct(names) -> tuple:
    """names as a tuple; OutOfRange naming the first one listed twice,
    which would run its cells twice."""
    names = tuple(names)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise OutOfRange(f"{name!r} is listed twice")
    return names


def fit_linear(points, n_min=None) -> FitResult:
    """Least-squares y = gamma * x + beta; optional x >= n_min filter."""
    pts = usable_points(points, n_min)
    gamma, beta = np.polyfit(pts[:, 0], pts[:, 1], 1)
    pred = gamma * pts[:, 0] + beta
    rms = float(np.sqrt(np.mean((pts[:, 1] - pred) ** 2)))
    return FitResult(gamma=float(gamma), beta=float(beta), residual=rms)


def fit_exponential(points, n_min=None) -> FitResult:
    """Least squares of y = beta * exp(gamma x) on log values."""
    pts = usable_points(points, n_min)
    if np.any(pts[:, 1] <= 0):
        raise Degenerate("exponential fit needs positive values")
    lin = fit_linear(zip(pts[:, 0], np.log(pts[:, 1])))
    beta = float(np.exp(lin.beta))
    pred = beta * np.exp(lin.gamma * pts[:, 0])
    rms = float(np.sqrt(np.mean((pts[:, 1] - pred) ** 2)))
    return FitResult(gamma=lin.gamma, beta=beta, residual=rms)


def _fits(rows, key, groups, column, fit, n_min=None) -> dict:
    """{f"{column}_{group}": fit of the (n, column) points of the rows
    whose key is group}, for each group with enough points; a value that
    is None or zero is no point."""
    fits = {}
    for group in groups:
        pts = [(r["n"], r[column]) for r in rows
               if r[key] == group and r.get(column)]
        try:
            fits[f"{column}_{group}"] = fit(pts, n_min=n_min)
        except Degenerate:
            pass
    return fits


@dataclass
class ExperimentResult:
    experiment_id: str
    columns: tuple
    rows: list
    fits: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)


def _parallel_map(fn, items, jobs: int):
    """Map in worker threads; cell order (and so output) is preserved."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, items))


def _search_cell(target, model, cfg, error_budget, t_grid, restarts) -> dict:
    """Time and error of a sweep cell's time_cost_search; a cell that
    misses the budget keeps its best attempt and is marked failed."""
    t, report, met = time_cost_search(target, model, cfg, error_budget,
                                      t_grid, restarts)
    return {"time": t, "error": report.final_error,
            **({} if met else {"failed": True})}


# ---------------------------------------------------------------------------
# Fourier-transform compilation sweep

def bench_qft(max_n: int, sets=tuple(SET_TIMES), direct_max_n: int = 0,
              opt_cfg: OptimizerConfig | None = None,
              jobs: int = 1) -> ExperimentResult:
    """Per-N compiled time and composed error for each instruction set.

    Every set's gates are replaced by their bundled pulse realizations in
    the error composition (the microinstruction set realizes CNOT and swap
    and keeps its rotations exact); each set, and each table the sweep
    needs, is built, or read and evolved, once per process. Direct control
    (a synthesis per N up to direct_max_n) is off by default because it is
    the only expensive column; direct_max_n is 0 or in 3..MAX_QUBITS.
    Before any work is done, an unknown set name raises UnknownGate, and a
    repeated one, or no set without direct control, OutOfRange.
    """
    sets = distinct(sets)
    check_width(max_n, 3, "max_n {n}")
    if direct_max_n:
        check_width(direct_max_n, 3, "direct_max_n {n}")
    elif not sets:
        raise OutOfRange("need at least one set or a direct_max_n")
    for name in sets:
        instruction_set(name)       # UnknownGate before any work
    rows = []
    for n in range(3, max_n + 1):
        target = qft_matrix(n).matrix
        for set_name in sets:
            iset = instruction_set(set_name)
            total, steps = compile_qft(iset, n)
            rows.append({"n": n, "set": set_name, "time": total,
                         "error": circuit_error_estimate(n, steps, iset,
                                                         target)})
    direct_max_n = min(direct_max_n, max_n)
    if direct_max_n:
        cfg = opt_cfg or OptimizerConfig()

        def direct(n):
            return {"n": n, "set": DIRECT, **_search_cell(
                qft_matrix(n).matrix, nearest_neighbor_chain(n), cfg,
                DIRECT_BUDGET, [0.7 * n + 0.7 * i for i in range(4)], 2)}

        rows.extend(_parallel_map(direct, list(range(3, direct_max_n + 1)),
                                  jobs))

    groups = list(sets) + ([DIRECT] if direct_max_n else [])
    # fits follow the reported convention: use the n >= 5 points whenever
    # at least two of them exist
    n_min = 5 if max_n >= 6 else None
    fits = {**_fits(rows, "set", groups, "time", fit_linear, n_min),
            **_fits(rows, "set", groups, "error", fit_exponential, n_min)}
    return ExperimentResult(
        experiment_id=experiment_id("qft", max_n),
        columns=("n", "set", "time", "error"),
        rows=rows, fits=fits,
        provenance={"sets": list(sets), "direct_max_n": direct_max_n,
                    "error_budget": DIRECT_BUDGET})


# ---------------------------------------------------------------------------
# controlled-phase traces

def bench_phase_trace(thetas, total_time: float = 0.45,
                      opt_cfg: OptimizerConfig | None = None,
                      seeds=5) -> ExperimentResult:
    """Error-versus-time traces for controlled phase gates.

    For each theta: a direct-control synthesis at ``total_time`` plus the
    control time of the microinstruction sequence. The synthesis matches
    the unit-determinant representative of the target. An empty theta list,
    or two thetas that share a trace key, raises OutOfRange.
    """
    keys = {}
    for theta in thetas:
        key = f"direct_theta={theta:g}"
        if key in keys:
            raise OutOfRange(f"thetas {keys[key]!r} and {theta!r} share the "
                             f"trace key {key!r}")
        keys[key] = theta
    if not keys:
        raise OutOfRange("need at least one theta")
    cfg = opt_cfg or OptimizerConfig()
    rows = []
    traces = {}
    for key, theta in keys.items():
        target = controlled_phase(theta).matrix
        model = nearest_neighbor_chain(2)
        report, ok = multi_seed_synthesize(
            target, model, total_time, cfg,
            [cfg.seed + i for i in range(seeds)], DIRECT_BUDGET)
        phased = report.target_phase * target
        tr = error_trace(phased, model, report.final_schedule)
        traces[key] = {"times": tr.times.tolist(), "errors": tr.errors.tolist()}
        _params, placements = qumis_decompose_controlled_phase(theta)
        rows.append({"theta": theta, "direct_time": total_time,
                     "direct_error": report.final_error,
                     "direct_met_budget": ok,
                     "qumis_time": qumis_time_cost(placements)})
    return ExperimentResult(
        experiment_id=experiment_id("phase-trace"),
        columns=("theta", "direct_time", "direct_error",
                 "direct_met_budget", "qumis_time"),
        rows=rows,
        fits={},
        provenance={"total_time": total_time, "seeds": seeds,
                    "error_budget": DIRECT_BUDGET, "traces": traces})


# ---------------------------------------------------------------------------
# multi-qubit swap sweep

def bench_swap(max_n: int, interactions=(ISING, HEISENBERG),
               opt_cfg: OptimizerConfig | None = None,
               error_budget: float = 1e-1, seeds: int = 2,
               t_grids: dict | None = None, jobs: int = 1) -> ExperimentResult:
    """Direct-control synthesis of the first-to-last swap circuit per N
    and interaction type; linear time fits attached. A repeated
    interaction, or none, raises OutOfRange before any work is done."""
    interactions = distinct(interactions)
    if not interactions:
        raise OutOfRange("need at least one interaction")
    check_width(max_n, 2, "max_n {n}")
    cfg = opt_cfg or OptimizerConfig()

    def cell(key):
        interaction, n = key
        target = swap_to_end_circuit(n).matrix
        model = nearest_neighbor_chain(n, interaction=interaction)
        grid = (t_grids or {}).get(
            (interaction, n), [round(0.8 * (n - 1) + 0.4 * i, 3) for i in range(5)])
        return {"interaction": interaction, "n": n, **_search_cell(
            target, model, cfg, error_budget, grid, seeds)}

    keys = [(i, n) for i in interactions for n in range(2, max_n + 1)]
    rows = _parallel_map(cell, keys, jobs)
    return ExperimentResult(
        experiment_id=experiment_id("swap", max_n),
        columns=("interaction", "n", "time", "error"),
        rows=rows,
        fits=_fits(rows, "interaction", interactions, "time", fit_linear),
        provenance={"interactions": list(interactions),
                    "error_budget": error_budget, "seeds": seeds})
