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

from .errors import BudgetUnreachable, Degenerate, MissingRealization, OutOfRange
from .evolution import error_trace
from .gates import controlled_phase, qft_matrix, swap_to_end_circuit
from .instructions import (QUMIS, QUVIS2, QUVIS3, circuit_error_estimate,
                           compile_qft, instruction_set,
                           load_bundled_realizations,
                           qumis_decompose_controlled_phase, qumis_time_cost)
from .model import HEISENBERG, ISING, MAX_QUBITS, nearest_neighbor_chain
from .optimizer import (OptimizerConfig, multi_seed_synthesize,
                        time_cost_search)

DIRECT = "direct"


@dataclass(frozen=True)
class FitResult:
    gamma: float
    beta: float
    residual: float


def _usable(points, n_min):
    pts = [(float(x), float(y)) for x, y in points]
    if n_min is not None:
        pts = [(x, y) for x, y in pts if x >= n_min]
    if len(pts) < 2:
        raise Degenerate(f"need >= 2 usable points, have {len(pts)}")
    return np.array(pts)


def fit_linear(points, n_min=None) -> FitResult:
    """Least-squares y = gamma * x + beta; optional x >= n_min filter."""
    pts = _usable(points, n_min)
    gamma, beta = np.polyfit(pts[:, 0], pts[:, 1], 1)
    pred = gamma * pts[:, 0] + beta
    rms = float(np.sqrt(np.mean((pts[:, 1] - pred) ** 2)))
    return FitResult(gamma=float(gamma), beta=float(beta), residual=rms)


def fit_exponential(points, n_min=None) -> FitResult:
    """Least squares of y = beta * exp(gamma x) on log values."""
    pts = _usable(points, n_min)
    if np.any(pts[:, 1] <= 0):
        raise Degenerate("exponential fit needs positive values")
    lin = fit_linear(zip(pts[:, 0], np.log(pts[:, 1])))
    beta = float(np.exp(lin.beta))
    pred = beta * np.exp(lin.gamma * pts[:, 0])
    rms = float(np.sqrt(np.mean((pts[:, 1] - pred) ** 2)))
    return FitResult(gamma=lin.gamma, beta=beta, residual=rms)


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
    misses the budget keeps its best attempt (the first, on ties) and is
    marked failed."""
    try:
        t, report = time_cost_search(target, model, cfg, error_budget,
                                     t_grid, restarts)
        return {"time": t, "error": report.final_error}
    except BudgetUnreachable as exc:
        t, report = min(exc.reports, key=lambda tr: tr[1].final_error)
        return {"time": t, "error": report.final_error, "failed": True}


# ---------------------------------------------------------------------------
# Fourier-transform compilation sweep

def bench_qft(max_n: int, sets=(QUVIS3, QUVIS2, QUMIS), direct_max_n: int = 0,
              opt_cfg: OptimizerConfig | None = None,
              error_budget: float = 5e-2, jobs: int = 1) -> ExperimentResult:
    """Per-N compiled time and composed error for each instruction set.

    Every set's gates use the bundled pulse realizations for the error
    composition (the microinstruction set realizes CNOT and swap and keeps
    its rotations exact); a set with a gate that has no bundled
    realization leaves its error column empty. Direct control (a
    synthesis per N up to direct_max_n) is off by default because it is
    the only expensive column. An unknown set name raises UnknownGate
    before any work is done.
    """
    if not 3 <= max_n <= 9:
        raise OutOfRange(f"max_n {max_n} outside 3..9")
    isets = {name: instruction_set(name) for name in sets}
    load_bundled_realizations(*isets.values())
    rows = []
    for n in range(3, max_n + 1):
        target = qft_matrix(n).matrix
        for set_name in sets:
            iset = isets[set_name]
            total, steps = compile_qft(iset, n)
            try:
                err = circuit_error_estimate(n, steps, iset, target)
            except MissingRealization:
                err = None
            rows.append({"n": n, "set": set_name, "time": total,
                         "error": err})
    if direct_max_n:
        cfg = opt_cfg or OptimizerConfig()

        def direct(n):
            return {"n": n, "set": DIRECT, **_search_cell(
                qft_matrix(n).matrix, nearest_neighbor_chain(n), cfg,
                error_budget, [0.7 * n + 0.7 * i for i in range(4)], 2)}

        rows.extend(_parallel_map(direct,
                                  list(range(3, min(direct_max_n, max_n) + 1)),
                                  jobs))

    fits = {}
    for set_name in list(sets) + ([DIRECT] if direct_max_n else []):
        tpts = [(r["n"], r["time"]) for r in rows
                if r["set"] == set_name and r.get("time") is not None]
        epts = [(r["n"], r["error"]) for r in rows
                if r["set"] == set_name and r.get("error")]
        # fits follow the reported convention: use the n >= 5 points
        # whenever at least two of them exist
        n_min = 5 if max_n >= 6 else None
        try:
            fits[f"time_{set_name}"] = fit_linear(tpts, n_min=n_min)
        except Degenerate:
            pass
        try:
            fits[f"error_{set_name}"] = fit_exponential(epts, n_min=n_min)
        except Degenerate:
            pass
    return ExperimentResult(
        experiment_id=f"qft_sweep_max{max_n}",
        columns=("n", "set", "time", "error"),
        rows=rows, fits=fits,
        provenance={"sets": list(sets), "direct_max_n": direct_max_n,
                    "error_budget": error_budget})


# ---------------------------------------------------------------------------
# controlled-phase traces

def bench_phase_trace(thetas, total_time: float = 0.45,
                      opt_cfg: OptimizerConfig | None = None, seeds=5,
                      error_budget: float = 5e-2) -> ExperimentResult:
    """Error-versus-time traces for controlled phase gates.

    For each theta: a direct-control synthesis at ``total_time`` plus the
    control time of the microinstruction sequence. The synthesis matches
    the unit-determinant representative of the target.
    """
    if not len(list(thetas)):
        raise ValueError("need at least one theta")
    cfg = opt_cfg or OptimizerConfig()
    rows = []
    traces = {}
    for theta in thetas:
        target = controlled_phase(theta).matrix
        model = nearest_neighbor_chain(2)
        report, ok = multi_seed_synthesize(
            target, model, total_time, cfg,
            [cfg.seed + i for i in range(seeds)], error_budget)
        phased = report.target_phase * target
        tr = error_trace(phased, model, report.final_schedule)
        traces[f"direct_theta={theta:g}"] = {
            "times": tr.times.tolist(), "errors": tr.errors.tolist()}
        _params, placements = qumis_decompose_controlled_phase(theta)
        rows.append({"theta": theta, "direct_time": total_time,
                     "direct_error": report.final_error,
                     "direct_met_budget": ok,
                     "qumis_time": qumis_time_cost(placements)})
    return ExperimentResult(
        experiment_id="phase_trace",
        columns=("theta", "direct_time", "direct_error",
                 "direct_met_budget", "qumis_time"),
        rows=rows,
        fits={},
        provenance={"total_time": total_time, "seeds": seeds,
                    "error_budget": error_budget, "traces": traces})


# ---------------------------------------------------------------------------
# multi-qubit swap sweep

def bench_swap(max_n: int, interactions=(ISING, HEISENBERG),
               opt_cfg: OptimizerConfig | None = None,
               error_budget: float = 1e-1, seeds: int = 2,
               t_grids: dict | None = None, jobs: int = 1) -> ExperimentResult:
    """Direct-control synthesis of the first-to-last swap circuit per N
    and interaction type; linear time fits attached."""
    if not 2 <= max_n <= MAX_QUBITS:
        raise OutOfRange(f"max_n {max_n} outside 2..{MAX_QUBITS}")
    cfg = opt_cfg or OptimizerConfig()

    def cell(key):
        interaction, n = key
        target = swap_to_end_circuit(n).matrix
        model = nearest_neighbor_chain(n, interaction=interaction)
        grid = (t_grids or {}).get((interaction, n)) or \
            [round(0.8 * (n - 1) + 0.4 * i, 3) for i in range(5)]
        return {"interaction": interaction, "n": n, **_search_cell(
            target, model, cfg, error_budget, grid, seeds)}

    keys = [(i, n) for i in interactions for n in range(2, max_n + 1)]
    rows = _parallel_map(cell, keys, jobs)
    fits = {}
    for interaction in interactions:
        pts = [(r["n"], r["time"]) for r in rows
               if r["interaction"] == interaction and r["time"] is not None]
        try:
            fits[f"time_{interaction}"] = fit_linear(pts)
        except Degenerate:
            pass
    return ExperimentResult(
        experiment_id=f"swap_sweep_max{max_n}",
        columns=("interaction", "n", "time", "error"),
        rows=rows, fits=fits,
        provenance={"interactions": list(interactions),
                    "error_budget": error_budget, "seeds": seeds})
