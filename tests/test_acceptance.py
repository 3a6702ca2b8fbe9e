"""Acceptance suite: one test per gating criterion, each printing a
PASS/FAIL line per checked item (run with -s to watch them).

Criteria 1 and 6 read the reference durations from the instruction set.
Each phase-swap block's duration clears its minimum time on the chain,
1.5 - theta/(2*pi) (1.4375 for u3, which runs at 1.45); the README's
"Provenance of the bundled tables" section says where each replayed
table comes from.
"""

import time

import numpy as np
import pytest

from spincompile.bench import bench_qft, fit_exponential, fit_linear
from spincompile.evolution import error_and_gradient, evolve, gate_error
from spincompile.gates import controlled_phase, qft_matrix, rotation
from spincompile.instructions import (QUMIS, QUVIS2, QUVIS3, QUVIS3_TIME,
                                      bundled_evolution, compile_qft, compose,
                                      compose_qumis,
                                      qumis_decompose_controlled_phase,
                                      quvis3_set, quvis_gate_physical)
from spincompile.model import nearest_neighbor_chain
from spincompile.optimizer import OptimizerConfig, multi_seed_synthesize
from spincompile.schedule import (random_init, read_pulse_table,
                                  refine_double, write_pulse_table, zeros)


def report(criterion, label, ok, detail=""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {label} {detail}")
    return ok


def test_criterion_1_golden_pulse_replay():
    bundled_evolution.cache_clear()   # the runtime covers the replay
    t0 = time.perf_counter()
    iset = quvis3_set()
    results = []
    for m in range(9):
        eg = iset[f"u{m}"]
        err = eg.realized_error
        results.append(report(1, f"u{m} replay error {err:.4f}", err <= 0.05))
    elapsed = time.perf_counter() - t0
    results.append(report(1, f"runtime {elapsed:.1f}s", elapsed < 10.0))
    assert all(results), "golden replay exceeded the 0.05 bound for some gates"


def test_criterion_2_qft_composition():
    bundled_evolution.cache_clear()   # the runtime covers the replay
    t0 = time.perf_counter()
    iset = quvis3_set()
    ok = True
    for n in range(3, 10):
        _total, steps = compile_qft(iset, n)
        composed = compose(n, ((gate, pos) for _name, gate, pos in steps))
        dist = np.linalg.norm(composed - qft_matrix(n).matrix)
        ok &= report(2, f"N={n} composition distance {dist:.2e}", dist <= 1e-9)
    elapsed = time.perf_counter() - t0
    ok &= report(2, f"runtime {elapsed:.1f}s", elapsed < 5.0)
    assert ok


def test_criterion_3_controlled_phase_decomposition():
    ok = True
    rng = np.random.default_rng(2024)
    thetas = [np.pi / 8, np.pi / 4, np.pi / 2]
    thetas += list(rng.uniform(-2 * np.pi, 2 * np.pi, size=50))
    worst_prod, worst_rz = 0.0, 0.0
    for theta in thetas:
        (alpha, t1, t2, t3), placements = qumis_decompose_controlled_phase(theta)
        prod = compose_qumis(placements, 2)
        worst_prod = max(worst_prod,
                         np.linalg.norm(prod - controlled_phase(theta).matrix))
        rz = (rotation("z", t1).matrix @ rotation("z", t2).matrix
              @ rotation("z", t3).matrix)
        worst_rz = max(worst_rz, np.linalg.norm(rz - np.eye(2)))
    ok &= report(3, f"product equality worst {worst_prod:.2e}",
                 worst_prod <= 1e-12)
    ok &= report(3, f"rotation-product identity worst {worst_rz:.2e}",
                 worst_rz <= 1e-12)
    assert ok


def test_criterion_4_gradient_against_finite_differences():
    t0 = time.perf_counter()
    model = nearest_neighbor_chain(2)
    target_pool = [quvis_gate_physical(0), quvis_gate_physical(3),
                   controlled_phase(np.pi / 2).matrix]
    rng = np.random.default_rng(7)
    ok = True
    worst = 0.0
    for trial in range(20):
        k = int(rng.integers(2, 9))
        sched = random_init(2, float(rng.uniform(0.2, 0.8)), k,
                            amplitude=1.0, seed=trial)
        target = target_pool[trial % len(target_pool)]
        _err, grad = error_and_gradient(target, model, sched)
        h = 1e-5
        for a in range(2):
            for q in range(2):
                for s in range(k):
                    vp = sched.values.copy()
                    vp[a, q, s] += h
                    vm = sched.values.copy()
                    vm[a, q, s] -= h
                    fd = (gate_error(target, model, sched.with_values(vp))
                          - gate_error(target, model, sched.with_values(vm))
                          ) / (2 * h)
                    dev = abs(grad[a, q, s] - fd)
                    tol = max(1e-6 * abs(fd), 1e-9)
                    worst = max(worst, dev / max(abs(fd), 1e-9))
                    if dev > tol:
                        ok = False
    elapsed = time.perf_counter() - t0
    ok &= report(4, f"20 random schedules, worst relative dev {worst:.2e}",
                 ok)
    ok &= report(4, f"runtime {elapsed:.1f}s", elapsed < 30.0)
    assert ok


def test_criterion_5_direct_control_beats_cnot_budget():
    model = nearest_neighbor_chain(2)
    cfg = OptimizerConfig(seed=0, max_iters_per_stage=2000)
    result, ok = multi_seed_synthesize(
        controlled_phase(np.pi / 2).matrix, model, 0.45, cfg,
        seeds=range(5), error_budget=5e-2)
    report(5, f"controlled phase pi/2 at T=0.45: error {result.final_error:.4f} "
              f"(budget 5e-2, CNOT time 0.5)", ok)
    assert ok


def test_criterion_6_single_gate_synthesis_at_reference_budgets():
    model = nearest_neighbor_chain(2)
    cfg = OptimizerConfig(seed=0, max_iters_per_stage=2000)
    ok = True
    for m in (0, 3):
        t = QUVIS3_TIME[f"u{m}"]
        result, met = multi_seed_synthesize(
            quvis_gate_physical(m), model, t, cfg,
            seeds=range(5), error_budget=5e-2)
        ok &= report(6, f"u{m} at T={t}: error {result.final_error:.4f}", met)
    assert ok, ("a gate missed 5e-2 at its reference duration; check that "
                "the duration clears the block's minimum time (module docstring)")


def test_criterion_7_structural_invariants():
    ok = True
    # evolve output unitary
    model = nearest_neighbor_chain(3)
    sched = random_init(3, 1.0, 64, amplitude=2.0, seed=0)
    u = evolve(model, sched)
    dev = np.linalg.norm(u.conj().T @ u - np.eye(8))
    ok &= report(7, f"evolution unitarity {dev:.2e}", dev <= 1e-9)
    # refinement preserves the evolution
    m2 = nearest_neighbor_chain(2)
    s2 = random_init(2, 0.5, 6, amplitude=1.5, seed=1)
    dist = np.linalg.norm(evolve(m2, s2) - evolve(m2, refine_double(s2)))
    ok &= report(7, f"refinement evolution drift {dist:.2e}", dist <= 1e-12)
    # pulse-table round trip is exact
    s3 = random_init(3, 2.1, 17, amplitude=3.0, seed=2)
    rt = read_pulse_table(write_pulse_table(s3))
    exact = (np.array_equal(rt.values, s3.values)
             and rt.total_time == s3.total_time)
    ok &= report(7, "pulse table round trip bit exact", exact)
    # fits exact on noiseless data
    lin = fit_linear([(x, 2 * x + 1) for x in range(1, 9)])
    exp = fit_exponential([(x, 0.5 * np.exp(0.2 * x)) for x in range(1, 9)])
    fit_ok = (abs(lin.gamma - 2) <= 1e-9 and abs(lin.beta - 1) <= 1e-9
              and lin.residual <= 1e-9 and abs(exp.gamma - 0.2) <= 1e-9
              and abs(exp.beta - 0.5) <= 1e-9 and exp.residual <= 1e-9)
    ok &= report(7, "fit routines exact on noiseless data", fit_ok)
    # deterministic reruns, bitwise
    from spincompile.optimizer import fgto_synthesize
    cfg = OptimizerConfig(seed=3, max_iters_per_stage=20,
                          convergence_window=5, n_refinements=1)
    target = quvis_gate_physical(0)
    r1 = fgto_synthesize(target, m2, 0.3, 4, cfg)
    r2 = fgto_synthesize(target, m2, 0.3, 4, cfg)
    same = (np.array_equal(r1.loss_history, r2.loss_history)
            and np.array_equal(r1.final_schedule.values,
                               r2.final_schedule.values)
            and r1.final_error == r2.final_error)
    ok &= report(7, "identical seeds rerun bitwise identically", same)
    assert ok


def test_criterion_8_qft_sweep_substitute():
    result = bench_qft(6, sets=(QUVIS3, QUVIS2, QUMIS))
    by = {(r["n"], r["set"]): r for r in result.rows}
    ok = True
    for n in range(3, 7):
        t3 = by[(n, QUVIS3)]["time"]
        t2 = by[(n, QUVIS2)]["time"]
        tm = by[(n, QUMIS)]["time"]
        ok &= report(8, f"N={n} time ordering "
                        f"{t3:.2f} < {t2:.2f} < {tm:.2f}", t3 < t2 < tm)
    gamma = result.fits["error_quvis3"].gamma
    ok &= report(8, f"error growth exponent {gamma:.3f} in (0, 0.5)",
                 0 < gamma < 0.5)
    t3, tm = by[(6, QUVIS3)]["time"], by[(6, QUMIS)]["time"]
    ok &= report(8, f"N=6 time factor {t3 / tm:.3f} <= 0.6", t3 <= 0.6 * tm)
    assert ok
