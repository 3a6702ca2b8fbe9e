import numpy as np
import pytest

from spincompile.errors import DimensionMismatch
from spincompile.evolution import (error_and_gradient, error_gradient,
                                   error_trace, evolve, gate_error)
from spincompile.gates import pauli_x
from spincompile.instructions import load_bundled_schedule, quvis_gate_physical
from spincompile.model import nearest_neighbor_chain
from spincompile.schedule import random_init, refine_double, zeros


def test_zero_schedule_single_qubit_identity():
    model = nearest_neighbor_chain(1)
    assert np.allclose(evolve(model, zeros(1, 0.7, 3)), np.eye(2), atol=1e-12)


def test_two_qubit_coupling_phase():
    model = nearest_neighbor_chain(2)
    u = evolve(model, zeros(2, 1.0, 10))
    expect = np.diag(np.exp(-1j * np.pi / 2 * np.array([1, -1, -1, 1])))
    assert np.linalg.norm(u - expect) <= 1e-10


def test_golden_u0_replay():
    model = nearest_neighbor_chain(2)
    sched = load_bundled_schedule("u0")
    err = gate_error(quvis_gate_physical(0), model, sched)
    assert err <= 0.05


def test_gate_error_of_own_evolution_is_zero():
    model = nearest_neighbor_chain(2)
    sched = random_init(2, 0.4, 5, amplitude=1.0, seed=3)
    u = evolve(model, sched)
    assert gate_error(u, model, sched) == 0.0


def test_gate_error_identity_vs_x():
    model = nearest_neighbor_chain(1)
    err = gate_error(pauli_x().matrix, model, zeros(1, 0.2, 2))
    assert err == pytest.approx(2.0)


def test_gate_error_is_recomputable_distance():
    model = nearest_neighbor_chain(2)
    sched = random_init(2, 0.6, 8, amplitude=1.0, seed=11)
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    err = gate_error(q, model, sched)
    assert err == pytest.approx(np.linalg.norm(q - evolve(model, sched)))


def test_dimension_mismatch():
    model = nearest_neighbor_chain(2)
    with pytest.raises(DimensionMismatch):
        gate_error(np.eye(2), model, zeros(2, 0.3, 3))


def test_trace_endpoints():
    model = nearest_neighbor_chain(2)
    sched = random_init(2, 0.5, 1, amplitude=1.0, seed=4)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    tr = error_trace(q, model, sched)
    assert len(tr.times) == 2
    assert tr.errors[0] == pytest.approx(np.linalg.norm(q - np.eye(4)))
    assert tr.errors[-1] == gate_error(q, model, sched)


def test_trace_identity_target_zero_schedule():
    model = nearest_neighbor_chain(1)
    tr = error_trace(np.eye(2), model, zeros(1, 1.0, 5))
    assert np.allclose(tr.errors, 0.0, atol=1e-12)


def test_trace_prefix_products():
    model = nearest_neighbor_chain(2)
    sched = random_init(2, 0.4, 6, amplitude=1.2, seed=6)
    target = quvis_gate_physical(0)
    tr = error_trace(target, model, sched)
    for k in range(sched.n_slices + 1):
        if k == 0:
            u = np.eye(4)
        else:
            u = evolve(model, type(sched)(2, sched.tau * k, k,
                                          sched.values[:, :, :k]))
        assert tr.errors[k] == pytest.approx(np.linalg.norm(target - u))


def test_gradient_zero_at_perfect_match():
    model = nearest_neighbor_chain(2)
    sched = random_init(2, 0.4, 4, amplitude=1.0, seed=7)
    target = evolve(model, sched)
    grad = error_gradient(target, model, sched)
    assert not grad.any()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_matches_finite_differences(seed):
    model = nearest_neighbor_chain(2)
    sched = random_init(2, 0.5, 4, amplitude=1.0, seed=seed)
    target = quvis_gate_physical(0)
    err, grad = error_and_gradient(target, model, sched)
    h = 1e-5
    for a in range(2):
        for q in range(2):
            for k in range(4):
                vp = sched.values.copy()
                vp[a, q, k] += h
                vm = sched.values.copy()
                vm[a, q, k] -= h
                fd = (gate_error(target, model, sched.with_values(vp))
                      - gate_error(target, model, sched.with_values(vm))) / (2 * h)
                assert abs(grad[a, q, k] - fd) <= max(1e-6 * abs(fd), 1e-9)


def test_gradient_refinement_chain_rule():
    # summing the two children's gradients recovers the parent's
    model = nearest_neighbor_chain(2)
    sched = random_init(2, 0.5, 3, amplitude=1.0, seed=8)
    target = quvis_gate_physical(0)
    parent = error_gradient(target, model, sched)
    child = error_gradient(target, model, refine_double(sched))
    summed = child[:, :, 0::2] + child[:, :, 1::2]
    assert np.allclose(parent, summed, atol=1e-9)


def test_evolve_unitarity():
    model = nearest_neighbor_chain(3)
    sched = random_init(3, 1.0, 50, amplitude=3.0, seed=9)
    u = evolve(model, sched)
    assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-9


def test_concatenation():
    model = nearest_neighbor_chain(2)
    a = random_init(2, 0.4, 4, amplitude=1.0, seed=10)
    b = random_init(2, 0.6, 6, amplitude=1.0, seed=11)
    both = type(a)(2, 1.0, 10,
                   np.concatenate([a.values, b.values], axis=2))
    assert np.linalg.norm(evolve(model, both)
                          - evolve(model, b) @ evolve(model, a)) <= 1e-10

