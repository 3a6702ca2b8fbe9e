import numpy as np
import pytest

import spincompile.evolution as evolution
from spincompile.errors import DimensionMismatch
from spincompile.evolution import (GRADIENT_EPS_FLOOR, _slice_propagators,
                                   error_and_gradient, error_trace, evolve,
                                   gate_error)
from spincompile.gates import pauli_x
from spincompile.instructions import load_bundled_schedule, quvis_gate_physical
from spincompile.linalg import (DEGENERATE_GAP, frobenius_distance,
                                loewner_kernel)
from spincompile.model import (FIELDS_ADD, FIELDS_SUBTRACT, HEISENBERG, ISING,
                               control_operators, coupling_hamiltonian,
                               nearest_neighbor_chain)
from spincompile.schedule import AXES, random_init, refine_double, zeros


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def loop_error_and_gradient(target, model, schedule):
    """The per-slice backward loop that the batched pass replaced, kept as
    its reference: same prefix products, one slice at a time backwards."""
    k_slices = schedule.n_slices
    w, v, ek = _slice_propagators(model, schedule)
    prefix = np.empty((k_slices + 1, model.dim, model.dim), dtype=complex)
    prefix[0] = np.eye(model.dim)
    for k in range(k_slices):
        prefix[k + 1] = ek[k] @ prefix[k]
    eps = frobenius_distance(target, prefix[k_slices])
    ops = control_operators(model)
    grad_sq = np.empty((len(AXES), model.n_qubits, k_slices))
    suffix = np.eye(model.dim, dtype=complex)
    tdag = target.conj().T
    for k in range(k_slices - 1, -1, -1):
        m = prefix[k] @ tdag @ suffix
        vk = v[k]
        wmat = vk.conj().T @ m @ vk
        y = wmat.T * loewner_kernel(w[k], schedule.tau)
        z = np.einsum("ji,anjl,lm->anim", vk.conj(), ops, vk, optimize=True)
        grad_sq[:, :, k] = -2.0 * np.real(np.einsum("im,anim->an", y, z,
                                                    optimize=True))
        suffix = suffix @ ek[k]
    return eps, grad_sq / (2.0 * eps)


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
    grad = error_and_gradient(target, model, sched)[1]
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
    parent = error_and_gradient(target, model, sched)[1]
    child = error_and_gradient(target, model, refine_double(sched))[1]
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



@pytest.mark.parametrize("field_sign", [FIELDS_ADD, FIELDS_SUBTRACT])
@pytest.mark.parametrize("interaction", [ISING, HEISENBERG])
@pytest.mark.parametrize("k_slices", [1, 2, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_batched_gradient_matches_slice_loop(n, k_slices, interaction,
                                             field_sign):
    model = nearest_neighbor_chain(n, interaction=interaction,
                                   field_sign=field_sign)
    sched = random_init(n, 0.1 * k_slices + 0.3, k_slices, amplitude=1.5,
                        seed=10 * n + k_slices)
    target = random_unitary(model.dim, seed=n + 100 * k_slices)
    err, grad = error_and_gradient(target, model, sched)
    ref_err, ref_grad = loop_error_and_gradient(target, model, sched)
    assert err == ref_err
    assert grad.shape == sched.values.shape
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


def test_loewner_kernel_runs_once_per_slice(monkeypatch):
    calls = []

    def counting(eigenvalues, t):
        calls.append(t)
        return loewner_kernel(eigenvalues, t)

    monkeypatch.setattr(evolution, "loewner_kernel", counting)
    model = nearest_neighbor_chain(2)
    sched = random_init(2, 0.5, 7, amplitude=1.0, seed=13)
    err, _ = error_and_gradient(random_unitary(4, seed=14), model, sched)
    assert err >= GRADIENT_EPS_FLOOR
    assert len(calls) == sched.n_slices
    calls.clear()
    err, _ = error_and_gradient(evolve(model, sched), model, sched)
    assert err < GRADIENT_EPS_FLOOR
    assert calls == []


def _directional_fd(target, model, sched, direction, h=1e-6):
    plus = sched.with_values(sched.values + h * direction)
    minus = sched.with_values(sched.values - h * direction)
    return (gate_error(target, model, plus)
            - gate_error(target, model, minus)) / (2 * h)


def test_gradient_directional_finite_differences():
    model = nearest_neighbor_chain(3, interaction=HEISENBERG)
    sched = random_init(3, 0.7, 5, amplitude=1.0, seed=5)
    target = random_unitary(8, seed=6)
    direction = np.random.default_rng(7).normal(size=sched.values.shape)
    _, grad = error_and_gradient(target, model, sched)
    fd = _directional_fd(target, model, sched, direction)
    assert abs(np.sum(grad * direction) - fd) <= 1e-6 * max(abs(fd), 1.0)


def test_gradient_linearity():
    model = nearest_neighbor_chain(2, interaction=HEISENBERG)
    sched = random_init(2, 0.6, 4, amplitude=1.0, seed=8)
    target = random_unitary(4, seed=9)
    rng = np.random.default_rng(10)
    d1 = rng.normal(size=sched.values.shape)
    d2 = rng.normal(size=sched.values.shape)
    a, b = 0.7, -1.3
    _, grad = error_and_gradient(target, model, sched)
    fd1 = _directional_fd(target, model, sched, d1)
    fd2 = _directional_fd(target, model, sched, d2)
    fd12 = _directional_fd(target, model, sched, a * d1 + b * d2)
    # central differences at h = 1e-6 carry ~1e-10 of rounding here
    assert abs(fd12 - (a * fd1 + b * fd2)) <= 1e-8
    assert abs(np.sum(grad * (a * d1 + b * d2)) - fd12) <= 1e-8
    zero = np.zeros_like(sched.values)
    assert _directional_fd(target, model, sched, zero) == 0.0


def test_gradient_degenerate_spectrum():
    # the zero-field Ising slice has eigenvalues -pi/2, -pi/2, pi/2, pi/2,
    # so the kernel takes its analytic limit on the repeated pairs
    model = nearest_neighbor_chain(2)
    lam = np.linalg.eigvalsh(coupling_hamiltonian(model))
    assert np.sum(np.abs(lam[:, None] - lam[None, :]) < DEGENERATE_GAP) > 4
    sched = zeros(2, 0.5, 4)
    target = quvis_gate_physical(0)
    _, grad = error_and_gradient(target, model, sched)
    assert np.linalg.norm(grad) > 0.1
    h = 1e-6
    for idx in np.ndindex(*grad.shape):
        step = np.zeros_like(sched.values)
        step[idx] = 1.0
        fd = _directional_fd(target, model, sched, step, h)
        assert abs(grad[idx] - fd) <= max(1e-6 * abs(fd), 1e-9)
