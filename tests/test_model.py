import numpy as np
import pytest

from spincompile.errors import AxisViolation, DimensionMismatch, OutOfRange
from spincompile.evolution import evolve
from spincompile.linalg import frobenius_distance, kron
from spincompile.model import (HEISENBERG, FIELDS_SUBTRACT, MAX_QUBITS,
                               FieldSnapshot, SpinChainModel,
                               coupling_hamiltonian, full_hamiltonian,
                               nearest_neighbor_chain, site_operator,
                               slice_hamiltonians, spin_operator)
from spincompile.schedule import random_init

PI2 = 2 * np.pi


def test_two_spin_zz_spectrum():
    h = coupling_hamiltonian(nearest_neighbor_chain(2))
    assert np.allclose(h, PI2 * np.diag([0.25, -0.25, -0.25, 0.25]))


def test_single_spin_no_pairs():
    model = SpinChainModel(n_qubits=1, couplings=np.zeros((1, 1)))
    assert np.allclose(coupling_hamiltonian(model), 0.0)
    model_h = SpinChainModel(n_qubits=1, couplings=np.zeros((1, 1)),
                             interaction=HEISENBERG)
    assert np.allclose(coupling_hamiltonian(model_h), 0.0)


def test_three_site_chain_matches_embedded_terms():
    model = nearest_neighbor_chain(3)
    sz = spin_operator("z")
    i2 = np.eye(2)
    expect = (PI2 * kron(kron(sz, sz), i2) + PI2 * kron(i2, kron(sz, sz)))
    assert frobenius_distance(coupling_hamiltonian(model), expect) <= 1e-12


def test_heisenberg_includes_all_axes():
    model = nearest_neighbor_chain(2, interaction=HEISENBERG)
    expect = sum(PI2 * kron(spin_operator(ax), spin_operator(ax))
                 for ax in "xyz")
    assert frobenius_distance(coupling_hamiltonian(model), expect) <= 1e-12


def test_zero_fields_reduce_to_coupling():
    model = nearest_neighbor_chain(3)
    f = FieldSnapshot.of(n_qubits=3)
    assert np.array_equal(full_hamiltonian(model, f),
                          coupling_hamiltonian(model))


def test_single_spin_x_field():
    model = SpinChainModel(n_qubits=1, couplings=np.zeros((1, 1)))
    h = full_hamiltonian(model, FieldSnapshot.of(hx=[1.0], n_qubits=1))
    assert np.allclose(h, np.pi * np.array([[0, 1], [1, 0]]))


def test_conventions_differ_by_field_sign():
    main = nearest_neighbor_chain(2, field_sign=FIELDS_SUBTRACT)
    supp = nearest_neighbor_chain(2)
    f = FieldSnapshot.of(hx=[0.3, -1.2], hy=[0.7, 0.1])
    f_neg = FieldSnapshot.of(hx=[-0.3, 1.2], hy=[-0.7, -0.1])
    assert frobenius_distance(full_hamiltonian(main, f),
                              full_hamiltonian(supp, f_neg)) <= 1e-12


def test_axis_violation():
    model = nearest_neighbor_chain(2)
    with pytest.raises(AxisViolation):
        full_hamiltonian(model, FieldSnapshot.of(hz=[0.0, 0.5], n_qubits=2))


def test_field_shape_mismatch():
    model = nearest_neighbor_chain(2)
    with pytest.raises(DimensionMismatch):
        full_hamiltonian(model, FieldSnapshot.of(hx=[0.1, 0.2, 0.3]))
    with pytest.raises(DimensionMismatch):
        slice_hamiltonians(model, np.zeros((2, 3, 4)))


def test_evolution_steps_through_full_hamiltonians():
    # evolve and full_hamiltonian share one builder: stepping slice by
    # slice through full_hamiltonian reproduces evolve
    model = nearest_neighbor_chain(3, interaction=HEISENBERG,
                                   field_sign=FIELDS_SUBTRACT)
    sched = random_init(3, 0.3, 3, amplitude=1.0, seed=4)
    u = np.eye(8, dtype=complex)
    for k in range(3):
        h = full_hamiltonian(model, FieldSnapshot.of(
            hx=sched.values[0, :, k], hy=sched.values[1, :, k]))
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * sched.tau * w)) @ v.conj().T @ u
    assert frobenius_distance(evolve(model, sched), u) <= 1e-12


def test_output_hermitian():
    rng = np.random.default_rng(0)
    model = nearest_neighbor_chain(3, interaction=HEISENBERG)
    f = FieldSnapshot.of(hx=rng.normal(size=3), hy=rng.normal(size=3))
    h = full_hamiltonian(model, f)
    assert frobenius_distance(h, h.conj().T) <= 1e-12


def test_linearity_in_fields():
    model = nearest_neighbor_chain(2)
    rng = np.random.default_rng(1)
    f1 = FieldSnapshot.of(hx=rng.normal(size=2), hy=rng.normal(size=2))
    f2 = FieldSnapshot.of(hx=rng.normal(size=2), hy=rng.normal(size=2))
    fsum = FieldSnapshot.of(hx=f1.hx + f2.hx, hy=f1.hy + f2.hy)
    h0 = full_hamiltonian(model, FieldSnapshot.of(n_qubits=2))
    lhs = full_hamiltonian(model, fsum) - h0
    rhs = (full_hamiltonian(model, f1) - h0) + (full_hamiltonian(model, f2) - h0)
    assert frobenius_distance(lhs, rhs) <= 1e-12


def test_spin_z_eigenvalues():
    w = np.linalg.eigvalsh(PI2 * site_operator("z", 0, 1))
    assert np.allclose(sorted(w), [-np.pi, np.pi])


def test_default_chain_couplings():
    model = nearest_neighbor_chain(4)
    expect = np.zeros((4, 4))
    for n in range(3):
        expect[n, n + 1] = expect[n + 1, n] = PI2
    assert np.array_equal(model.couplings, expect)


def test_width_limit_is_checked_before_any_operator():
    assert MAX_QUBITS == 9 and nearest_neighbor_chain(MAX_QUBITS).dim == 512
    for n in (0, MAX_QUBITS + 1, 12):
        with pytest.raises(OutOfRange, match=f"width {n} outside"):
            nearest_neighbor_chain(n)
    with pytest.raises(OutOfRange):
        SpinChainModel(n_qubits=10, couplings=np.zeros((10, 10)))
