import re

import numpy as np
import pytest

from spincompile.errors import BadPlacement, DimensionMismatch, OutOfRange
from spincompile.gates import (Gate, _FourierGate, apply_gate, cnot,
                               controlled_phase, hadamard, pauli_x,
                               phase_gate, qft_matrix, rotation,
                               swap2, swap_to_end_circuit)
from spincompile.instructions import compose_qumis
from spincompile.model import MAX_QUBITS


def basis_state(bits):
    v = np.zeros(2 ** len(bits), dtype=complex)
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    v[idx] = 1.0
    return v


class TestRotation:
    def test_zero_angle(self):
        assert np.allclose(rotation("z", 0.0).matrix, np.eye(2))

    def test_z_diagonal(self):
        th = 0.77
        assert np.allclose(rotation("z", th).matrix,
                           np.diag([np.exp(-1j * th / 2), np.exp(1j * th / 2)]))

    def test_x_pi(self):
        sx = pauli_x().matrix
        assert np.allclose(rotation("x", np.pi).matrix, -1j * sx, atol=1e-12)

    def test_y_is_the_exponential_of_sigma_y(self):
        th = 0.77
        w, v = np.linalg.eigh(np.array([[0, -1j], [1j, 0]]))
        expect = v @ np.diag(np.exp(-0.5j * th * w)) @ v.conj().T
        assert np.linalg.norm(rotation("y", th).matrix - expect) <= 1e-15

    def test_bad_axis(self):
        with pytest.raises(OutOfRange):
            rotation("q", 0.1)


class TestControlledPhase:
    def test_zero(self):
        assert np.allclose(controlled_phase(0.0).matrix, np.eye(4))

    def test_quarter(self):
        assert np.allclose(controlled_phase(np.pi / 2).matrix,
                           np.diag([1, 1, 1, 1j]))

    def test_figure_phases(self):
        for p in range(1, 9):
            th = np.pi / 2 ** p
            m = controlled_phase(th).matrix
            assert m[3, 3] == pytest.approx(np.exp(1j * th))

    def test_additivity(self):
        a, b = 0.9, -0.4
        lhs = controlled_phase(a).matrix @ controlled_phase(b).matrix
        assert np.linalg.norm(lhs - controlled_phase(a + b).matrix) <= 1e-12


@pytest.mark.parametrize("make, label", [
    (lambda: Gate("g", [[np.nan, 0], [0, 1]]), "g"),
    (lambda: rotation("x", np.nan), "rx(nan)"),
    (lambda: controlled_phase(np.inf), "cphase(inf)"),
    (lambda: Gate("big", [[1e200, 0], [0, 1]]), "big")])
def test_non_finite_or_overflowing_matrix_is_not_unitary(make, label):
    with pytest.raises(ValueError, match=rf"^{re.escape(label)}: matrix is "
                                         "not unitary$"):
        make()


@pytest.mark.parametrize("n_qubits, shape", [(2, (3, 3)), (1, (2, 4)),
                                             (1, (1, 2, 2)), (1, (2,)),
                                             (1, (1, 1))])
def test_gate_matrix_must_be_2_n_square(n_qubits, shape):
    # a 2^n x 2^n matrix is read as n qubits; a shape beside it is no gate
    assert Gate("g", np.eye(2 ** n_qubits)).n_qubits == n_qubits
    message = re.escape(f"g: matrix shape {shape}, not 2^n x 2^n with n >= 1")
    with pytest.raises(ValueError, match=f"^{message}$"):
        Gate("g", np.ones(shape))


class TestStandardGates:
    def test_hadamard_squares_to_identity(self):
        h = hadamard().matrix
        assert np.allclose(h @ h, np.eye(2), atol=1e-12)

    def test_cnot_involution(self):
        c = cnot().matrix
        assert np.allclose(c @ c, np.eye(4), atol=1e-12)

    def test_swap_conjugates_tensor_factors(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s = swap2().matrix
        assert np.allclose(s @ np.kron(a, b) @ s, np.kron(b, a))

    def test_phase_gate(self):
        assert np.allclose(phase_gate(np.pi).matrix, np.diag([1, -1]))


def embed(gate, positions, n_total):
    """apply_gate on the identity: the gate's dense embedding."""
    return apply_gate(np.eye(2 ** n_total, dtype=complex), gate, positions)


class TestPlace:
    def test_identity_placement(self):
        ident = type(hadamard())("i", np.eye(2))
        assert np.allclose(embed(ident, (2,), 3), np.eye(8))

    def test_full_width_swap(self):
        assert np.array_equal(embed(swap2(), (1, 2), 2), swap2().matrix)

    def test_cnot_on_tail_matches_basis_action(self):
        u = embed(cnot(), (2, 3), 3)
        for bits in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]:
            got = u @ basis_state(bits)
            expect = basis_state((bits[0], bits[1], bits[2] ^ bits[1]))
            assert np.allclose(got, expect), bits

    def test_respects_composition(self):
        g1, g2 = cnot(), swap2()
        prod = type(g1)("p", g1.matrix @ g2.matrix)
        lhs = embed(prod, (2, 3), 4)
        rhs = embed(g1, (2, 3), 4) @ embed(g2, (2, 3), 4)
        assert np.linalg.norm(lhs - rhs) <= 1e-12

    def test_bad_placements(self):
        with pytest.raises(BadPlacement):
            embed(cnot(), (1, 1), 3)
        with pytest.raises(BadPlacement):
            embed(cnot(), (0, 1), 3)
        with pytest.raises(BadPlacement):
            embed(cnot(), (1,), 3)


def dense_embedding(m, positions, n_total):
    """Reference embedding: kron(m, identity) in the order (positions, rest),
    conjugated by the explicit permutation of basis indices."""
    k = len(positions)
    order = [p - 1 for p in positions]
    order += [q for q in range(n_total) if q not in order]
    dim = 2 ** n_total
    perm = np.zeros((dim, dim))
    for j in range(dim):
        bits = [(j >> (n_total - 1 - q)) & 1 for q in range(n_total)]
        jp = 0
        for q in order:
            jp = (jp << 1) | bits[q]
        perm[jp, j] = 1.0
    full = np.kron(m, np.eye(2 ** (n_total - k)))
    return perm.T @ full @ perm


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestApplyGate:
    @pytest.mark.parametrize("positions,n_total", [
        ((1,), 1), ((3,), 4), ((6,), 6),
        ((1, 2), 2), ((2, 3), 5), ((2, 3), 3), ((5, 6), 6), ((4, 5), 6),
        ((1, 2, 3), 3), ((2, 3, 4), 6), ((2, 3, 4), 4), ((4, 5, 6), 6),
    ])
    def test_matches_dense_embedding(self, positions, n_total):
        rng = np.random.default_rng(len(positions) * 10 + n_total)
        k = len(positions)
        g = Gate("g", random_unitary(rng, 2 ** k))
        dim = 2 ** n_total
        u = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        expect = dense_embedding(g.matrix, positions, n_total) @ u
        assert np.linalg.norm(apply_gate(u, g, positions)
                              - expect) <= 1e-12
        assert np.linalg.norm(embed(g, positions, n_total)
                              - dense_embedding(g.matrix, positions,
                                                n_total)) <= 1e-12

    def test_state_vector_operand(self):
        rng = np.random.default_rng(3)
        g = Gate("g", random_unitary(rng, 4))
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        got = apply_gate(psi, g, (2, 3))
        assert got.shape == (16,)
        assert np.linalg.norm(got - dense_embedding(g.matrix, (2, 3), 4)
                              @ psi) <= 1e-12

    @pytest.mark.parametrize("positions", [(1, 1), (0, 1), (1, 4), (1,),
                                           (1, 2, 3)])
    def test_rejects_what_place_rejects(self, positions):
        with pytest.raises(BadPlacement):
            apply_gate(np.eye(8, dtype=complex), cnot(), positions)

    @pytest.mark.parametrize("positions", [(2, 1), (3, 1), (1, 3), (2, 4),
                                           (4, 2), (3, 2, 1), (4, 2, 1),
                                           (1, 2, 4), (2, 1, 3), (1, 3, 4)])
    def test_rejects_reversed_and_non_adjacent(self, positions):
        # the chain couples only neighbours: a placement is adjacent and
        # ascending
        k = len(positions)
        g = Gate("g", np.eye(2 ** k))
        with pytest.raises(BadPlacement):
            apply_gate(np.eye(16, dtype=complex), g, positions)

    def test_operand_rows_must_be_2_n(self):
        # the register width is read from the operand's 2^n rows
        for rows in (1, 3, 6, 12, 2 ** (MAX_QUBITS + 1)):
            with pytest.raises(DimensionMismatch,
                               match=f"^operand has {rows} rows, not 2\\^n "
                                     f"with n in 1..{MAX_QUBITS}$"):
                apply_gate(np.zeros(rows, dtype=complex), hadamard(), (1,))

    def test_width_is_read_from_the_operand(self):
        # a position past the operand's width is a bad placement
        with pytest.raises(BadPlacement, match="outside 1..2"):
            apply_gate(np.eye(4, dtype=complex), hadamard(), (3,))

    def test_compose_qumis_global_phase(self):
        placements = [("rz", 0.3, (2,)), ("gphase", 0.7, (1,)),
                      ("cnot", None, (2, 3)), ("phase", -1.1, (3,)),
                      ("gphase", -0.2, (3,)), ("swap", None, (1, 2))]
        expect = np.eye(8, dtype=complex)
        for kind, param, pos in placements:
            if kind == "gphase":
                m = np.exp(1j * param) * np.eye(8)
            else:
                g = {"rz": lambda: rotation("z", param),
                     "cnot": cnot, "swap": swap2,
                     "phase": lambda: phase_gate(param)}[kind]()
                m = dense_embedding(g.matrix, pos, 3)
            expect = m @ expect
        assert np.linalg.norm(compose_qumis(placements, 3) - expect) <= 1e-12


class TestQft:
    def test_single_qubit_is_hadamard(self):
        assert np.allclose(qft_matrix(1).matrix, hadamard().matrix)

    def test_two_qubit_dft(self):
        w = 1j
        expect = np.array([[w ** (j * k) for k in range(4)]
                           for j in range(4)]) / 2
        assert np.allclose(qft_matrix(2).matrix, expect)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_the_elementwise_formula_bitwise(self, n):
        # gathering the d roots of unity repeats each entry's arithmetic
        d = 2 ** n
        j = np.arange(d)
        expect = np.exp(2j * np.pi * (np.outer(j, j) % d) / d) / np.sqrt(d)
        assert qft_matrix(n).matrix.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("n", range(1, 10))
    def test_unitarity(self, n):
        f = qft_matrix(n).matrix
        assert np.linalg.norm(f.conj().T @ f - np.eye(2 ** n)) <= 1e-12

    @pytest.mark.parametrize("damage", ["moved", "nan"])
    def test_fft_check_rejects_a_damaged_dft(self, damage):
        # qft_matrix checks its matrix by an orthonormal FFT, not m^H m;
        # one entry moved by 1e-9, or made nan, fails both checks
        f = qft_matrix(3).matrix.copy()
        f[5, 2] = np.nan if damage == "nan" else f[5, 2] + 1e-9
        for build in (_FourierGate, Gate):
            with pytest.raises(ValueError, match="qft3: matrix is not unitary"):
                build("qft3", f)


@pytest.mark.parametrize("build, smallest", [(qft_matrix, 1),
                                             (swap_to_end_circuit, 2)])
def test_width_outside_the_register_is_rejected(build, smallest):
    for n in (smallest - 1, MAX_QUBITS + 1):
        where = rf"width {n} outside {smallest}\.\.{MAX_QUBITS}"
        with pytest.raises(OutOfRange, match=where):
            build(n)


class TestSwapToEnd:
    def test_two_qubits(self):
        assert np.array_equal(swap_to_end_circuit(2).matrix, swap2().matrix)
        sq = swap_to_end_circuit(2).matrix
        assert np.allclose(sq @ sq, np.eye(4))

    def test_three_qubit_cycle(self):
        u = swap_to_end_circuit(3).matrix
        for bits in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]:
            got = u @ basis_state(bits)
            expect = basis_state((bits[1], bits[2], bits[0]))
            assert np.allclose(got, expect), bits
