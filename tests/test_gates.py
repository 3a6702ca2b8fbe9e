import numpy as np
import pytest

from spincompile.errors import BadPlacement, OutOfRange
from spincompile.gates import (Gate, apply_gate, cnot, controlled_phase,
                               hadamard, pauli_x, phase_gate, place,
                               qft_matrix, rotation, swap2,
                               swap_to_end_circuit)
from spincompile.instructions import compose_qumis


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


class TestPlace:
    def test_identity_placement(self):
        ident = type(hadamard())("i", 1, np.eye(2))
        assert np.allclose(place(ident, (2,), 3), np.eye(8))

    def test_full_width_swap(self):
        assert np.array_equal(place(swap2(), (1, 2), 2), swap2().matrix)

    def test_cnot_on_tail_matches_basis_action(self):
        u = place(cnot(), (2, 3), 3)
        for bits in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]:
            got = u @ basis_state(bits)
            expect = basis_state((bits[0], bits[1], bits[2] ^ bits[1]))
            assert np.allclose(got, expect), bits

    def test_respects_composition(self):
        g1, g2 = cnot(), swap2()
        prod = type(g1)("p", 2, g1.matrix @ g2.matrix)
        lhs = place(prod, (2, 3), 4)
        rhs = place(g1, (2, 3), 4) @ place(g2, (2, 3), 4)
        assert np.linalg.norm(lhs - rhs) <= 1e-12

    def test_bad_placements(self):
        with pytest.raises(BadPlacement):
            place(cnot(), (1, 1), 3)
        with pytest.raises(BadPlacement):
            place(cnot(), (0, 1), 3)
        with pytest.raises(BadPlacement):
            place(cnot(), (1,), 3)


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
        g = Gate("g", k, random_unitary(rng, 2 ** k))
        dim = 2 ** n_total
        u = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        expect = dense_embedding(g.matrix, positions, n_total) @ u
        assert np.linalg.norm(apply_gate(u, g, positions, n_total)
                              - expect) <= 1e-12
        assert np.linalg.norm(place(g, positions, n_total)
                              - dense_embedding(g.matrix, positions,
                                                n_total)) <= 1e-12

    def test_state_vector_operand(self):
        rng = np.random.default_rng(3)
        g = Gate("g", 2, random_unitary(rng, 4))
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        got = apply_gate(psi, g, (2, 3), 4)
        assert got.shape == (16,)
        assert np.linalg.norm(got - place(g, (2, 3), 4) @ psi) <= 1e-12

    @pytest.mark.parametrize("positions", [(1, 1), (0, 1), (1, 4), (1,),
                                           (1, 2, 3)])
    def test_rejects_what_place_rejects(self, positions):
        u = np.eye(8, dtype=complex)
        with pytest.raises(BadPlacement):
            place(cnot(), positions, 3)
        with pytest.raises(BadPlacement):
            apply_gate(u, cnot(), positions, 3)

    @pytest.mark.parametrize("positions", [(2, 1), (3, 1), (1, 3), (2, 4),
                                           (4, 2), (3, 2, 1), (4, 2, 1),
                                           (1, 2, 4), (2, 1, 3), (1, 3, 4)])
    def test_rejects_reversed_and_non_adjacent(self, positions):
        # the chain couples only neighbours: a placement is adjacent and
        # ascending
        k = len(positions)
        g = Gate("g", k, np.eye(2 ** k))
        with pytest.raises(BadPlacement):
            place(g, positions, 4)
        with pytest.raises(BadPlacement):
            apply_gate(np.eye(16, dtype=complex), g, positions, 4)

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
    def test_unitarity(self, n):
        f = qft_matrix(n).matrix
        assert np.linalg.norm(f.conj().T @ f - np.eye(2 ** n)) <= 1e-12


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
