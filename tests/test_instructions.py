import numpy as np
import pytest

from spincompile import instructions
from spincompile.errors import (DimensionMismatch, MissingRealization,
                                OutOfRange, UnknownGate)
from spincompile.evolution import evolve, gate_error
from spincompile.gates import (Gate, apply_gate, controlled_phase, hadamard,
                               place, qft_matrix, rotation, swap2)
from spincompile.instructions import (BUNDLE_ALIASES, CNOT_TIME, QUVIS3_TIME,
                                      SWAP_GATE_ID, CompiledCircuit,
                                      ElementaryGate, InstructionSet,
                                      bit_reverse, bundled_pulse_ids,
                                      circuit_error_estimate, compile_qft,
                                      compile_qft_qumis, compile_qft_quvis,
                                      compile_qft_quvis2, compose_qumis,
                                      frame_phase, load_bundled_realizations,
                                      load_bundled_schedule,
                                      qumis_decompose_controlled_phase,
                                      qumis_gate, qumis_set, qumis_time_cost,
                                      quvis2_set, quvis3_set, quvis_gate,
                                      quvis_gate_physical)
from spincompile.model import nearest_neighbor_chain


class TestQuvisGates:
    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            quvis_gate(9)
        with pytest.raises(OutOfRange):
            quvis_gate(-1)

    def test_widths(self):
        # 2-qubit: u0 and odd m >= 3; 3-qubit: u1, u2 and even m >= 4
        for m in range(9):
            expect = 2 if (m == 0 or (m >= 3 and m % 2 == 1)) else 3
            assert quvis_gate(m).n_qubits == expect, m

    def test_all_unitary(self):
        for m in range(9):
            u = quvis_gate(m).matrix
            d = u.shape[0]
            assert np.linalg.norm(u.conj().T @ u - np.eye(d)) <= 1e-12

    def test_odd_gate_is_phase_then_swap(self):
        for m in (3, 5, 7):
            expect = swap2().matrix @ controlled_phase(np.pi / 2 ** m).matrix
            assert np.linalg.norm(quvis_gate(m).matrix - expect) <= 1e-12

    def test_physical_targets_are_unit_determinant(self):
        for m in range(9):
            u = quvis_gate_physical(m)
            assert abs(np.linalg.det(u) - 1) <= 1e-10, m

    def test_physical_targets_match_primitive_products(self):
        # reference: the targets built primitive by primitive, each swap
        # e^{i pi/4} S and each controlled phase e^{-i theta/4} C(theta),
        # bit-reversed; every quvis2 and quvis3 target must agree with it
        def h(q, n):
            return place(hadamard(), (q,), n)

        def cphase(theta):
            return np.exp(-1j * theta / 4) * controlled_phase(theta).matrix

        def phase_swap(p):
            swap = np.exp(1j * np.pi / 4) * swap2().matrix
            return swap @ cphase(np.pi / 2 ** p)

        def on(u, pos, n):
            return place(Gate("g", len(pos), u), pos, n)

        u0 = h(2, 2) @ cphase(np.pi / 2) @ h(1, 2)
        head = (on(phase_swap(2), (2, 3), 3) @ on(phase_swap(1), (1, 2), 3)
                @ h(1, 3))
        ref = {"u0": u0, "u1": on(u0, (1, 2), 3) @ head, "u2": head,
               "swap": np.exp(1j * np.pi / 4) * swap2().matrix,
               "w1": phase_swap(1) @ h(1, 2)}
        for m in (3, 5, 7):
            ref[f"u{m}"] = phase_swap(m)
        for m in (4, 6, 8):
            ref[f"u{m}"] = (on(phase_swap(m), (2, 3), 3)
                            @ on(phase_swap(m - 1), (1, 2), 3))
        for p in range(2, 9):
            ref[f"v{p}"] = phase_swap(p)
        for iset in (quvis3_set(), quvis2_set()):
            for gid, eg in iset.gates.items():
                assert np.abs(eg.physical_target
                              - bit_reverse(ref[gid])).max() <= 1e-14, gid
        for m in range(9):
            assert np.abs(quvis_gate_physical(m)
                          - bit_reverse(ref[f"u{m}"])).max() <= 1e-14, m

    def test_physical_matches_circuit_up_to_frame(self):
        # same gate, re-expressed: bit reversal plus a unimodular phase
        for m in range(9):
            c = bit_reverse(quvis_gate(m).matrix)
            p = quvis_gate_physical(m)
            overlap = np.trace(c.conj().T @ p) / c.shape[0]
            assert abs(abs(overlap) - 1) <= 1e-10, m
            assert np.linalg.norm(p - overlap * c) <= 1e-10, m


class TestQftComposition:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_quvis3_composition(self, n):
        iset = quvis3_set()
        circ = compile_qft_quvis(n)
        dist = np.linalg.norm(circ.compose(iset) - qft_matrix(n).matrix)
        assert dist <= 1e-9

    @pytest.mark.parametrize("n", range(3, 10))
    def test_quvis2_composition(self, n):
        iset = quvis2_set()
        circ = compile_qft_quvis2(n)
        dist = np.linalg.norm(circ.compose(iset) - qft_matrix(n).matrix)
        assert dist <= 1e-9

    @pytest.mark.parametrize("n", range(2, 8))
    def test_qumis_composition(self, n):
        placements, _t = compile_qft_qumis(n)
        dist = np.linalg.norm(compose_qumis(placements, n)
                              - qft_matrix(n).matrix)
        assert dist <= 1e-9

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            compile_qft_quvis(2)
        with pytest.raises(OutOfRange):
            compile_qft_quvis(10)

    def test_recursion_gate_ids(self):
        ids5 = [g for g, _ in compile_qft_quvis(5).placements]
        ids4 = [g for g, _ in compile_qft_quvis(4).placements]
        # the width-5 circuit is the width-5 stage plus the width-4 circuit
        assert ids5[:2] == ["u2", "u4"]
        assert ids5[2:] == ids4

    def test_width_bound(self):
        for n in range(3, 10):
            iset3 = quvis3_set()
            for gate_id, pos in compile_qft_quvis(n).placements:
                assert iset3[gate_id].width <= 3
                assert len(pos) == iset3[gate_id].width
            iset2 = quvis2_set()
            for gate_id, pos in compile_qft_quvis2(n).placements:
                assert iset2[gate_id].width <= 2

    def test_cost_additivity(self):
        iset = quvis3_set()
        c4 = compile_qft_quvis(4)
        total = sum(iset[g].time_cost for g, _ in c4.placements)
        assert c4.total_time == pytest.approx(total)
        # width-4 circuit = width-4 stage + width-3 circuit
        c3 = compile_qft_quvis(3)
        stage = [g for g, _ in c4.placements][:2]
        assert c4.total_time == pytest.approx(
            sum(iset[g].time_cost for g in stage) + c3.total_time)


class TestQumisDecomposition:
    def test_zero_angle(self):
        (alpha, t1, t2, t3), placements = qumis_decompose_controlled_phase(0.0)
        assert (alpha, t1, t2, t3) == (0, 0, 0, 0)
        assert np.allclose(compose_qumis(placements, 2), np.eye(4))

    def test_named_angle_parameters(self):
        (alpha, t1, t2, t3), _p = qumis_decompose_controlled_phase(np.pi / 2)
        assert alpha == pytest.approx(np.pi / 4)
        assert t1 == pytest.approx(np.pi / 4)
        assert t2 == pytest.approx(-np.pi / 4)
        assert t3 == 0.0

    @pytest.mark.parametrize("theta", [np.pi / 8, np.pi / 4, np.pi / 2])
    def test_figure_angles_exact(self, theta):
        _params, placements = qumis_decompose_controlled_phase(theta)
        got = compose_qumis(placements, 2)
        assert np.linalg.norm(got - controlled_phase(theta).matrix) <= 1e-12

    def test_fifty_random_angles(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=50):
            (a, t1, t2, t3), placements = qumis_decompose_controlled_phase(theta)
            got = compose_qumis(placements, 2)
            assert np.linalg.norm(got - controlled_phase(theta).matrix) <= 1e-12
            rz = (rotation("z", t1).matrix @ rotation("z", t2).matrix
                  @ rotation("z", t3).matrix)
            assert np.linalg.norm(rz - np.eye(2)) <= 1e-12


class TestQumisCost:
    def test_empty(self):
        assert qumis_time_cost([]) == 0.0

    def test_controlled_phase_cost(self):
        _params, placements = qumis_decompose_controlled_phase(np.pi / 2)
        expect = 2 * CNOT_TIME + (np.pi / 4 + np.pi / 4 + 0) / 10
        assert qumis_time_cost(placements) == pytest.approx(expect)
        assert qumis_time_cost(placements) == pytest.approx(1.157, abs=5e-4)

    def test_single_rotation(self):
        assert qumis_time_cost([("rz", np.pi, (1,))]) == pytest.approx(np.pi / 10)

    def test_unknown_kind(self):
        with pytest.raises(UnknownGate):
            qumis_time_cost([("toffoli", None, (1, 2, 3))])

    def test_gate_equivalents_near_reported_budgets(self):
        # reported single-gate budgets for the microinstruction baseline
        reported = {0: 2.3, 1: 8.4, 2: 6.0, 3: 2.6, 4: 5.1, 5: 2.5,
                    6: 5.0, 7: 2.5, 8: 5.0}
        h_cost = 3 * (np.pi / 2) / 10

        def cr(theta):
            return 2 * CNOT_TIME + theta / 10

        sw = 3 * CNOT_TIME
        mine = {
            0: 2 * h_cost + cr(np.pi / 2),
            1: 2 * h_cost + cr(np.pi / 2) + h_cost
               + 2 * sw + cr(np.pi / 2) + cr(np.pi / 4),
            2: h_cost + 2 * sw + cr(np.pi / 2) + cr(np.pi / 4),
            3: sw + cr(np.pi / 8), 5: sw + cr(np.pi / 32),
            7: sw + cr(np.pi / 128),
            4: 2 * sw + cr(np.pi / 8) + cr(np.pi / 16),
            6: 2 * sw + cr(np.pi / 32) + cr(np.pi / 64),
            8: 2 * sw + cr(np.pi / 128) + cr(np.pi / 256),
        }
        for m, ref in reported.items():
            assert abs(mine[m] - ref) / ref <= 0.30, (m, mine[m], ref)


def snap_frame(realized, gate):
    """Circuit-frame realized unitary with the frame phase estimated from
    the overlap and snapped to the unit-determinant grid: the construction
    the baseline's realized CNOT and swap used before they had physical
    targets, kept here as the reference."""
    flipc = bit_reverse(gate.matrix)
    d = flipc.shape[0]
    base = -np.angle(np.linalg.det(flipc)) / d
    raw = np.angle(np.trace(flipc.conj().T @ realized))
    k = round((raw - base) / (2 * np.pi / d))
    phi = base + 2 * np.pi * k / d
    return bit_reverse(realized) * np.exp(-1j * phi)


class TestQumisSet:
    def test_cnot_target_branch(self):
        eg = qumis_set()["cnot"]
        assert abs(np.linalg.det(eg.physical_target) - 1) <= 1e-12
        assert abs(frame_phase(eg.gate, eg.physical_target)
                   - np.exp(-3j * np.pi / 4)) <= 1e-15

    def test_composed_errors_match_snapped_frame_reference(self):
        iset = load_bundled_realizations(qumis_set())
        parts = {}
        for gid in ("cnot", SWAP_GATE_ID):
            u = evolve(nearest_neighbor_chain(2), load_bundled_schedule(gid))
            parts[gid] = Gate(gid, 2, snap_frame(u, iset[gid].gate))
        for n in range(3, 10):
            placements, total = compile_qft_qumis(n)
            ref = np.eye(2 ** n, dtype=complex)
            for kind, param, pos in placements:
                if kind == "gphase":
                    ref = np.exp(1j * param) * ref
                else:
                    gate = parts.get(kind) or qumis_gate(kind, param)
                    ref = apply_gate(ref, gate, pos, n)
            target = qft_matrix(n).matrix
            expect = np.linalg.norm(target - ref)
            got_total, steps = compile_qft(iset, n)
            assert got_total == total
            got = circuit_error_estimate(n, steps, iset, target)
            assert abs(got - expect) <= 1e-14, (n, got, expect)


class TestReferenceDurations:
    def test_phase_swap_blocks_clear_their_minimum_time(self):
        # swap . cphase(theta) has Cartan coordinates
        # (pi/4, pi/4, pi/4 - theta/4); under the chain's (pi/2) Z(x)Z
        # coupling with unbounded local fields its least time is
        # 1.5 - theta/(2 pi) (Khaneja, Brockett & Glaser 2001).
        blocks = ((quvis3_set(), ("u3", "u5", "u7")),
                  (quvis2_set(), tuple(f"v{p}" for p in range(2, 9))))
        for iset, gate_ids in blocks:
            for gid in gate_ids:
                eg = iset[gid]
                theta = np.angle(eg.gate.matrix[3, 3])
                block = swap2().matrix @ controlled_phase(theta).matrix
                assert np.allclose(eg.gate.matrix, block), gid
                assert eg.time_cost >= 1.5 - theta / (2 * np.pi), \
                    (iset.kind, gid, eg.time_cost)

    def test_bundled_table_durations_match_time_costs(self):
        available = set(bundled_pulse_ids())
        checked = set()
        for iset in (quvis3_set(), quvis2_set()):
            for gid, eg in iset.gates.items():
                source = BUNDLE_ALIASES.get(gid, gid)
                if source in available:
                    t = load_bundled_schedule(source).total_time
                    assert t == eg.time_cost, (iset.kind, gid, t, eg.time_cost)
                    checked.add(gid)
        assert {"u0", "u3", "u8", "v3", "v5", "v7"} <= checked


class TestRealizations:
    def test_bundled_golden_errors(self):
        iset = load_bundled_realizations(quvis3_set())
        for m in range(9):
            eg = iset[f"u{m}"]
            assert eg.realized_error is not None
            assert eg.realized_error <= 0.1, (m, eg.realized_error)

    def test_realized_error_consistent_with_gate_error(self):
        iset = load_bundled_realizations(quvis3_set())
        eg = iset["u0"]
        model = nearest_neighbor_chain(2)
        recomputed = gate_error(eg.physical_target, model,
                                eg.realized_schedule)
        assert abs(recomputed - eg.realized_error) <= 1e-10

    def test_realized_unitary_close_to_circuit_gate(self):
        iset = load_bundled_realizations(quvis3_set())
        eg = iset["u0"]
        u = eg.realized_unitary()
        assert np.linalg.norm(u - eg.gate.matrix) <= 0.05

    def test_missing_realization_raises(self):
        iset = quvis3_set()
        with pytest.raises(MissingRealization):
            iset["u0"].realized_unitary()

    def test_perfect_realizations_compose_to_zero_error(self):
        perfect = quvis3_set()
        for eg in perfect.gates.values():
            eg.realized_unitary = (lambda g: lambda: g)(eg.gate.matrix)
        circ = compile_qft_quvis(3)
        err = circuit_error_estimate(3, circ.steps(perfect), perfect,
                                     qft_matrix(3).matrix)
        assert err <= 1e-12

    def test_circuit_error_estimate_single_gate(self):
        iset = load_bundled_realizations(quvis3_set())
        circ = CompiledCircuit(target_label="u0", n_qubits=2,
                               placements=(("u0", (1, 2)),),
                               total_time=iset["u0"].time_cost)
        err = circuit_error_estimate(2, circ.steps(iset), iset,
                                     iset["u0"].gate.matrix)
        # distance in the circuit frame equals the physical-frame error
        assert err == pytest.approx(iset["u0"].realized_error, abs=1e-9)

    def test_circuit_error_estimate_composition_oracle(self):
        iset = load_bundled_realizations(quvis3_set())
        circ = compile_qft_quvis(3)
        err = circuit_error_estimate(3, circ.steps(iset), iset,
                                     qft_matrix(3).matrix)
        # brute-force recomposition
        u = np.eye(8, dtype=complex)
        for gid, pos in circ.placements:
            g = Gate(gid, iset[gid].width, iset[gid].realized_unitary())
            u = place(g, pos, 3) @ u
        brute = np.linalg.norm(qft_matrix(3).matrix - u)
        assert err == pytest.approx(brute, abs=1e-12)
        assert 0 < err < 0.5

    def test_realized_unitary_evolves_each_schedule_once(self, monkeypatch):
        calls = []

        def counting_evolve(*args):
            calls.append(args[1])
            return evolve(*args)

        monkeypatch.setattr(instructions, "evolve", counting_evolve)
        eg = load_bundled_realizations(quvis3_set())["u0"]
        # loading evolved the table once; its unitary is already cached
        calls.clear()
        first = eg.realized_unitary()
        assert eg.realized_unitary() is first and len(calls) == 0
        assert not first.flags.writeable
        # a reassigned schedule, even an equal one, is evolved again
        eg.realized_schedule = eg.realized_schedule.with_values(
            eg.realized_schedule.values)
        again = eg.realized_unitary()
        assert len(calls) == 1 and calls[0] is eg.realized_schedule
        assert np.array_equal(again, first)
        eg.realized_schedule = None
        with pytest.raises(MissingRealization):
            eg.realized_unitary()

    def test_missing_realization_in_estimate(self):
        iset = quvis3_set()
        circ = compile_qft_quvis(3)
        with pytest.raises(MissingRealization):
            circuit_error_estimate(3, circ.steps(iset), iset,
                                   qft_matrix(3).matrix)


class TestSerialization:
    def test_width_bound_enforced(self):
        iset = InstructionSet(kind="quvis2", max_width=2)
        with pytest.raises(DimensionMismatch):
            iset.add(ElementaryGate("u1", quvis_gate(1), 2.1,
                                    physical_target=quvis_gate_physical(1)))
