import dataclasses
import re

import numpy as np
import pytest

from spincompile import instructions
from spincompile.errors import BadPlacement, OutOfRange, UnknownGate
from spincompile.evolution import evolve, gate_error
from spincompile.gates import (Gate, apply_gate, cnot, controlled_phase,
                               hadamard, qft_matrix, rotation, swap2)
from spincompile.instructions import (BUNDLE_ALIASES, CNOT_TIME, GATE_STEPS,
                                      QUMIS, QUVIS2, QUVIS3, SWAP_GATE_ID,
                                      bit_reverse, bundled_pulse_ids,
                                      circuit_error_estimate, circuit_frame,
                                      compile_qft, compile_qft_qumis,
                                      compile_qft_quvis, compile_qft_quvis2,
                                      compose, compose_qumis,
                                      instruction_set, load_bundled_schedule,
                                      lower,
                                      qft_steps, qumis_lower,
                                      qumis_decompose_controlled_phase,
                                      qumis_gate, qumis_time_cost,
                                      quvis2_set, quvis3_set, quvis_gate,
                                      quvis_gate_physical)
from spincompile.model import MAX_QUBITS, nearest_neighbor_chain


def embed(gate, positions, n):
    """The gate on the given positions of an n-qubit register, identity
    elsewhere, as a dense matrix."""
    return apply_gate(np.eye(2 ** n, dtype=complex), gate, positions)


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
        for name in (QUVIS3, QUVIS2, QUMIS):
            for gid, eg in instruction_set(name).gates.items():
                u = eg.physical_target
                assert abs(np.linalg.det(u) - 1) <= 1e-10, (name, gid)

    def test_u1_is_fourier_up_to_a_swap(self):
        expect = embed(swap2(), (1, 2), 3) @ qft_matrix(3).matrix
        assert np.abs(quvis_gate(1).matrix - expect).max() <= 1e-15

    def test_physical_targets_match_primitive_products(self):
        # reference: the targets built primitive by primitive, each swap
        # e^{i pi/4} S and each controlled phase e^{-i theta/4} C(theta),
        # bit-reversed; every quvis2 and quvis3 target must agree with it
        def h(q, n):
            return embed(hadamard(), (q,), n)

        def cphase(theta):
            return np.exp(-1j * theta / 4) * controlled_phase(theta).matrix

        def phase_swap(p):
            swap = np.exp(1j * np.pi / 4) * swap2().matrix
            return swap @ cphase(np.pi / 2 ** p)

        def on(u, pos, n):
            return embed(Gate("g", u), pos, n)

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


def compiled_matrix(iset, n):
    _total, steps = compile_qft(iset, n)
    return compose(n, ((gate, pos) for _name, gate, pos in steps))


def placed(iset, n):
    return [(g, pos) for g, _gate, pos in compile_qft(iset, n)[1]]


def quvis3_reference(n):
    """The 3-qubit set's Fourier lowering as placement rules: per stage of
    width j = n..4, u2, then u_m on (m-1, m, m+1) for even m up to j-1,
    then u_{j-1} on (j-1, j) when j is even; the base u1 and one swap."""
    out = []
    for j in range(n, 3, -1):
        out.append(("u2", (1, 2, 3)))
        last_even = j - 1 if j % 2 == 1 else j - 2
        for m in range(4, last_even + 1, 2):
            out.append((f"u{m}", (m - 1, m, m + 1)))
        if j % 2 == 0:
            out.append((f"u{j - 1}", (j - 1, j)))
    return out + [("u1", (1, 2, 3)), (SWAP_GATE_ID, (1, 2))]


def quvis2_reference(n):
    """The 2-qubit set's Fourier lowering as placement rules: per stage of
    width j = n..3, w1, then v_p on (p, p+1) for p = 2..j-1; the base u0
    and one swap."""
    out = []
    for j in range(n, 2, -1):
        out.append(("w1", (1, 2)))
        out.extend((f"v{p}", (p, p + 1)) for p in range(2, j))
    return out + [("u0", (1, 2)), (SWAP_GATE_ID, (1, 2))]


class TestQftComposition:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_quvis3_composition(self, n):
        dist = np.linalg.norm(compiled_matrix(quvis3_set(), n)
                              - qft_matrix(n).matrix)
        assert dist <= 1e-9

    @pytest.mark.parametrize("n", range(3, 10))
    def test_quvis2_composition(self, n):
        dist = np.linalg.norm(compiled_matrix(quvis2_set(), n)
                              - qft_matrix(n).matrix)
        assert dist <= 1e-9

    @pytest.mark.parametrize("n", range(2, 8))
    def test_qumis_composition(self, n):
        placements, _t = compile_qft_qumis(n)
        dist = np.linalg.norm(compose_qumis(placements, n)
                              - qft_matrix(n).matrix)
        assert dist <= 1e-9
        dist = np.linalg.norm(compiled_matrix(instruction_set(QUMIS), n)
                              - qft_matrix(n).matrix)
        assert dist <= 1e-9

    def test_two_qubits_on_the_variational_sets(self):
        for iset in (quvis3_set(), quvis2_set()):
            assert placed(iset, 2) == [("u0", (1, 2)),
                                           (SWAP_GATE_ID, (1, 2))]
            dist = np.linalg.norm(compiled_matrix(iset, 2)
                                  - qft_matrix(2).matrix)
            assert dist <= 1e-9

    def test_out_of_range(self):
        for name in (QUVIS3, QUVIS2, QUMIS):
            iset = instruction_set(name)
            for n in (1, MAX_QUBITS + 1):
                with pytest.raises(OutOfRange, match=f"on {n} qubits"):
                    compile_qft(iset, n)

    def test_width_must_be_an_integer(self):
        with pytest.raises(OutOfRange, match="on 3.0 qubits is not an "
                                             "integer"):
            qft_steps(3.0)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_lowering_matches_placement_rules(self, n):
        assert lower(quvis3_set(), qft_steps(n)) == quvis3_reference(n)
        assert lower(quvis2_set(), qft_steps(n)) == quvis2_reference(n)

    def test_views_are_compile_qft(self):
        for n in (2, 5, 9):
            for name, view in ((QUVIS3, compile_qft_quvis),
                               (QUVIS2, compile_qft_quvis2)):
                circ = view(n)
                total, _steps = compile_qft(instruction_set(name), n)
                assert circ.n_qubits == n and circ.total_time == total
                assert list(circ.placements) == placed(
                    instruction_set(name), n)
            ops, total = compile_qft_qumis(n)
            got_total, steps = compile_qft(instruction_set(QUMIS), n)
            assert total == got_total
            assert [(k, pos) for k, _p, pos in ops] == [
                (k, pos) for k, _g, pos in steps]

    def test_each_row_lowers_to_its_gate(self):
        # every set covers its own rows with one gate each, and the
        # baseline's expansion of every row composes to that row's gate
        for name in (QUVIS3, QUVIS2, QUMIS):
            for gid, eg in instruction_set(name).gates.items():
                row, width = GATE_STEPS[gid], eg.gate.n_qubits
                assert lower(instruction_set(name), row) == [
                    (gid, tuple(range(1, width + 1)))], (name, gid)
                exact = compose_qumis(qumis_lower(row), width)
                assert np.abs(exact - eg.gate.matrix).max() <= 1e-12, gid

    def test_uncovered_step_is_named(self):
        cases = ((quvis3_set(), ("cnot", None, (1, 2)), "cnot on wires (1, 2)"),
                 (quvis2_set(), ("h", None, (2,)), "h on wires (2,)"))
        for iset, step, where in cases:
            match = f"{iset.kind} .*{re.escape(where)}"
            with pytest.raises(UnknownGate, match=match):
                lower(iset, [step])

    def test_recursion_gate_ids(self):
        ids5 = [g for g, _ in placed(quvis3_set(), 5)]
        ids4 = [g for g, _ in placed(quvis3_set(), 4)]
        # the width-5 circuit is the width-5 stage plus the width-4 circuit
        assert ids5[:2] == ["u2", "u4"]
        assert ids5[2:] == ids4

    def test_width_bound(self):
        for n in range(3, 10):
            iset3 = quvis3_set()
            for gate_id, pos in placed(iset3, n):
                assert iset3[gate_id].gate.n_qubits <= 3
                assert len(pos) == iset3[gate_id].gate.n_qubits
            iset2 = quvis2_set()
            for gate_id, pos in placed(iset2, n):
                assert iset2[gate_id].gate.n_qubits <= 2

    def test_cost_additivity(self):
        iset = quvis3_set()
        t4, _steps = compile_qft(iset, 4)
        c4 = placed(iset, 4)
        total = sum(iset[g].time_cost for g, _ in c4)
        assert t4 == pytest.approx(total)
        # width-4 circuit = width-4 stage + width-3 circuit
        t3, _steps = compile_qft(iset, 3)
        stage = [g for g, _ in c4][:2]
        assert t4 == pytest.approx(
            sum(iset[g].time_cost for g in stage) + t3)


def random_gate(rng, width):
    """A Haar-like random unitary on width qubits, exact only to rounding,
    like a realized gate."""
    d = 2 ** width
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return Gate(f"r{width}", q * (np.diag(r) / abs(np.diag(r))))


class TestFusedCompose:
    def test_width_is_checked_before_any_work(self):
        for n in (0, -1, 2.0, MAX_QUBITS + 1):
            with pytest.raises(OutOfRange, match=f"register width {n} "):
                compose(n, [])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_runs_match_the_step_by_step_product(self, n):
        # 1-, 2- and 3-wire realized and exact gates anywhere on the
        # register, the last wires included, and 4-wire steps, wider than
        # any window, where they fit. Over 200 seeds of such runs the
        # largest entry difference from the step-by-step product measured
        # 6.1e-16 at one and at two BLAS threads.
        rng = np.random.default_rng(100 + n)
        exact = [hadamard(), rotation("x", 0.3), cnot(), swap2()]
        for _trial in range(5):
            steps = []
            for _ in range(30):
                width = int(rng.integers(1, min(n, 4) + 1))
                first = int(rng.integers(1, n - width + 2))
                gate = random_gate(rng, width)
                if rng.random() < 0.3 and width <= 2:
                    gate = exact[int(rng.integers(2)) + 2 * (width - 1)]
                steps.append((gate, tuple(range(first, first + width))))
            steps.append((random_gate(rng, min(n, 2)),
                          tuple(range(n - min(n, 2) + 1, n + 1))))
            ref = np.eye(2 ** n, dtype=complex)
            for gate, pos in steps:
                ref = embed(gate, pos, n) @ ref
            assert np.abs(compose(n, steps) - ref).max() <= 1e-14

    def test_steps_in_no_common_window_are_applied_as_given(self):
        # a run of one step multiplies the register by that step's own gate
        gates = [random_gate(np.random.default_rng(s), 3) for s in range(3)]
        steps = list(zip(gates, [(1, 2, 3), (3, 4, 5), (1, 2, 3)]))
        u = np.eye(32, dtype=complex)
        for gate, pos in steps:
            u = apply_gate(u, gate, pos)
        assert np.array_equal(compose(5, steps), u)

    @pytest.mark.parametrize("bad", [
        (cnot(), (3, 2)), (cnot(), (4, 5)), (cnot(), (3,)),
        (hadamard(), (0,)), (random_gate(np.random.default_rng(0), 3),
                             (2, 3, 5))])
    def test_bad_step_after_good_ones_is_named(self, bad):
        # the good steps share a window that starts at wire 2, so the bad
        # step is named by its positions on the register, not the window
        good = [(hadamard(), (2,)), (cnot(), (2, 3)), (swap2(), (3, 4))]
        with pytest.raises(BadPlacement) as expected:
            apply_gate(np.eye(16), *bad)
        with pytest.raises(BadPlacement,
                           match=f"^{re.escape(str(expected.value))}$"):
            compose(4, good + [bad])

    def test_baseline_steps_share_one_gate_per_kind_and_param(self):
        for n in (2, 5, 9):
            placements = qumis_lower(qft_steps(n))
            _total, steps = compile_qft(instruction_set(QUMIS), n)
            shared = {}
            for (kind, param, pos), (name, gate, got_pos) in zip(placements,
                                                                  steps):
                assert (name, got_pos) == (kind, pos)
                assert shared.setdefault((kind, param), gate) is gate
                assert gate.matrix.tobytes() == qumis_gate(kind,
                                                           param).matrix.tobytes()
            assert len(shared) < len(steps)


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
        with pytest.raises(UnknownGate, match="unknown placement kind "
                                              "'toffoli'"):
            qumis_gate("toffoli", None)

    def test_gate_table_steps_are_not_costed(self):
        # h and cphase compose exactly but have no rotation+CNOT cost
        assert np.array_equal(qumis_gate("h", None).matrix, hadamard().matrix)
        assert np.array_equal(qumis_gate("cphase", np.pi / 4).matrix,
                              controlled_phase(np.pi / 4).matrix)
        for step in (("h", None, (1,)), ("cphase", np.pi / 4, (1, 2))):
            with pytest.raises(UnknownGate):
                qumis_time_cost([step])

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
        eg = instruction_set(QUMIS)["cnot"]
        assert abs(np.linalg.det(eg.physical_target) - 1) <= 1e-12
        assert abs(eg.phase - np.exp(-3j * np.pi / 4)) <= 1e-15

    def test_composed_errors_match_snapped_frame_reference(self):
        iset = instruction_set(QUMIS)
        parts = {}
        for gid in ("cnot", SWAP_GATE_ID):
            u = evolve(nearest_neighbor_chain(2), load_bundled_schedule(gid))
            parts[gid] = Gate(gid, snap_frame(u, iset[gid].gate))
        for n in range(3, 10):
            placements, total = compile_qft_qumis(n)
            ref = np.eye(2 ** n, dtype=complex)
            for kind, param, pos in placements:
                if kind == "gphase":
                    ref = np.exp(1j * param) * ref
                else:
                    gate = parts.get(kind) or qumis_gate(kind, param)
                    ref = apply_gate(ref, gate, pos)
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
        # every gate of the three sets is realized by one bundled table
        # (its id, after BUNDLE_ALIASES), which runs for its time cost
        entries = [(name, gid, eg) for name in (QUVIS3, QUVIS2, QUMIS)
                   for gid, eg in instruction_set(name).gates.items()]
        assert len(entries) == 22
        for name, gid, eg in entries:
            source = BUNDLE_ALIASES.get(gid, gid)
            t = load_bundled_schedule(source).total_time
            assert t == eg.realized_schedule.total_time == eg.time_cost, \
                (name, gid, t, eg.time_cost)
        assert {BUNDLE_ALIASES.get(gid, gid) for _name, gid, _eg in entries} \
            == set(bundled_pulse_ids())


class TestRealizations:
    def test_unknown_bundled_id_lists_the_tables(self):
        with pytest.raises(UnknownGate) as info:
            load_bundled_schedule("nope")
        message = str(info.value)
        assert "'nope'" in message
        assert message.endswith(", ".join(bundled_pulse_ids()))

    def test_bundled_golden_errors(self):
        iset = quvis3_set()
        for m in range(9):
            eg = iset[f"u{m}"]
            assert eg.realized_error <= 0.1, (m, eg.realized_error)

    def test_realized_error_consistent_with_gate_error(self):
        iset = quvis3_set()
        eg = iset["u0"]
        model = nearest_neighbor_chain(2)
        recomputed = gate_error(eg.physical_target, model,
                                eg.realized_schedule)
        assert abs(recomputed - eg.realized_error) <= 1e-10

    def test_realized_close_to_circuit_gate(self):
        iset = quvis3_set()
        eg = iset["u0"]
        assert np.linalg.norm(eg.realized.matrix - eg.gate.matrix) <= 0.05

    def test_realized_is_the_circuit_frame_of_its_evolution(self):
        isets = [instruction_set(name) for name in (QUVIS3, QUVIS2, QUMIS)]
        for iset in isets:
            for gid, eg in iset.gates.items():
                sched = eg.realized_schedule
                u = evolve(nearest_neighbor_chain(sched.n_qubits), sched)
                expected = circuit_frame(u, eg.phase)
                assert np.array_equal(eg.realized.matrix, expected), gid
                assert eg.realized.n_qubits == eg.gate.n_qubits
                assert not eg.realized.matrix.flags.writeable

    def test_realization_is_derived_once_and_read_only(self):
        eg = quvis3_set()["u4"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            eg.time_cost = 1.0
        # the gate is built on first access and kept
        assert eg.realized is eg.realized
        # another set's gate shares the cached evolution, whose arrays are
        # read-only
        sched, u = instructions.bundled_evolution("u3")
        assert quvis2_set()["v3"].realized_schedule is sched
        assert not sched.values.flags.writeable and not u.flags.writeable

    def test_sets_are_built_once_and_read_only(self):
        for name in (QUVIS3, QUVIS2, QUMIS):
            iset = instruction_set(name)
            assert instruction_set(name) is iset
            gid = next(iter(iset.gates))
            with pytest.raises(TypeError):
                iset.gates[gid] = iset[gid]
            with pytest.raises(TypeError):
                del iset.gates[gid]
            for field in ("kind", "gates"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(iset, field, None)
        assert quvis3_set() is instruction_set(QUVIS3)
        assert quvis2_set() is instruction_set(QUVIS2)

    def test_baseline_gates_are_built_once_per_kind_and_param(self,
                                                              monkeypatch):
        iset = instruction_set(QUMIS)
        instructions.qumis_gate.cache_clear()
        built = []
        init = Gate.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(Gate, "__init__", counting)
        pairs = {(k, p) for k, p, _pos in qumis_lower(qft_steps(MAX_QUBITS))}
        for _ in range(2):
            compile_qft(iset, MAX_QUBITS)
            assert len(built) == len(pairs) == 30
        assert qumis_gate("rz", 0.25) is qumis_gate("rz", 0.25)

    def test_perfect_realizations_compose_to_zero_error(self, monkeypatch):
        monkeypatch.setattr(instructions.ElementaryGate, "realized",
                            property(lambda eg: eg.gate))
        perfect = quvis3_set()
        err = circuit_error_estimate(3, compile_qft(perfect, 3)[1], perfect,
                                     qft_matrix(3).matrix)
        assert err <= 1e-12

    def test_circuit_error_estimate_single_gate(self):
        iset = quvis3_set()
        steps = [("u0", iset["u0"].gate, (1, 2))]
        err = circuit_error_estimate(2, steps, iset, iset["u0"].gate.matrix)
        # distance in the circuit frame equals the physical-frame error
        assert err == pytest.approx(iset["u0"].realized_error, abs=1e-9)

    def test_circuit_error_estimate_composition_oracle(self):
        iset = quvis3_set()
        steps = compile_qft(iset, 3)[1]
        err = circuit_error_estimate(3, steps, iset, qft_matrix(3).matrix)
        # brute-force recomposition
        u = np.eye(8, dtype=complex)
        for gid, _gate, pos in steps:
            g = Gate(gid, iset[gid].realized.matrix)
            u = embed(g, pos, 3) @ u
        brute = np.linalg.norm(qft_matrix(3).matrix - u)
        assert err == pytest.approx(brute, abs=1e-12)
        assert 0 < err < 0.5
