"""Instruction sets and circuit lowering.

Two flavours of instruction set are built here:

* the variational sets ("quvis3" with gates up to 3 qubits, "quvis2" up
  to 2), whose elementary gates are whole sub-circuits realized directly
  by optimized pulse schedules, and
* the microinstruction baseline ("qumis"): one-qubit rotations plus CNOT,
  with the standard cost model (rotation theta/10 time units, CNOT 0.5);
  its set holds the two entangling gates its pulses realize, CNOT and
  swap, while rotations and phase factors are taken exact.

Elementary-gate matrices come in two frames. The *circuit frame* is the
textbook convention (Hadamard, controlled phase with the phase on |11>,
plain swap); compiled circuits compose exactly to the target unitary in
this frame. The *physical frame* is what a pulse schedule can actually
reach: the register convention of the bundled tables indexes basis states
with the bit values inverted, and every reachable evolution operator has
unit determinant, so swaps carry e^{i pi/4} and a controlled phase theta
carries e^{-i theta/4}. Each gate has one matrix, built in the circuit
frame; its physical target is that matrix bit-reversed and multiplied by
e^{i phi}, phi = (number of swaps) pi/4 - (sum of its controlled-phase
angles)/4; the baseline's CNOT carries e^{-3i pi/4}, the branch its
bundled table realizes. ``circuit_frame`` maps a realized unitary back.

``compile_qft`` lowers the Fourier transform onto any of the three sets
as one list of steps (name, Gate, positions), the first acting first.
``compose`` multiplies (Gate, positions) pairs out, and
``circuit_error_estimate`` composes the steps with each gate the set
holds replaced by its realized unitary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, MissingRealization, OutOfRange,
                     UnknownGate)
from .evolution import evolve
from .linalg import frobenius_distance
from .gates import (Gate, apply_gate, cnot, controlled_phase, hadamard,
                    phase_gate, place, qft_matrix, rotation, swap2)
from .model import nearest_neighbor_chain
from .schedule import PulseSchedule, read_pulse_table

QUVIS3 = "quvis3"
QUVIS2 = "quvis2"
QUMIS = "qumis"

SWAP_GATE_ID = "swap"
CNOT_TIME = 0.5
ROTATION_RATE = 10.0
SWAP_TIME = 3 * CNOT_TIME

# Synthesis time budgets for the variational gates: measured durations at
# which the optimization reaches errors of order 1e-2 on the default chain.
# A phase-swap block (swap after a controlled phase theta) cannot be reached
# in less than 1.5 - theta/(2 pi) on this chain, whatever the local fields
# (its Cartan coordinates are (pi/4, pi/4, pi/4 - theta/4)), so each
# block's duration sits on or above that bound: u3 (theta = pi/8) needs at
# least 1.4375 and gets 1.45, the next value on the 0.05 grid.
QUVIS3_TIME = {"u0": 0.3, "u1": 2.1, "u2": 2.1, "u3": 1.45, "u4": 2.4,
               "u5": 1.5, "u6": 2.4, "u7": 1.5, "u8": 2.4,
               SWAP_GATE_ID: SWAP_TIME}
# The 2-qubit set reuses the measured budgets where the same block exists
# (v3, v5, v7 equal u3, u5, u7); the remaining entries are model values
# chosen consistently with the observed linear growth of compiled circuit times.
QUVIS2_TIME = {"w1": 1.3, "v2": 1.45, "v3": 1.45, "v4": 1.5,
               "v5": 1.5, "v6": 1.5, "v7": 1.5, "v8": 1.5, "u0": 0.3,
               SWAP_GATE_ID: SWAP_TIME}


# ---------------------------------------------------------------------------
# frame conversion


def bit_reverse(matrix: np.ndarray) -> np.ndarray:
    """Conjugate by X on every qubit (basis index j -> 2^N - 1 - j)."""
    return matrix[::-1, ::-1].copy()


def _physical(gate: Gate, swaps: int, thetas=()) -> np.ndarray:
    """Physical-frame target of a gate built from swaps and controlled
    phases: e^{i phi} times its bit-reversed matrix, where each swap adds
    pi/4 and each controlled phase theta adds -theta/4 to phi."""
    phi = swaps * np.pi / 4 - sum(thetas) / 4
    return np.exp(1j * phi) * bit_reverse(gate.matrix)


# ---------------------------------------------------------------------------
# the variational gates

def _phase_swap(p: int) -> np.ndarray:
    """Adjacent-pair block: controlled phase pi/2^p followed by a swap."""
    return swap2().matrix @ controlled_phase(np.pi / 2 ** p).matrix


def _cascade_head(n: int) -> np.ndarray:
    """H on wire 1, then phase-swap blocks walking it down to wire n."""
    u = place(hadamard(), (1,), n)
    for p in range(1, n):
        u = place(Gate(f"v{p}", 2, _phase_swap(p)), (p, p + 1), n) @ u
    return u


def quvis_gate(m: int) -> Gate:
    """Circuit-frame matrix of the m-th variational gate, m in 0..8.

    u0 is the 2-qubit Fourier block without its trailing swap; u1 is the
    3-qubit Fourier transform up to one trailing adjacent swap; u2 is the
    head of the Fourier cascade (H plus the first two phase-swap blocks).
    Odd m >= 3 is a single phase-swap block; even m >= 4 stacks two
    consecutive blocks on three wires.
    """
    if not 0 <= m <= 8:
        raise OutOfRange(f"gate index {m} outside 0..8")
    if m == 0:
        u = (place(hadamard(), (2,), 2)
             @ controlled_phase(np.pi / 2).matrix
             @ place(hadamard(), (1,), 2))
        return Gate("u0", 2, u)
    if m == 1:
        u = place(swap2(), (1, 2), 3) @ qft_matrix(3).matrix
        return Gate("u1", 3, u)
    if m == 2:
        return Gate("u2", 3, _cascade_head(3))
    if m % 2 == 1:
        return Gate(f"u{m}", 2, _phase_swap(m))
    u = (place(Gate("b", 2, _phase_swap(m)), (2, 3), 3)
         @ place(Gate("a", 2, _phase_swap(m - 1)), (1, 2), 3))
    return Gate(f"u{m}", 3, u)


def _quvis_primitives(m: int):
    """(swap count, controlled-phase angles) of the m-th variational gate."""
    if m == 0:
        return 0, (np.pi / 2,)
    if m == 1:  # the cascade head plus the 2-qubit block of u0
        return 2, (np.pi / 2, np.pi / 4, np.pi / 2)
    if m == 2:
        return 2, (np.pi / 2, np.pi / 4)
    if m % 2 == 1:
        return 1, (np.pi / 2 ** m,)
    return 2, (np.pi / 2 ** (m - 1), np.pi / 2 ** m)


def quvis_gate_physical(m: int) -> np.ndarray:
    """Physical-frame target for the m-th gate (what a pulse realizes)."""
    return _physical(quvis_gate(m), *_quvis_primitives(m))


def frame_phase(gate: Gate, phys: np.ndarray) -> complex:
    """Phase s with phys = s * bit_reverse(gate.matrix)."""
    tr = np.trace(bit_reverse(gate.matrix).conj().T @ phys)
    return tr / abs(tr)


def circuit_frame(realized: np.ndarray, gate: Gate, phys: np.ndarray) -> np.ndarray:
    """Map a realized (physical-frame) unitary back to the circuit frame."""
    return bit_reverse(realized) / frame_phase(gate, phys)


# ---------------------------------------------------------------------------
# instruction sets

@dataclass
class ElementaryGate:
    gate_id: str
    gate: Gate
    time_cost: float
    physical_target: np.ndarray
    realized_schedule: PulseSchedule | None = None
    realized_error: float | None = None
    # (schedule, circuit-frame unitary) of the last evolved schedule
    _realized_cache: tuple | None = field(default=None, init=False,
                                          repr=False, compare=False)

    @property
    def width(self) -> int:
        return self.gate.n_qubits

    def realized_unitary(self) -> np.ndarray:
        """Circuit-frame unitary actually produced by the realized pulses.

        Evolved once per schedule: a schedule is immutable, so the same
        object gives the same unitary, and assigning a new
        realized_schedule evolves again. The result is read-only.
        """
        sched = self.realized_schedule
        if sched is None:
            raise MissingRealization(f"{self.gate_id} has no realized schedule")
        cache = self._realized_cache
        if cache is None or cache[0] is not sched:
            self._remember(sched, evolve(nearest_neighbor_chain(sched.n_qubits),
                                         sched))
        return self._realized_cache[1]

    def _remember(self, schedule: PulseSchedule, realized: np.ndarray) -> None:
        """Cache the circuit-frame view of schedule's evolution, realized."""
        u = circuit_frame(realized, self.gate, self.physical_target)
        u.setflags(write=False)
        self._realized_cache = (schedule, u)


@dataclass
class InstructionSet:
    kind: str
    max_width: int
    gates: dict = field(default_factory=dict)

    def add(self, eg: ElementaryGate) -> None:
        if eg.width > self.max_width:
            raise DimensionMismatch(
                f"{eg.gate_id} is {eg.width}-qubit, set width {self.max_width}")
        self.gates[eg.gate_id] = eg

    def __getitem__(self, gate_id: str) -> ElementaryGate:
        return self.gates[gate_id]


def quvis3_set() -> InstructionSet:
    iset = InstructionSet(kind=QUVIS3, max_width=3)
    for m in range(9):
        g = quvis_gate(m)
        iset.add(ElementaryGate(gate_id=g.label, gate=g,
                                time_cost=QUVIS3_TIME[g.label],
                                physical_target=_physical(
                                    g, *_quvis_primitives(m))))
    sw = swap2()
    iset.add(ElementaryGate(gate_id=SWAP_GATE_ID, gate=sw,
                            time_cost=QUVIS3_TIME[SWAP_GATE_ID],
                            physical_target=_physical(sw, 1)))
    return iset


def quvis2_set() -> InstructionSet:
    iset = InstructionSet(kind=QUVIS2, max_width=2)
    w1 = Gate("w1", 2, _phase_swap(1) @ place(hadamard(), (1,), 2))
    iset.add(ElementaryGate("w1", w1, QUVIS2_TIME["w1"],
                            physical_target=_physical(w1, 1, (np.pi / 2,))))
    for p in range(2, 9):
        g = Gate(f"v{p}", 2, _phase_swap(p))
        iset.add(ElementaryGate(f"v{p}", g, QUVIS2_TIME[f"v{p}"],
                                physical_target=_physical(
                                    g, 1, (np.pi / 2 ** p,))))
    g0 = quvis_gate(0)
    iset.add(ElementaryGate("u0", g0, QUVIS2_TIME["u0"],
                            physical_target=_physical(
                                g0, *_quvis_primitives(0))))
    sw = swap2()
    iset.add(ElementaryGate(SWAP_GATE_ID, sw, QUVIS2_TIME[SWAP_GATE_ID],
                            physical_target=_physical(sw, 1)))
    return iset


def qumis_set() -> InstructionSet:
    """The baseline's entangling gates, the ones its pulses realize;
    rotations and phase factors are taken exact (fast one-qubit controls).
    """
    iset = InstructionSet(kind=QUMIS, max_width=2)
    cx, sw = cnot(), swap2()
    iset.add(ElementaryGate("cnot", cx, CNOT_TIME,
                            physical_target=np.exp(-3j * np.pi / 4)
                            * bit_reverse(cx.matrix)))
    iset.add(ElementaryGate(SWAP_GATE_ID, sw, SWAP_TIME,
                            physical_target=_physical(sw, 1)))
    return iset


_SETS = {QUVIS3: quvis3_set, QUVIS2: quvis2_set, QUMIS: qumis_set}


def instruction_set(name: str) -> InstructionSet:
    """A new instruction set by name; UnknownGate for any other name."""
    try:
        return _SETS[name]()
    except KeyError:
        raise UnknownGate(f"unknown instruction set {name!r}; expected one "
                          f"of {', '.join(_SETS)}") from None


# ---------------------------------------------------------------------------
# compiled circuits

@dataclass(frozen=True)
class CompiledCircuit:
    target_label: str
    n_qubits: int
    placements: tuple  # ordered (gate_id, positions); first entry acts first
    total_time: float

    def steps(self, iset: InstructionSet) -> list:
        """(gate id, Gate, positions) of each placement, gates from iset."""
        return [(g, iset[g].gate, pos) for g, pos in self.placements]

    def compose(self, iset: InstructionSet) -> np.ndarray:
        """Exact-matrix composition of the placements, in placement order."""
        return compose(self.n_qubits,
                       ((iset[g].gate, pos) for g, pos in self.placements))


def compose(n_qubits: int, steps) -> np.ndarray:
    """Product of (Gate, positions) steps on an n-qubit register, the
    first acting first."""
    u = np.eye(2 ** n_qubits, dtype=complex)
    for gate, pos in steps:
        u = apply_gate(u, gate, pos, n_qubits)
    return u


def _qft_stage_quvis3(j: int):
    """Placements of the width-j cascade stage in the 3-qubit set."""
    out = [("u2", (1, 2, 3))]
    last_even = j - 1 if j % 2 == 1 else j - 2
    for m in range(4, last_even + 1, 2):
        out.append((f"u{m}", (m - 1, m, m + 1)))
    if j % 2 == 0:
        out.append((f"u{j-1}", (j - 1, j)))
    return out


def compile_qft_quvis(n_qubits: int) -> CompiledCircuit:
    """Lower the n-qubit Fourier transform onto the 3-qubit variational set.

    Stages peel one qubit at a time (widest first); the base is the
    3-qubit block u1 plus the one adjacent swap it leaves over.
    """
    if not 3 <= n_qubits <= 9:
        raise OutOfRange(f"n_qubits {n_qubits} outside 3..9")
    placements = []
    for j in range(n_qubits, 3, -1):
        placements.extend(_qft_stage_quvis3(j))
    placements.append(("u1", (1, 2, 3)))
    placements.append((SWAP_GATE_ID, (1, 2)))
    total = sum(QUVIS3_TIME[g] for g, _ in placements)
    return CompiledCircuit(target_label=f"qft{n_qubits}", n_qubits=n_qubits,
                           placements=tuple(placements), total_time=total)


def compile_qft_quvis2(n_qubits: int) -> CompiledCircuit:
    """Same lowering restricted to 2-qubit blocks: each stage opens with
    the merged Hadamard/phase-swap block w1."""
    if not 3 <= n_qubits <= 9:
        raise OutOfRange(f"n_qubits {n_qubits} outside 3..9")
    placements = []
    for j in range(n_qubits, 2, -1):
        placements.append(("w1", (1, 2)))
        for p in range(2, j):
            placements.append((f"v{p}", (p, p + 1)))
    placements.append(("u0", (1, 2)))
    placements.append((SWAP_GATE_ID, (1, 2)))
    total = sum(QUVIS2_TIME[g] for g, _ in placements)
    return CompiledCircuit(target_label=f"qft{n_qubits}", n_qubits=n_qubits,
                           placements=tuple(placements), total_time=total)


# ---------------------------------------------------------------------------
# the microinstruction baseline

def qumis_decompose_controlled_phase(theta: float):
    """Parameters and placement list realizing controlled_phase(theta)
    from z rotations, CNOTs, and a phase gate on the control.

    Returns ((alpha, theta1, theta2, theta3), placements) with
    theta1 + theta2 + theta3 = 0, so the three rotations compose to the
    identity, and the product of the sequence equals the target exactly.
    Placements are (kind, parameter, positions) with the control on the
    first listed qubit.
    """
    alpha, th1, th2, th3 = theta / 2, theta / 2, -theta / 2, 0.0
    placements = (
        ("rz", th3, (2,)),
        ("cnot", None, (1, 2)),
        ("rz", th2, (2,)),
        ("cnot", None, (1, 2)),
        ("rz", th1, (2,)),
        ("phase", alpha, (1,)),
    )
    return (alpha, th1, th2, th3), placements


_QUMIS_GATES = {
    "rz": lambda theta: rotation("z", theta),
    "rx": lambda theta: rotation("x", theta),
    "ry": lambda theta: rotation("y", theta),
    "phase": phase_gate,
    "gphase": lambda alpha: Gate(f"gphase({alpha:g})", 1,
                                 np.exp(1j * alpha) * np.eye(2), (alpha,)),
    "cnot": lambda _param: cnot(),
    SWAP_GATE_ID: lambda _param: swap2(),
}


def qumis_gate(kind: str, param) -> Gate:
    """Exact gate of a baseline placement; a global phase is e^{i param}
    times the identity on its one qubit."""
    try:
        make = _QUMIS_GATES[kind]
    except KeyError:
        raise UnknownGate(f"unknown placement kind {kind!r}") from None
    return make(param)


def compose_qumis(placements, n_total: int) -> np.ndarray:
    """Exact product of (kind, param, positions) placements, first acting
    first."""
    return compose(n_total, ((qumis_gate(kind, param), pos)
                             for kind, param, pos in placements))


def qumis_time_cost(placements) -> float:
    """Rotation |theta|/10, CNOT 0.5, swap as three CNOTs, phase factors
    are free. Hadamard placements are not accepted; lower them first."""
    total = 0.0
    for kind, param, _pos in placements:
        if kind in ("rz", "rx", "ry"):
            total += abs(param) / ROTATION_RATE
        elif kind == "cnot":
            total += CNOT_TIME
        elif kind == SWAP_GATE_ID:
            total += SWAP_TIME
        elif kind in ("phase", "gphase"):
            total += 0.0
        else:
            raise UnknownGate(f"unknown placement kind {kind!r}")
    return total


def _qumis_h(q: int):
    """Exact Hadamard: H = e^{i pi/2} Rz(pi/2) Rx(pi/2) Rz(pi/2)."""
    return [("rz", np.pi / 2, (q,)), ("rx", np.pi / 2, (q,)),
            ("rz", np.pi / 2, (q,)), ("gphase", np.pi / 2, (q,))]


def compile_qft_qumis(n_qubits: int):
    """Lower the Fourier cascade fully to rotations + CNOT.

    Returns (placements, total_time). The placement list composes exactly
    to the Fourier matrix: each cascade stage is a Hadamard followed by
    phase-swap blocks, with the controlled phase decomposed per
    qumis_decompose_controlled_phase and each swap charged as three CNOTs.
    """
    if n_qubits < 2:
        raise OutOfRange("n_qubits must be >= 2")
    placements = []
    for j in range(n_qubits, 1, -1):
        placements.extend(_qumis_h(1))
        for p in range(1, j):
            _, cp = qumis_decompose_controlled_phase(np.pi / 2 ** p)
            for kind, param, pos in cp:
                placements.append((kind, param,
                                   tuple(q + p - 1 for q in pos)))
            placements.append((SWAP_GATE_ID, None, (p, p + 1)))
    placements.extend(_qumis_h(1))
    return placements, qumis_time_cost(placements)


def compile_qft(iset: InstructionSet, n_qubits: int):
    """(total time, steps) of the n-qubit Fourier transform lowered onto
    the instruction set of iset's kind; each step is (name, Gate,
    positions), the first acting first."""
    if iset.kind == QUMIS:
        placements, total = compile_qft_qumis(n_qubits)
        return total, [(kind, qumis_gate(kind, param), pos)
                       for kind, param, pos in placements]
    lower = {QUVIS3: compile_qft_quvis, QUVIS2: compile_qft_quvis2}[iset.kind]
    circuit = lower(n_qubits)
    return circuit.total_time, circuit.steps(iset)


# ---------------------------------------------------------------------------
# realization

def circuit_error_estimate(n_qubits: int, steps, iset: InstructionSet,
                           target: np.ndarray) -> float:
    """Frobenius distance from the target to the (name, Gate, positions)
    steps composed with every gate the set holds replaced by its realized
    (imperfect) unitary; other steps, the baseline's rotations and phase
    factors, stay exact. Raises MissingRealization when a gate of the set
    has no realized schedule."""
    realized = {}
    for name, gate, _pos in steps:
        if name in iset.gates and name not in realized:
            realized[name] = Gate(name, gate.n_qubits,
                                  iset[name].realized_unitary())
    u = compose(n_qubits, ((realized.get(name, gate), pos)
                           for name, gate, pos in steps))
    return float(np.linalg.norm(target - u))


# ---------------------------------------------------------------------------
# bundled reference pulses

def bundled_pulse_ids():
    from importlib import resources

    root = resources.files("spincompile").joinpath("data/pulses")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".csv"))


def load_bundled_schedule(gate_id: str) -> PulseSchedule:
    from importlib import resources

    path = resources.files("spincompile").joinpath(f"data/pulses/{gate_id}.csv")
    return read_pulse_table(path.read_text())


# Gates that are the same block under a different id (the 2-qubit set's
# odd blocks coincide with u3/u5/u7).
BUNDLE_ALIASES = {"v3": "u3", "v5": "u5", "v7": "u7"}


def load_bundled_realizations(*isets: InstructionSet) -> InstructionSet:
    """Attach every bundled schedule whose id (after BUNDLE_ALIASES) names
    a gate of the given sets, with its error against that gate's physical
    target. Each table is read and evolved once per call, however many
    gates share it. Returns the first set."""
    available = set(bundled_pulse_ids())
    evolved = {}
    for iset in isets:
        for gate_id, eg in iset.gates.items():
            source = BUNDLE_ALIASES.get(gate_id, gate_id)
            if source not in available:
                continue
            if source not in evolved:
                sched = load_bundled_schedule(source)
                evolved[source] = (sched, evolve(
                    nearest_neighbor_chain(sched.n_qubits), sched))
            sched, u = evolved[source]
            eg.realized_schedule = sched
            eg.realized_error = frobenius_distance(eg.physical_target, u)
            eg._remember(sched, u)
    return isets[0] if isets else None
