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
carries e^{-i theta/4}. ``GATE_STEPS`` is the one definition of every
elementary gate of the three sets: one row of (kind, param, positions)
steps (h, cphase, swap, cnot). Its circuit-frame matrix is the product
of the steps; its physical target is that matrix bit-reversed and
multiplied by e^{i phi}, phi = (swaps) pi/4 - (sum of the controlled-phase
angles)/4 - (CNOTs) 3 pi/4, the CNOT term being the branch the
baseline's bundled table realizes. ``instruction_set`` builds each set
once per process, read-only and shared, from its time table
(``SET_TIMES``, the one list of set names) and these rows, storing each
gate's phase e^{i phi}; ``circuit_frame`` divides a realized unitary by it.

``qft_steps`` is the Fourier transform in the same steps; ``compile_qft``
lowers it onto a set by matching the set's rows (``lower``) or expanding
each step (``qumis_lower``, the baseline) into steps (name, Gate,
positions), the first acting first. ``compose`` multiplies (Gate,
positions) pairs out: each run of consecutive steps within a window as
wide as the widest row (three wires) is multiplied out on that window
and applied to the register once, as a block. ``circuit_error_estimate``
composes the steps with each gate the set holds replaced by its realized
gate. Every gate of the three sets has one bundled pulse table (its id,
after ``BUNDLE_ALIASES``), so its realization is derived from the gate:
each table is read (``load_bundled_schedule``) and evolved
(``bundled_evolution``) at most once per process, on first use, and an
``ElementaryGate`` builds its circuit-frame ``realized`` Gate from
that evolution once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from importlib import resources
from types import MappingProxyType

import numpy as np

from .errors import OutOfRange, UnknownGate
from .evolution import evolve
from .linalg import frobenius_distance
from .gates import (Gate, _apply_matrix, check_placement, cnot,
                    controlled_phase, hadamard, phase_gate, rotation, swap2)
from .model import check_width, nearest_neighbor_chain
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
# set name -> {gate id: time cost} for every set, its gates in order
SET_TIMES = {QUVIS3: QUVIS3_TIME, QUVIS2: QUVIS2_TIME,
             QUMIS: {"cnot": CNOT_TIME, SWAP_GATE_ID: SWAP_TIME}}


# ---------------------------------------------------------------------------
# frame conversion


def bit_reverse(matrix: np.ndarray) -> np.ndarray:
    """Conjugate by X on every qubit (basis index j -> 2^N - 1 - j)."""
    return matrix[::-1, ::-1].copy()


# ---------------------------------------------------------------------------
# the elementary gates

def _ps(p: int, q: int = 1):
    """Phase-swap block on wires (q, q+1): controlled phase pi/2^p, then
    a swap."""
    return (("cphase", np.pi / 2 ** p, (q, q + 1)),
            (SWAP_GATE_ID, None, (q, q + 1)))


_H1 = (("h", None, (1,)),)
_HEAD = _H1 + _ps(1) + _ps(2, 2)        # the head of the Fourier cascade
_U0 = _H1 + (("cphase", np.pi / 2, (1, 2)), ("h", None, (2,)))

# gate id -> steps: the one definition of every elementary gate, in
# (kind, param, positions) steps, the first acting first, from wire 1 to
# the gate's width. u0 is the 2-qubit Fourier block without its trailing
# swap, u1 the 3-qubit Fourier transform up to one trailing adjacent swap,
# u2 the cascade head; odd u >= 3 and every v are one phase-swap block,
# even u >= 4 stack two.
GATE_STEPS = {
    "u0": _U0, "u1": _HEAD + _U0, "u2": _HEAD,
    **{f"u{m}": _ps(m) for m in (3, 5, 7)},
    **{f"u{m}": _ps(m - 1) + _ps(m, 2) for m in (4, 6, 8)},
    **{f"v{p}": _ps(p) for p in range(2, 9)},
    "w1": _H1 + _ps(1),
    SWAP_GATE_ID: ((SWAP_GATE_ID, None, (1, 2)),),
    "cnot": (("cnot", None, (1, 2)),),
}


def qft_steps(n_qubits: int) -> tuple:
    """The n-qubit Fourier transform in (kind, param, positions) steps,
    the first acting first: per width j = n..3 a Hadamard on wire 1 and
    the phase-swap blocks pi/2^p on wires (p, p+1), p = 1..j-1; then u0
    and one swap. OutOfRange outside 2..MAX_QUBITS."""
    check_width(n_qubits, 2, "Fourier transform on {n} qubits")
    steps = ()
    for j in range(n_qubits, 2, -1):
        steps += _H1 + sum((_ps(p, p) for p in range(1, j)), ())
    return steps + _U0 + GATE_STEPS[SWAP_GATE_ID]


def _elementary(gate_id: str, time_cost: float) -> ElementaryGate:
    """The gate of a row of GATE_STEPS: its circuit-frame Gate and its
    frame phase e^{i phi}, phi by the phase rule of the module docstring."""
    steps = GATE_STEPS[gate_id]
    gate = Gate(gate_id, compose_qumis(steps, max(p[-1] for *_, p in steps)))
    kinds = [kind for kind, _param, _pos in steps]
    phi = (kinds.count(SWAP_GATE_ID) * np.pi / 4
           - sum(param for kind, param, _pos in steps if kind == "cphase") / 4
           - kinds.count("cnot") * 3 * np.pi / 4)
    return ElementaryGate(gate, time_cost, np.exp(1j * phi))


def circuit_frame(realized: np.ndarray, phase: complex) -> np.ndarray:
    """Map a realized (physical-frame) unitary back to the circuit frame of
    a gate whose frame phase is phase."""
    return bit_reverse(realized) / phase


def _quvis(m: int) -> ElementaryGate:
    if not 0 <= m <= 8:
        raise OutOfRange(f"gate index {m} outside 0..8")
    return instruction_set(QUVIS3)[f"u{m}"]


def quvis_gate(m: int) -> Gate:
    """Circuit-frame matrix of the m-th variational gate, m in 0..8."""
    return _quvis(m).gate


def quvis_gate_physical(m: int) -> np.ndarray:
    """Physical-frame target for the m-th gate (what a pulse realizes)."""
    return _quvis(m).physical_target


# ---------------------------------------------------------------------------
# instruction sets

@dataclass(frozen=True)
class ElementaryGate:
    """A gate of an instruction set. Its realization is the bundled table
    named by its gate id (after BUNDLE_ALIASES), evolved on the default
    chain; the table is evolved on first use, and realized is built once."""

    gate: Gate
    time_cost: float
    phase: complex  # e^{i phi}, the frame phase of the physical target

    @property
    def physical_target(self) -> np.ndarray:
        return self.phase * bit_reverse(self.gate.matrix)

    @property
    def _evolved(self) -> tuple:
        gate_id = self.gate.label
        return bundled_evolution(BUNDLE_ALIASES.get(gate_id, gate_id))

    @property
    def realized_schedule(self) -> PulseSchedule:
        return self._evolved[0]

    @property
    def realized_error(self) -> float:
        """Distance from the physical target to the realized evolution."""
        return frobenius_distance(self.physical_target, self._evolved[1])

    @cached_property
    def realized(self) -> Gate:
        """Circuit-frame gate of realized_schedule's evolution."""
        return Gate(self.gate.label,
                    circuit_frame(self._evolved[1], self.phase))


@dataclass(frozen=True)
class InstructionSet:
    """A set's gates by id, read-only: every caller shares the set."""

    kind: str
    gates: MappingProxyType   # gate id -> ElementaryGate

    def __getitem__(self, gate_id: str) -> ElementaryGate:
        return self.gates[gate_id]


@lru_cache(maxsize=None)
def instruction_set(name: str) -> InstructionSet:
    """The instruction set of that name, built once per process and
    shared by every caller; UnknownGate for any other name.

    The baseline ("qumis") holds the two entangling gates its pulses
    realize; its rotations and phase factors are taken exact.
    """
    try:
        times = SET_TIMES[name]
    except KeyError:
        raise UnknownGate(f"unknown instruction set {name!r}; expected one "
                          f"of {', '.join(SET_TIMES)}") from None
    return InstructionSet(name, MappingProxyType(
        {gid: _elementary(gid, cost) for gid, cost in times.items()}))


quvis3_set = partial(instruction_set, QUVIS3)
quvis2_set = partial(instruction_set, QUVIS2)


# ---------------------------------------------------------------------------
# compiled circuits

# the widest elementary gate: compose multiplies runs of steps out on
# windows of this many adjacent wires before they touch the register
_WINDOW = max(p[-1] for row in GATE_STEPS.values() for *_, p in row)


def _block(run, lo: int, hi: int) -> tuple:
    """(matrix, first position) of a run of (matrix, first position)
    pairs of placed steps, which together span wires lo..hi: the one
    step's own pair, or the run multiplied out on those wires. The steps
    are checked and unitary, so their product is used as it is."""
    if len(run) == 1:
        return run[0]
    block = np.eye(2 ** (hi - lo + 1), dtype=complex)
    for matrix, first in run:
        block = _apply_matrix(block, matrix, first - lo + 1)
    return block, lo


def compose(n_qubits: int, steps) -> np.ndarray:
    """Product of (Gate, positions) steps on an n-qubit register, the
    first acting first. Each run of consecutive steps that spans at most
    three adjacent wires (the widest GATE_STEPS row) is multiplied out on
    those wires first and applied to the register once; a wider step is
    applied on its own. The run's wires lo..hi are tracked as steps join
    it, and ``_block`` is handed that window.
    OutOfRange unless n_qubits is in 1..MAX_QUBITS; BadPlacement names the
    first step that does not fit the register."""
    u = np.eye(2 ** check_width(n_qubits), dtype=complex)
    run, lo, hi = [], 0, 0
    for gate, pos in steps:
        pos = check_placement(gate, pos, n_qubits)
        if run and max(hi, pos[-1]) - min(lo, pos[0]) >= _WINDOW:
            u = _apply_matrix(u, *_block(run, lo, hi))
            run = []
        lo, hi = ((min(lo, pos[0]), max(hi, pos[-1])) if run
                  else (pos[0], pos[-1]))
        run.append((gate.matrix, pos[0]))
    if run:
        u = _apply_matrix(u, *_block(run, lo, hi))
    return u


def lower(iset: InstructionSet, steps) -> list:
    """(gate id, positions) placements of iset's gates covering the
    (kind, param, positions) steps in order, each the longest GATE_STEPS
    row among the set's gates (the first on a tie) that the next steps
    repeat on some wire offset. UnknownGate names a step none covers."""
    steps, placements, i = tuple(steps), [], 0
    longest_first = sorted(iset.gates, key=lambda g: -len(GATE_STEPS[g]))
    while i < len(steps):
        kind, param, pos = steps[i]
        for gid in longest_first:
            row = GATE_STEPS[gid]
            shift = pos[0] - row[0][2][0]
            if row[0][:2] == (kind, param) and steps[i:i + len(row)] == tuple(
                    (k, p, tuple(q + shift for q in ps)) for k, p, ps in row):
                break
        else:
            raise UnknownGate(f"no gate of {iset.kind} covers step {kind} "
                              f"on wires {pos}")
        width = iset[gid].gate.n_qubits
        placements.append((gid, tuple(range(shift + 1, shift + width + 1))))
        i += len(row)
    return placements


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
    "gphase": lambda alpha: Gate(f"gphase({alpha:g})",
                                 np.exp(1j * alpha) * np.eye(2)),
    "h": lambda _param: hadamard(),
    "cphase": controlled_phase,
    "cnot": lambda _param: cnot(),
    SWAP_GATE_ID: lambda _param: swap2(),
}


# Bounded, since any angle is a key: the Fourier transform on MAX_QUBITS,
# lowered by qumis_lower, reads 30 (kind, param) pairs, the GATE_STEPS
# rows 9 more.
@lru_cache(maxsize=64)
def qumis_gate(kind: str, param) -> Gate:
    """Exact gate of a baseline placement, built once per (kind, param)
    and shared; a global phase is e^{i param} times the identity on its
    one qubit."""
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
    """Rotation |theta|/10, CNOT and swap at the set's time costs, phase
    factors free. Hadamard and controlled-phase placements are not
    accepted; lower them first."""
    times = SET_TIMES[QUMIS]
    total = 0.0
    for kind, param, _pos in placements:
        if kind in ("rz", "rx", "ry"):
            total += abs(param) / ROTATION_RATE
        elif kind in times:
            total += times[kind]
        elif kind not in ("phase", "gphase"):
            raise UnknownGate(f"unknown placement kind {kind!r}")
    return total


def qumis_lower(steps) -> list:
    """The baseline's placements of (kind, param, positions) steps: h as
    the exact H = e^{i pi/2} Rz(pi/2) Rx(pi/2) Rz(pi/2), cphase by
    qumis_decompose_controlled_phase, any other step as itself."""
    placements = []
    for kind, param, pos in steps:
        if kind == "h":
            placements.extend((k, np.pi / 2, pos)
                              for k in ("rz", "rx", "rz", "gphase"))
        elif kind == "cphase":
            _params, cp = qumis_decompose_controlled_phase(param)
            placements.extend((k, a, tuple(pos[q - 1] for q in p))
                              for k, a, p in cp)
        else:
            placements.append((kind, param, pos))
    return placements


def compile_qft(iset: InstructionSet, n_qubits: int):
    """(total time, steps) of qft_steps(n_qubits) lowered onto iset, by
    lower or, for the baseline, qumis_lower; each step is (name, Gate,
    positions), the first acting first."""
    steps = qft_steps(n_qubits)
    if iset.kind == QUMIS:
        placements = qumis_lower(steps)
        return qumis_time_cost(placements), [
            (k, qumis_gate(k, p), pos) for k, p, pos in placements]
    placements = lower(iset, steps)
    return (sum(iset[g].time_cost for g, _pos in placements),
            [(g, iset[g].gate, pos) for g, pos in placements])


# views of compile_qft in the forms perfbench's qft_compile oracle reads

@dataclass(frozen=True)
class CompiledCircuit:
    n_qubits: int
    placements: tuple  # ordered (gate_id, positions); first entry acts first
    total_time: float


def _compiled(name: str, n_qubits: int) -> CompiledCircuit:
    total, steps = compile_qft(instruction_set(name), n_qubits)
    return CompiledCircuit(n_qubits, tuple((g, p) for g, _gate, p in steps),
                           total)


compile_qft_quvis = partial(_compiled, QUVIS3)
compile_qft_quvis2 = partial(_compiled, QUVIS2)


def compile_qft_qumis(n_qubits: int):
    placements = qumis_lower(qft_steps(n_qubits))
    return placements, qumis_time_cost(placements)


# ---------------------------------------------------------------------------
# realization

def circuit_error_estimate(n_qubits: int, steps, iset: InstructionSet,
                           target: np.ndarray) -> float:
    """Frobenius distance from the target to the (name, Gate, positions)
    steps composed with every gate the set holds replaced by its realized
    (imperfect) gate; other steps, the baseline's rotations and phase
    factors, stay exact.

    Each realization is its table evolved on a chain of the gate's own
    width, applied with the identity on every other wire. So the estimate
    assumes that, while a gate runs, every bond outside it is off and the
    other sites are idle. A replay of the lowered circuits on the full
    chain with every bond on at 2 pi found that no set's compiled Fourier
    transform keeps any trace of the target: at N = 6 each set's error is
    11.3, sqrt(2 d), the distance of a unitary uncorrelated with it."""
    realized = ((iset[name].realized if name in iset.gates else gate, pos)
                for name, gate, pos in steps)
    return frobenius_distance(target, compose(n_qubits, realized))


# ---------------------------------------------------------------------------
# bundled reference pulses

_PULSE_DIR = resources.files("spincompile").joinpath("data/pulses")


def bundled_pulse_ids():
    return sorted(p.name[:-4] for p in _PULSE_DIR.iterdir()
                  if p.name.endswith(".csv"))


@lru_cache(maxsize=None)
def load_bundled_schedule(gate_id: str) -> PulseSchedule:
    """The bundled table of that id, read and parsed once per process and
    shared (a PulseSchedule is immutable); UnknownGate, which is not
    cached, for any id that is not one of bundled_pulse_ids(), so no other
    file is read or kept."""
    ids = bundled_pulse_ids()
    if gate_id not in ids:
        raise UnknownGate(f"no bundled pulse table {gate_id!r}; expected one "
                          f"of {', '.join(ids)}")
    return read_pulse_table(_PULSE_DIR.joinpath(f"{gate_id}.csv").read_text())


# Gates that are the same block under a different id (the 2-qubit set's
# odd blocks coincide with u3/u5/u7).
BUNDLE_ALIASES = {"v3": "u3", "v5": "u5", "v7": "u7"}


@lru_cache(maxsize=None)
def bundled_evolution(table_id: str) -> tuple:
    """(schedule, evolution operator) of a bundled table on the default
    chain of its width, read and evolved once per process; both arrays are
    read-only."""
    sched = load_bundled_schedule(table_id)
    u = evolve(nearest_neighbor_chain(sched.n_qubits), sched)
    u.setflags(write=False)
    return sched, u
