"""Exact matrices for target gates and circuit embedding.

Qubit 1 is the most significant bit throughout: basis index
j = q1 q2 ... qN in binary, so a gate on qubit 1 acts on the leftmost
tensor factor. Rotations follow R^alpha(theta) = exp(-i theta S^alpha)
with S = sigma/2 (half-angle matrices).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadPlacement, DimensionMismatch, OutOfRange

_UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class Gate:
    label: str
    n_qubits: int
    matrix: np.ndarray
    params: tuple = ()

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = 2 ** self.n_qubits
        if m.shape != (d, d):
            raise ValueError(f"{self.label}: matrix shape {m.shape} for "
                             f"{self.n_qubits} qubits")
        if np.linalg.norm(m.conj().T @ m - np.eye(d)) > 1e-10:
            raise ValueError(f"{self.label}: matrix is not unitary")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def rotation(axis: str, theta: float) -> Gate:
    """exp(-i theta S^axis), a single-qubit half-angle rotation."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    if axis == "x":
        m = np.array([[c, -1j * s], [-1j * s, c]])
    elif axis == "y":
        m = np.array([[c, -s], [s, c]])
    elif axis == "z":
        m = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
    else:
        raise OutOfRange(f"unknown axis {axis!r}")
    return Gate(label=f"r{axis}({theta:g})", n_qubits=1, matrix=m,
                params=(theta,))


def controlled_phase(theta: float) -> Gate:
    """diag(1, 1, 1, e^{i theta}); phase on the |11> state."""
    m = np.diag([1, 1, 1, np.exp(1j * theta)]).astype(complex)
    return Gate(label=f"cphase({theta:g})", n_qubits=2, matrix=m,
                params=(theta,))


def phase_gate(alpha: float) -> Gate:
    """diag(1, e^{i alpha}) on one qubit."""
    return Gate(label=f"phase({alpha:g})", n_qubits=1,
                matrix=np.diag([1, np.exp(1j * alpha)]).astype(complex),
                params=(alpha,))


def hadamard() -> Gate:
    m = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return Gate(label="h", n_qubits=1, matrix=m)


def pauli_x() -> Gate:
    return Gate(label="x", n_qubits=1,
                matrix=np.array([[0, 1], [1, 0]], dtype=complex))


def cnot() -> Gate:
    m = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    return Gate(label="cnot", n_qubits=2, matrix=m)


def swap2() -> Gate:
    m = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    return Gate(label="swap", n_qubits=2, matrix=m)


def _check_placement(gate: Gate, positions, n_total: int) -> tuple:
    """Validated 1-based positions of a gate in an n_total-qubit register:
    adjacent and ascending, since the chain couples only neighbours."""
    positions = tuple(int(p) for p in positions)
    if len(positions) != gate.n_qubits:
        raise BadPlacement(f"{gate.label}: {len(positions)} positions for a "
                           f"{gate.n_qubits}-qubit gate")
    if any(p < 1 or p > n_total for p in positions):
        raise BadPlacement(f"positions {positions} outside 1..{n_total}")
    if positions != tuple(range(positions[0], positions[0] + len(positions))):
        raise BadPlacement(f"positions {positions} are not adjacent and "
                           f"ascending")
    return positions


def apply_gate(u: np.ndarray, gate: Gate, positions, n_total: int) -> np.ndarray:
    """place(gate, positions, n_total) @ u without forming the embedding.

    The rows of u are viewed as (2^(p-1), 2^k, rest) for a k-qubit gate
    whose first position is p, and the gate multiplies the middle axis:
    one batched matmul at O(2^n_total * cols * 2^k).
    """
    positions = _check_placement(gate, positions, n_total)
    u = np.asarray(u)
    if u.shape[0] != 2 ** n_total:
        raise DimensionMismatch(f"operand has {u.shape[0]} rows, register "
                                f"of {n_total} qubits needs {2 ** n_total}")
    view = u.reshape(2 ** (positions[0] - 1), 2 ** gate.n_qubits, -1)
    return (gate.matrix @ view).reshape(u.shape)


def place(gate: Gate, positions, n_total: int) -> np.ndarray:
    """Embed a gate into an n_total-qubit register on the given adjacent,
    ascending 1-based qubit positions (identity elsewhere)."""
    return apply_gate(np.eye(2 ** n_total, dtype=complex), gate, positions,
                      n_total)


def qft_matrix(n_qubits: int) -> Gate:
    """F_jk = exp(2 pi i j k / 2^N) / sqrt(2^N)."""
    if n_qubits < 1:
        raise OutOfRange("n_qubits must be >= 1")
    d = 2 ** n_qubits
    j = np.arange(d)
    # reduce j*k mod d in exact integers so phases never wrap imprecisely
    m = np.exp(2j * np.pi * (np.outer(j, j) % d) / d) / np.sqrt(d)
    return Gate(label=f"qft{n_qubits}", n_qubits=n_qubits, matrix=m)


def swap_to_end_circuit(n_qubits: int) -> Gate:
    """Product of adjacent swaps (1,2)(2,3)...(N-1,N): moves the first
    qubit's state to the last wire, shifting the rest up by one."""
    if n_qubits < 2:
        raise OutOfRange("need at least 2 qubits")
    u = np.eye(2 ** n_qubits, dtype=complex)
    sw = swap2()
    for a in range(1, n_qubits):
        u = apply_gate(u, sw, (a, a + 1), n_qubits)
    return Gate(label=f"swap_to_end{n_qubits}", n_qubits=n_qubits, matrix=u)
