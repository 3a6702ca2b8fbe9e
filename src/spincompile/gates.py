"""Exact matrices for target gates and circuit embedding.

Qubit 1 is the most significant bit throughout: basis index
j = q1 q2 ... qN in binary, so a gate on qubit 1 acts on the leftmost
tensor factor. Rotations follow R^alpha(theta) = exp(-i theta S^alpha)
with S = sigma/2 (half-angle matrices).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadPlacement, DimensionMismatch, OutOfRange
from .model import MAX_QUBITS, check_width

_UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class Gate:
    label: str
    matrix: np.ndarray
    n_qubits: int = field(init=False)   # read from the 2^n x 2^n matrix

    # nan, infinite or overflowing entries fail the check, without a warning
    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        n = (len(m) if m.ndim else 0).bit_length() - 1
        if n < 1 or m.shape != (2 ** n,) * 2:
            raise ValueError(f"{self.label}: matrix shape {m.shape}, not "
                             "2^n x 2^n with n >= 1")
        if not self._unitary(m):
            raise ValueError(f"{self.label}: matrix is not unitary")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "n_qubits", n)

    @staticmethod
    def _unitary(m: np.ndarray) -> bool:
        """m^H m within _UNITARITY_TOL of the identity: O(d^3)."""
        return np.linalg.norm(m.conj().T @ m - np.eye(len(m))) <= _UNITARITY_TOL


class _FourierGate(Gate):
    """A Gate whose matrix must be the unitary DFT F of its width, checked
    in O(d^2 log d): the orthonormal FFT of m's columns is F^H m, which
    must be within _UNITARITY_TOL / 3 of the identity. Then m^H m = A^H A
    with A = F^H m = 1 + E, within 2|E| + |E|^2 < _UNITARITY_TOL of the
    identity, so every matrix accepted here passes Gate's dense check."""

    @staticmethod
    def _unitary(m: np.ndarray) -> bool:
        return np.linalg.norm(np.fft.fft(m, axis=0, norm="ortho")
                              - np.eye(len(m))) <= _UNITARITY_TOL / 3


# A non-finite angle makes nan entries, which Gate rejects, without a warning.
@np.errstate(invalid="ignore")
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
    return Gate(f"r{axis}({theta:g})", m)


@np.errstate(invalid="ignore")
def controlled_phase(theta: float) -> Gate:
    """diag(1, 1, 1, e^{i theta}); phase on the |11> state."""
    m = np.diag([1, 1, 1, np.exp(1j * theta)]).astype(complex)
    return Gate(f"cphase({theta:g})", m)


@np.errstate(invalid="ignore")
def phase_gate(alpha: float) -> Gate:
    """diag(1, e^{i alpha}) on one qubit."""
    return Gate(f"phase({alpha:g})",
                np.diag([1, np.exp(1j * alpha)]).astype(complex))


def hadamard() -> Gate:
    return Gate("h", np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))


def pauli_x() -> Gate:
    return Gate("x", np.array([[0, 1], [1, 0]], dtype=complex))


def cnot() -> Gate:
    return Gate("cnot", np.eye(4, dtype=complex)[[0, 1, 3, 2]])


def swap2() -> Gate:
    return Gate("swap", np.eye(4, dtype=complex)[[0, 2, 1, 3]])


def check_placement(gate: Gate, positions, n_total: int) -> tuple:
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


def apply_gate(u: np.ndarray, gate: Gate, positions) -> np.ndarray:
    """The gate, on the given adjacent, ascending 1-based positions of an
    n-qubit register (identity elsewhere), times u, without forming the
    embedding; the register width n is read from the 2^n rows of u
    (DimensionMismatch unless n is in 1..MAX_QUBITS). ``_apply_matrix``
    multiplies once the placement is checked."""
    u = np.asarray(u)
    rows = u.shape[0] if u.ndim else 0
    n_total = rows.bit_length() - 1
    if not 1 <= n_total <= MAX_QUBITS or rows != 2 ** n_total:
        raise DimensionMismatch(f"operand has {rows} rows, not 2^n with n "
                                f"in 1..{MAX_QUBITS}")
    positions = check_placement(gate, positions, n_total)
    return _apply_matrix(u, gate.matrix, positions[0])


def _apply_matrix(u: np.ndarray, matrix: np.ndarray, first: int) -> np.ndarray:
    """matrix @ u on the adjacent wires from 1-based position first, for a
    2^k x 2^k matrix that fits there; nothing is checked.

    The rows of u are viewed as (2^(first-1), 2^k, rest) and the matrix
    multiplies the middle axis: one batched matmul at O(2^n * cols * 2^k).
    """
    view = u.reshape(2 ** (first - 1), len(matrix), -1)
    return (matrix @ view).reshape(u.shape)


def qft_matrix(n_qubits: int) -> Gate:
    """F_jk = exp(2 pi i j k / 2^N) / sqrt(2^N); OutOfRange outside
    1..MAX_QUBITS."""
    d = 2 ** check_width(n_qubits)
    j = np.arange(d)
    # each entry is one of the d roots of unity, indexed by j*k mod d in
    # exact integers so phases never wrap imprecisely
    m = np.exp(2j * np.pi * j / d)[np.outer(j, j) % d] / np.sqrt(d)
    return _FourierGate(f"qft{n_qubits}", m)


def swap_to_end_circuit(n_qubits: int) -> Gate:
    """Product of adjacent swaps (1,2)(2,3)...(N-1,N): moves the first
    qubit's state to the last wire, shifting the rest up by one.
    OutOfRange outside 2..MAX_QUBITS."""
    u = np.eye(2 ** check_width(n_qubits, 2), dtype=complex)
    sw = swap2()
    for a in range(1, n_qubits):
        u = apply_gate(u, sw, (a, a + 1))
    return Gate(f"swap_to_end{n_qubits}", u)
