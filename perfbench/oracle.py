"""Independent reference numerics for checking the program's outputs.

Nothing here calls spincompile's numerical code. Chain Hamiltonians are
built from np.kron Paulis, evolution is scipy.linalg.expm slice by slice,
circuits are composed by tensor contraction, the Fourier matrix is the
closed form exp(2 pi i jk / 2^N) / sqrt(2^N), and pulse tables are parsed
by a reader of its own. Gate matrices, placement lists, time costs and
targets are taken from the program as data: they define the experiment,
while the arithmetic that turns them into results is redone here.
"""

from __future__ import annotations

import numpy as np

# The tolerance the tests state for compositions and distances.
TOL = 1e-9

# Model constants of the default chain: nearest-neighbour Ising z-z
# coupling J = 2*pi, fields scaled by 2*pi and added to the coupling.
COUPLING = 2 * np.pi
FIELD_SCALE = 2 * np.pi
FIELD_SIGN = 1.0

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def spin(axis: str, site: int, n: int) -> np.ndarray:
    """S^axis = sigma^axis / 2 on one site (site 0 = most significant)."""
    op = np.eye(1, dtype=complex)
    for q in range(n):
        op = np.kron(op, _PAULI[axis] / 2 if q == site else np.eye(2))
    return op


def parse_table(text: str):
    """(total_time, values[axis, qubit, slice]) from a pulse table."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    meta = dict(tok.split("=", 1) for tok in lines[0].split(","))
    total_time, k, n = float(meta["T"]), int(meta["K"]), int(meta["N"])
    rows = np.array([[float(t) for t in ln.split(",")] for ln in lines[2:]])
    if rows.shape != (k, 2 * n):
        raise ValueError(f"table body {rows.shape}, header says K={k}, N={n}")
    return total_time, rows.T.reshape(2, n, k)


def format_table(total_time: float, values: np.ndarray) -> str:
    """Pulse-table text with every value written exactly (repr)."""
    _, n, k = values.shape
    header = [f"x{q + 1}" for q in range(n)] + [f"y{q + 1}" for q in range(n)]
    lines = [f"T={total_time!r},K={k},N={n}", ",".join(header)]
    for s in range(k):
        lines.append(",".join(repr(float(values[a, q, s]))
                              for a in range(2) for q in range(n)))
    return "\n".join(lines) + "\n"


def prefix_unitaries(values: np.ndarray, total_time: float) -> list:
    """[I, U_1, U_2 U_1, ...]: evolution after each slice, slice 1 first."""
    _, n, k = values.shape
    d = 2 ** n
    hc = np.zeros((d, d), dtype=complex)
    for q in range(n - 1):
        hc += COUPLING * spin("z", q, n) @ spin("z", q + 1, n)
    ctrl = [[spin(ax, q, n) for q in range(n)] for ax in ("x", "y")]
    from scipy.linalg import expm  # kept out of the workload's set-up

    tau = total_time / k
    u = np.eye(d, dtype=complex)
    out = [u]
    for s in range(k):
        h = hc.copy()
        for a in range(2):
            for q in range(n):
                h += FIELD_SIGN * FIELD_SCALE * values[a, q, s] * ctrl[a][q]
        u = expm(-1j * tau * h) @ u
        out.append(u)
    return out


def evolve(values: np.ndarray, total_time: float) -> np.ndarray:
    return prefix_unitaries(values, total_time)[-1]


def distance(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def dft(n: int) -> np.ndarray:
    d = 2 ** n
    j = np.arange(d)
    return np.exp(2j * np.pi * (np.outer(j, j) % d) / d) / np.sqrt(d)


def apply_gate(u: np.ndarray, gate: np.ndarray, positions, n: int) -> np.ndarray:
    """gate (on 1-based qubit positions, qubit 1 most significant) times u,
    by contracting the gate's input axes with the operator's row axes."""
    k = len(positions)
    d = 2 ** n
    axes = [p - 1 for p in positions]
    t = u.reshape((2,) * n + (d,))
    g = gate.reshape((2,) * (2 * k))
    out = np.tensordot(g, t, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes).reshape(d, d)


def compose(n: int, placements) -> np.ndarray:
    """Product of (matrix, positions) placements, first entry acting first."""
    u = np.eye(2 ** n, dtype=complex)
    for m, pos in placements:
        u = apply_gate(u, m, pos, n)
    return u


def bit_reverse(m: np.ndarray) -> np.ndarray:
    return m[::-1, ::-1]


def circuit_frame(realized, gate, physical) -> np.ndarray:
    """Realized pulse unitary in the circuit frame, with the frame phase
    read off the physical target."""
    tr = np.trace(bit_reverse(gate).conj().T @ physical)
    return bit_reverse(realized) / (tr / abs(tr))


def snapped_frame(realized, gate) -> np.ndarray:
    """Circuit-frame realized unitary with the frame phase snapped to the
    unit-determinant grid (used where no physical target is stored)."""
    flipped = bit_reverse(gate)
    d = flipped.shape[0]
    base = -np.angle(np.linalg.det(flipped)) / d
    raw = np.angle(np.trace(flipped.conj().T @ realized))
    step = 2 * np.pi / d
    phi = base + step * round((raw - base) / step)
    return bit_reverse(realized) * np.exp(-1j * phi)


# one-qubit and two-qubit matrices of the rotation+CNOT baseline

def rotation(axis: str, theta: float) -> np.ndarray:
    """exp(-i theta sigma/2) in closed form."""
    return (np.cos(theta / 2) * np.eye(2)
            - 1j * np.sin(theta / 2) * _PAULI[axis])


CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

QUMIS_CNOT_TIME = 0.5
QUMIS_ROTATION_RATE = 10.0


def qumis_matrix(kind: str, param, n_positions: int) -> np.ndarray:
    if kind in ("rx", "ry", "rz"):
        return rotation(kind[1], param)
    if kind == "phase":
        return np.diag([1, np.exp(1j * param)])
    if kind == "gphase":
        return np.exp(1j * param) * np.eye(2 ** n_positions)
    if kind == "cnot":
        return CNOT
    if kind == "swap":
        return SWAP
    raise ValueError(f"unknown placement kind {kind!r}")


def qumis_time(placements) -> float:
    """|theta|/10 per rotation, 0.5 per CNOT, three CNOTs per swap."""
    total = 0.0
    for kind, param, _pos in placements:
        if kind in ("rx", "ry", "rz"):
            total += abs(param) / QUMIS_ROTATION_RATE
        elif kind == "cnot":
            total += QUMIS_CNOT_TIME
        elif kind == "swap":
            total += 3 * QUMIS_CNOT_TIME
    return total
