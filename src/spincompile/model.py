"""Controllable spin-chain Hamiltonians.

Spin operators are spin-1/2 (S = sigma/2). The default chain couples
nearest neighbours at J = 2*pi through Ising z-z terms; a Heisenberg
variant couples all three components at the same strength. Transverse
magnetic fields enter scaled by 2*pi, with a configurable overall sign
(see ``field_sign`` below). The controls are the x and y fields on every
site, the two columns of a pulse table; the z fields are not driven.
``slice_hamiltonians`` is the one Hamiltonian builder: evolution calls it
on every slice of a schedule, ``full_hamiltonian`` on a single snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AxisViolation, DimensionMismatch, OutOfRange
from .linalg import kron
from .schedule import AXES

ISING = "ising_zz"
HEISENBERG = "heisenberg_xyz"

# Sign convention for the field terms. "fields_add": H = coupling
# + 2*pi sum_n (h^x S^x + h^y S^y + h^z S^z); "fields_subtract": the field
# terms enter with a minus sign instead. The bundled reference pulse
# tables assume the additive convention.
FIELDS_ADD = "fields_add"
FIELDS_SUBTRACT = "fields_subtract"

# Widest register: at N = 9 the control-operator stack alone is 75 MB.
MAX_QUBITS = 9

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def spin_operator(axis: str) -> np.ndarray:
    """Single-site spin-1/2 operator S^axis = sigma^axis / 2."""
    return _PAULI[axis] / 2.0


@lru_cache(maxsize=None)
def site_operator(axis: str, site: int, n_qubits: int) -> np.ndarray:
    """S^axis acting on one site of an n-qubit register (site 0 = leftmost)."""
    op = np.eye(1, dtype=complex)
    for i in range(n_qubits):
        op = kron(op, spin_operator(axis) if i == site else np.eye(2))
    op.setflags(write=False)
    return op


def check_width(n_qubits: int) -> int:
    """n_qubits, if a register that wide is supported; else OutOfRange."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise OutOfRange(f"register width {n_qubits} outside 1..{MAX_QUBITS}")
    return n_qubits


@dataclass(frozen=True)
class SpinChainModel:
    """A register of coupled spins with transverse-field control.

    couplings[n, n'] is the two-body strength between sites n and n'
    (angular frequency); it must be symmetric with zero diagonal.
    """

    n_qubits: int
    couplings: np.ndarray
    interaction: str = ISING
    field_sign: str = FIELDS_ADD

    def __post_init__(self):
        check_width(self.n_qubits)
        c = np.asarray(self.couplings, dtype=float)
        if c.shape != (self.n_qubits, self.n_qubits):
            raise DimensionMismatch(
                f"couplings shape {c.shape} for {self.n_qubits} qubits")
        if not np.allclose(c, c.T):
            raise ValueError("couplings must be symmetric")
        if np.any(np.diag(c) != 0):
            raise ValueError("self-couplings must be zero")
        if self.interaction not in (ISING, HEISENBERG):
            raise ValueError(f"unknown interaction {self.interaction!r}")
        if self.field_sign not in (FIELDS_ADD, FIELDS_SUBTRACT):
            raise ValueError(f"unknown field_sign {self.field_sign!r}")
        c.setflags(write=False)
        object.__setattr__(self, "couplings", c)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits


def nearest_neighbor_chain(n_qubits: int, j: float = 2 * np.pi,
                           interaction: str = ISING,
                           field_sign: str = FIELDS_ADD) -> SpinChainModel:
    """The default chain: J_{n,n+1} = j, everything else zero."""
    return SpinChainModel(n_qubits=n_qubits,
                          couplings=j * (np.eye(n_qubits, k=1) + np.eye(n_qubits, k=-1)),
                          interaction=interaction, field_sign=field_sign)


@dataclass(frozen=True)
class FieldSnapshot:
    """Instantaneous field amplitudes per site (dimensionless; the
    Hamiltonian scales them by 2*pi)."""

    hx: np.ndarray
    hy: np.ndarray
    hz: np.ndarray

    @classmethod
    def of(cls, hx=None, hy=None, hz=None, n_qubits=None):
        def vec(v):
            if v is None:
                return np.zeros(n_qubits)
            return np.asarray(v, dtype=float)
        if n_qubits is None:
            for v in (hx, hy, hz):
                if v is not None:
                    n_qubits = len(v)
                    break
        return cls(hx=vec(hx), hy=vec(hy), hz=vec(hz))


def coupling_hamiltonian(model: SpinChainModel) -> np.ndarray:
    """The field-free part: sum over pairs n < n' of J_{nn'} two-body terms."""
    axes = ("z",) if model.interaction == ISING else ("x", "y", "z")
    n = model.n_qubits
    h = np.zeros((model.dim, model.dim), dtype=complex)
    for a in range(n):
        for b in range(a + 1, n):
            j = model.couplings[a, b]
            if j == 0.0:
                continue
            for ax in axes:
                h += j * (site_operator(ax, a, n) @ site_operator(ax, b, n))
    return h


def control_operators(model: SpinChainModel) -> np.ndarray:
    """Stack of d H / d h[axis, n], shape (2, N, dim, dim)."""
    sign = 1.0 if model.field_sign == FIELDS_ADD else -1.0
    n = model.n_qubits
    ops = np.empty((len(AXES), n, model.dim, model.dim), dtype=complex)
    for a, ax in enumerate(AXES):
        for q in range(n):
            ops[a, q] = sign * 2 * np.pi * site_operator(ax, q, n)
    return ops


def slice_hamiltonians(model: SpinChainModel, values: np.ndarray) -> np.ndarray:
    """Shape (K, dim, dim); H_k for field amplitudes values (2, N, K)."""
    if values.shape[1] != model.n_qubits:
        raise DimensionMismatch(
            f"model has {model.n_qubits} qubits, fields {values.shape[1]}")
    # values: (2, N, K) contracted with ops (2, N, d, d) -> (K, d, d)
    hk = np.tensordot(values, control_operators(model), axes=([0, 1], [0, 1]))
    return hk + coupling_hamiltonian(model)


def full_hamiltonian(model: SpinChainModel, fields: FieldSnapshot) -> np.ndarray:
    """Coupling plus 2*pi-scaled x and y field terms, signed per
    model.field_sign; a nonzero z field is not controllable."""
    comps = {"x": fields.hx, "y": fields.hy, "z": fields.hz}
    for ax, v in comps.items():
        v = np.asarray(v, dtype=float)
        if v.shape != (model.n_qubits,):
            raise DimensionMismatch(f"{ax} fields shape {v.shape}")
        if ax not in AXES and np.any(v != 0.0):
            raise AxisViolation(f"nonzero {ax} field but axis not controllable")
    values = np.array([comps[ax] for ax in AXES], dtype=float)[:, :, None]
    return slice_hamiltonians(model, values)[0]
