"""Controllable spin-chain Hamiltonians.

Spin operators are spin-1/2 (S = sigma/2). The default chain couples
nearest neighbours at J = 2*pi through Ising z-z terms; a Heisenberg
variant couples all three components at the same strength. The controls
are the x and y fields on every site, the two columns of a pulse table,
held constant over each slice; the z fields are not driven. The field
terms add to the coupling:

    H_k = coupling + 2*pi sum_n (h^x_nk S^x_n + h^y_nk S^y_n),

the convention of the bundled pulse tables. ``slice_hamiltonians`` is the
one Hamiltonian builder; a single snapshot is its one-slice case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, OutOfRange
from .schedule import AXES

ISING = "ising_zz"
HEISENBERG = "heisenberg_xyz"

# Widest register: at N = 9 the control-operator stack alone is 75 MB.
MAX_QUBITS = 9

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@lru_cache(maxsize=None)
def site_operator(axis: str, site: int, n_qubits: int) -> np.ndarray:
    """S^axis acting on one site of an n-qubit register (site 0 = leftmost)."""
    op = np.eye(1, dtype=complex)
    for i in range(n_qubits):
        op = np.kron(op, _PAULI[axis] / 2.0 if i == site else np.eye(2))
    op.setflags(write=False)
    return op


def check_width(n: int, smallest: int = 1,
                what: str = "register width {n}") -> int:
    """n, if smallest <= n <= MAX_QUBITS; else OutOfRange reading
    "<what> outside <smallest>..MAX_QUBITS", what formatted with n."""
    if not smallest <= n <= MAX_QUBITS:
        raise OutOfRange(f"{what.format(n=n)} outside {smallest}..{MAX_QUBITS}")
    return n


@dataclass(frozen=True)
class SpinChainModel:
    """A register of coupled spins with transverse-field control.

    couplings[n, n'] is the two-body strength between sites n and n'
    (angular frequency); it must be finite and symmetric with zero
    diagonal.
    """

    n_qubits: int
    couplings: np.ndarray
    interaction: str = ISING

    def __post_init__(self):
        check_width(self.n_qubits)
        c = np.asarray(self.couplings, dtype=float)
        if c.shape != (self.n_qubits, self.n_qubits):
            raise DimensionMismatch(
                f"couplings shape {c.shape} for {self.n_qubits} qubits")
        if not np.isfinite(c).all():
            raise ValueError("couplings must be finite")
        if not np.allclose(c, c.T):
            raise ValueError("couplings must be symmetric")
        if np.any(np.diag(c) != 0):
            raise ValueError("self-couplings must be zero")
        if self.interaction not in (ISING, HEISENBERG):
            raise ValueError(f"unknown interaction {self.interaction!r}")
        c.setflags(write=False)
        object.__setattr__(self, "couplings", c)

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits


def nearest_neighbor_chain(n_qubits: int, j: float = 2 * np.pi,
                           interaction: str = ISING) -> SpinChainModel:
    """The default chain: J_{n,n+1} = j, everything else zero."""
    return SpinChainModel(n_qubits=n_qubits,
                          couplings=j * (np.eye(n_qubits, k=1) + np.eye(n_qubits, k=-1)),
                          interaction=interaction)


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
    n = model.n_qubits
    ops = np.empty((len(AXES), n, model.dim, model.dim), dtype=complex)
    for a, ax in enumerate(AXES):
        for q in range(n):
            ops[a, q] = 2 * np.pi * site_operator(ax, q, n)
    return ops


def slice_hamiltonians(model: SpinChainModel, values: np.ndarray) -> np.ndarray:
    """Shape (K, dim, dim); H_k for field amplitudes values (2, N, K)."""
    if values.shape[1] != model.n_qubits:
        raise DimensionMismatch(
            f"model has {model.n_qubits} qubits, fields {values.shape[1]}")
    # values: (2, N, K) contracted with ops (2, N, d, d) -> (K, d, d)
    hk = np.tensordot(values, control_operators(model), axes=([0, 1], [0, 1]))
    return hk + coupling_hamiltonian(model)

