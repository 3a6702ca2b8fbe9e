"""Controllable spin-chain Hamiltonians.

Spin operators are spin-1/2 (S = sigma/2). The default chain couples
nearest neighbours at J = 2*pi through Ising z-z terms; a Heisenberg
variant couples all three components at the same strength. The controls
are the x and y fields on every site, the two columns of a pulse table,
held constant over each slice; the z fields are not driven. The field
terms add to the coupling:

    H_k = coupling + 2*pi sum_n (h^x_nk S^x_n + h^y_nk S^y_n),

the convention of the bundled pulse tables. The module builds real
operators only, since the evolution solves every slice in real arithmetic.

Every operator here moves a basis state j to at most one other state: a
field on site n flips bit n, a flip-flop coupling flips two bits and the
z terms are diagonal. ``flip_pairs`` writes that bit layout down once, as
each site's partner state and spin sign; the Hamiltonians are scattered
from it, and the gradient gathers from it. ``site_operator``, the one
complex operator here, builds the same operators as dense Kronecker
products: the tests' reference.

Every slice on either coupling is real in one fixed basis. The fields act
on x and y only, so H_k commutes with Theta = X^{(x)N} K (K is complex
conjugation), and so do the z-z and x-x + y-y + z-z couplings. The
vectors (|j> + |d-1-j>)/sqrt2 and i(|j> - |d-1-j>)/sqrt2 (j < d/2) are
fixed by Theta; with them as columns j and d-1-j of W, W^dag H_k W is
real symmetric, the same W for every slice. ``real_slices`` scatters it
from the bit layout; the evolution solves Heisenberg slices this way.

On the Ising chain a slice is cheaper still, real up to diagonal phases:
with phi_n = atan2(h^y_n, h^x_n) and r_n = hypot(h^x_n, h^y_n),
h^x S^x + h^y S^y = r U S^x U^dag for U = diag(1, e^{i phi}), so
H_k = diag(u_k) H'_k diag(u_k)^dag with u_k(j) = exp(i sum_n phi_nk b_n(j))
(b_n(j) is site n's bit of basis index j, (1 - spin[n, j]) / 2) and
H'_k = coupling + 2*pi sum_n r_nk S^x_n real symmetric. H'_k commutes with
the global spin flip j <-> d-1-j, so in the basis
(|j> + |d-1-j>)/sqrt2, (|j> - |d-1-j>)/sqrt2 (j < d/2) it is two real
d/2 x d/2 blocks, ``ising_parity_blocks``. ``slice_norm_bounds`` bounds
each slice's 2-norm, on every coupling, and so that of its real forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, OutOfRange, ShapeError
from .schedule import AXES

ISING = "ising_zz"
HEISENBERG = "heisenberg_xyz"
INTERACTIONS = {"ising": ISING, "heisenberg": HEISENBERG}   # by config name
# A unit field amplitude h on site n is 2*pi h S_n: pi h on each flip entry.
FIELD_SCALE = np.pi

# Widest register: at N = 9 one d x d complex matrix is 4 MB. The gradient
# holds one per slice whole, and a chunk of slices' worth beside it; the
# real slices are scattered into their one stack, so no operator of that
# size is built or cached per site.
MAX_QUBITS = 9

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def site_operator(axis: str, site: int, n_qubits: int) -> np.ndarray:
    """S^axis acting on one site of an n-qubit register (site 0 = leftmost),
    as a dense Kronecker product: the reference the builders are checked
    against. No builder calls it."""
    op = np.eye(1, dtype=complex)
    for i in range(n_qubits):
        op = np.kron(op, _PAULI[axis] / 2.0 if i == site else np.eye(2))
    return op


@lru_cache(maxsize=MAX_QUBITS)
def flip_pairs(n_qubits: int):
    """The register's bit layout, read-only (partner, spin), each (N, dim).

    Site n is bit N-1-n of basis index j (site 0 the most significant).
    partner[n, j] = j ^ mask_n, the state that S^x_n and S^y_n couple j
    to; spin[n, j] = +1 if the bit is 0, else -1, so S^z_n is spin[n] / 2
    on the diagonal and <j ^ mask_n| S^y_n |j> = i spin[n, j] / 2.
    """
    rows = np.arange(2 ** n_qubits)
    masks = 1 << np.arange(n_qubits - 1, -1, -1)[:, None]
    partner, spin = rows ^ masks, np.where(rows & masks, -1.0, 1.0)
    for a in (partner, spin):
        a.setflags(write=False)
    return partner, spin


def check_width(n: int, smallest: int = 1,
                what: str = "register width {n}") -> int:
    """n, if it is an integer in smallest..MAX_QUBITS; else OutOfRange
    naming <what>, formatted with n."""
    if not isinstance(n, (int, np.integer)):
        raise OutOfRange(f"{what.format(n=n)} is not an integer")
    if not smallest <= n <= MAX_QUBITS:
        raise OutOfRange(f"{what.format(n=n)} outside {smallest}..{MAX_QUBITS}")
    return n


@dataclass(frozen=True)
class SpinChainModel:
    """A chain of spins with transverse-field control.

    couplings[n] is the strength of the bond between sites n and n + 1
    (angular frequency), N - 1 finite floats; no other pair is coupled.
    The model is hashable, so per-chain pieces are cached by it.
    """

    couplings: tuple
    interaction: str = ISING
    n_qubits: int = field(init=False)   # len(couplings) + 1

    def __post_init__(self):
        c = np.asarray(self.couplings, dtype=float)
        if c.ndim != 1:
            raise DimensionMismatch(f"couplings shape {c.shape}: one bond "
                                    "strength per neighbour pair")
        object.__setattr__(self, "n_qubits", check_width(len(c) + 1))
        if not np.isfinite(c).all():
            raise ValueError("couplings must be finite")
        if self.interaction not in INTERACTIONS.values():
            raise ValueError(f"unknown interaction {self.interaction!r}")
        object.__setattr__(self, "couplings", tuple(c.tolist()))

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits


def nearest_neighbor_chain(n_qubits: int, j: float = 2 * np.pi,
                           interaction: str = ISING) -> SpinChainModel:
    """The default chain: every bond at strength j."""
    return SpinChainModel((j,) * (check_width(n_qubits) - 1), interaction)


def coupling_hamiltonian(model: SpinChainModel) -> np.ndarray:
    """The field-free part, a real (dim, dim) matrix: the two-body terms
    J_n of bonds (n, n + 1).

    S^z_n S^z_n+1 is J/4 s_n s_n+1 on the diagonal. On the Heisenberg chain
    S^x_n S^x_n+1 + S^y_n S^y_n+1 moves j to j with both bits flipped, at
    J/4 (1 - s_n s_n+1): the flip-flop terms of antiparallel spins.
    """
    partner, spin = flip_pairs(model.n_qubits)
    rows = np.arange(model.dim)
    h = np.zeros((model.dim, model.dim))
    for a, bond in enumerate(model.couplings):
        quarter = bond / 4
        zz = spin[a] * spin[a + 1]
        h[rows, rows] += quarter * zz
        if model.interaction == HEISENBERG:
            h[rows, partner[a, partner[a + 1]]] += quarter * (1.0 - zz)
    return h


def check_fields(model: SpinChainModel, values: np.ndarray) -> None:
    """DimensionMismatch unless values is (2, N, K >= 1); ShapeError on a
    non-finite amplitude."""
    shape = np.shape(values)
    if len(shape) != 3 or shape[:2] != (len(AXES), model.n_qubits) \
            or shape[2] < 1:
        raise DimensionMismatch(
            f"fields of shape {shape} for a {model.n_qubits}-qubit model; "
            f"expected ({len(AXES)}, {model.n_qubits}, K >= 1)")
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(values))
        axis, site, k = bad[0]
        raise ShapeError(
            f"field amplitudes are not finite: {len(bad)} of them, the first "
            f"h^{AXES[axis]} of site {site} in slice {k}")


@lru_cache(maxsize=16)
def _parity_pieces(chain: SpinChainModel):
    """Read-only pieces of an Ising chain's parity blocks: the bits b_n(j),
    shape (N, dim), and the block operators, shape (N + 1, (dim/2)^2).

    Operator n < N is the field term of site n per unit r_n: FIELD_SCALE
    times the permutation j <-> partner[n, j] of a half (``flip_pairs``).
    Site n > 0 flips its own bit. Site 0's field joins the two halves,
    j <-> d-1-j, so in the blocks it is +J and -J times FIELD_SCALE, J
    reversing a half. Operator N is the coupling diagonal of the upper half.
    """
    n_qubits, half = chain.n_qubits, chain.dim // 2
    partner, spin = flip_pairs(n_qubits)
    flips = np.array(partner[:, :half])
    flips[0] = np.arange(half - 1, -1, -1)
    ops = np.empty((n_qubits + 1, half, half))
    ops[:n_qubits] = FIELD_SCALE * np.eye(half)[flips]
    ops[n_qubits] = np.diag(coupling_hamiltonian(chain).diagonal()[:half])
    pieces = (1.0 - spin) / 2, ops.reshape(n_qubits + 1, half * half)
    for a in pieces:
        a.setflags(write=False)
    return pieces


def ising_parity_blocks(model: SpinChainModel, values: np.ndarray):
    """(theta, blocks) of an Ising chain's slices, values (2, N, K).

    theta (K, dim) holds the frame phases, u_k = exp(i theta_k); blocks
    (K, 2, dim/2, dim/2) holds the real symmetric blocks of H'_k on the
    even and odd flip combinations.
    """
    check_fields(model, values)
    n, k_slices = model.n_qubits, values.shape[2]
    bits, ops = _parity_pieces(model)
    hx, hy = values
    theta = np.arctan2(hy, hx).T @ bits
    coef = np.empty((k_slices, 2, n + 1))
    coef[:, :, :n] = np.hypot(hx, hy).T[:, None, :]
    coef[:, 1, 0] *= -1.0
    coef[:, :, n] = 1.0
    half = model.dim // 2
    return theta, (coef @ ops).reshape(k_slices, 2, half, half)


@lru_cache(maxsize=16)
def _real_pieces(chain: SpinChainModel):
    """Read-only pieces of a chain's real slices W^dag H_k W: the coupling's,
    shape (dim, dim), and per site n the flat indices at[n] (2 dim,) its
    field reaches and their coefficients coef[n] (2, 2 dim) per unit h^x
    and h^y.

    Row j of W has 1/sqrt2 in column lo(j) = min(j, d-1-j) and
    sign(j) i/sqrt2 in column hi(j) = d-1-lo(j), sign(j) = +1 for j < d/2
    and -1 below. Theta maps entry (j, l) of H to the conjugate of
    (d-1-j, d-1-l), and the two add the same real amount to W^dag H W, so
    the upper rows a < d/2 give it whole: entry re + i im at (a, l) adds
    re at (a, lo l), sign(l) re at (d-1-a, hi l), -sign(l) im at
    (a, hi l) and im at (d-1-a, lo l). The field of site n is
    FIELD_SCALE (h^x - i spin[n, a] h^y) at (a, partner[n, a]); the
    coupling is real, so it fills only the (lo, lo) and (hi, hi) entries.
    """
    dim, half = chain.dim, chain.dim // 2
    partner, spin = flip_pairs(chain.n_qubits)
    upper = coupling_hamiltonian(chain)[:half]
    near, far = upper[:, :half], upper[:, :half - 1:-1]   # columns b, d-1-b
    coupling = np.zeros((dim, dim))
    coupling[:half, :half] = near + far
    coupling[:half - 1:-1, :half - 1:-1] = near - far
    rows, cols = np.arange(half), partner[:, :half]
    sign, flip = np.where(cols < half, 1.0, -1.0), spin[:, :half]
    lo = np.minimum(cols, dim - 1 - cols)
    hi, mirror = dim - 1 - lo, dim - 1 - rows
    at = np.concatenate([rows * dim + lo, mirror * dim + hi,
                         rows * dim + hi, mirror * dim + lo], axis=1)
    zero = np.zeros_like(sign)
    coef = FIELD_SCALE * np.stack(
        [np.concatenate([np.ones_like(sign), sign, zero, zero], axis=1),
         np.concatenate([zero, zero, sign * flip, -flip], axis=1)], axis=1)
    pieces = coupling, at, coef
    for a in pieces:
        a.setflags(write=False)
    return pieces


def real_slices(model: SpinChainModel, values: np.ndarray) -> np.ndarray:
    """W^dag H_k W (K, dim, dim), real and exactly symmetric, for field
    amplitudes values (2, N, K); W is the fixed basis of the module
    docstring. Scattered from ``_real_pieces`` with no complex
    Hamiltonian built, one site at a time, since two sites' fields can
    reach the same entry (at N = 2)."""
    check_fields(model, values)
    coupling, at, coef = _real_pieces(model)
    k_slices = values.shape[2]
    slices = np.repeat(coupling[None], k_slices, axis=0)
    flat = slices.reshape(k_slices, -1)
    for n in range(model.n_qubits):
        flat[:, at[n]] += values[:, n].T @ coef[n]
    return slices


def slice_norm_bounds(model: SpinChainModel, values: np.ndarray) -> np.ndarray:
    """Bounds (K,) on the 2-norm (the largest singular value) of each
    slice's Hamiltonian, for field amplitudes values (2, N, K): pi sum_n r_n,
    each field term being r_n FIELD_SCALE times a permutation up to phases,
    plus |J_n| / 4 per bond on the Ising chain and 3 |J_n| / 4 on the
    Heisenberg chain, the largest eigenvalue magnitude of its bond term. A
    unitary change of basis keeps the 2-norm, so this also bounds the real
    slices (``real_slices``) and the Ising parity blocks, which are
    diagonal blocks of one (``ising_parity_blocks``). The 1-norm is not
    kept: on the real Heisenberg slices it exceeds the bound. A bound
    beyond the largest float overflows to inf."""
    scale = 0.25 if model.interaction == ISING else 0.75
    return (FIELD_SCALE * np.hypot(*values).sum(axis=0)
            + scale * sum(map(abs, model.couplings)))
