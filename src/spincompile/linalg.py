"""Dense complex-matrix helpers.

Everything here operates on plain ``numpy`` complex arrays: the Kronecker
product, the Frobenius distance, and the divided-difference kernel of
exp(-i t H). ``evolution`` exponentiates every slice Hamiltonian through
one batched eigendecomposition, which keeps the propagators unitary to
rounding at these dimensions (<= 512); the kernel turns that same
eigenbasis into the closed-form derivative of each slice propagator.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

# Gap below which eigenvalue pairs are treated as degenerate in the
# divided-difference kernel (analytic limit instead of a 0/0 quotient).
DEGENERATE_GAP = 1e-12


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def kron(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(as_complex(a), as_complex(b))


def frobenius_distance(a, b) -> float:
    """sqrt(sum |a_jk - b_jk|^2), unnormalized."""
    a = as_complex(a)
    b = as_complex(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def loewner_kernel(eigenvalues: np.ndarray, t: float) -> np.ndarray:
    """Divided differences Phi_jk = (e^{-it l_j} - e^{-it l_k})/(l_j - l_k).

    Near-degenerate pairs (gap < DEGENERATE_GAP) take the analytic limit
    -it e^{-it l_j} to avoid catastrophic cancellation.
    """
    w = np.asarray(eigenvalues, dtype=float)
    ph = np.exp(-1j * t * w)
    dl = w[:, None] - w[None, :]
    close = np.abs(dl) < DEGENERATE_GAP
    num = ph[:, None] - ph[None, :]
    phi = np.where(close, -1j * t * ph[:, None], num / np.where(close, 1.0, dl))
    return phi

