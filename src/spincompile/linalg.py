"""Dense complex-matrix helpers.

Everything here operates on plain ``numpy`` complex arrays: the Frobenius
distance between two matrices, the Frobenius norms of a stack in one
reduction (``frobenius_norms``: the dot products that ``np.linalg.norm``
takes on each matrix alone, so each norm is the same bits), and the
divided-difference kernel of exp(-i t H). The gradient in ``evolution``
exponentiates every slice Hamiltonian through one batched real
eigendecomposition of its real symmetric blocks, which keeps the
propagators unitary to rounding at these dimensions (<= 512), and the
kernel turns that same eigenbasis into the closed-form derivative of each
slice propagator. The forward path reads no eigenbasis, and on both
couplings it builds the propagators from a scaled Taylor polynomial
instead.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

# Gap below which eigenvalue pairs are treated as degenerate in the
# divided-difference kernel (analytic limit instead of a 0/0 quotient).
DEGENERATE_GAP = 1e-12


def frobenius_norms(x: np.ndarray) -> np.ndarray:
    """sqrt(sum |x_jk|^2) of each matrix of a complex stack x (..., d, d),
    an array of shape x.shape[:-2]: the sums of squares of the real and
    imaginary parts in one ``np.vecdot`` each over the flattened matrices,
    the dot products ``np.linalg.norm`` takes on one matrix."""
    flat = x.reshape(*x.shape[:-2], -1)
    return np.sqrt(np.vecdot(flat.real, flat.real)
                   + np.vecdot(flat.imag, flat.imag))


def frobenius_distance(a, b) -> float:
    """sqrt(sum |a_jk - b_jk|^2), unnormalized, as a float: the same bits
    as ``np.linalg.norm(a - b)``. DimensionMismatch unless a and b are
    matrices of one shape; ``frobenius_norms`` reads a stack."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.shape != a.shape:
        raise DimensionMismatch(f"shape {a.shape} vs {b.shape}")
    return float(frobenius_norms(b - a))


def loewner_kernel(eigenvalues: np.ndarray, t: float) -> np.ndarray:
    """Divided differences Phi_jk = (e^{-it l_j} - e^{-it l_k})/(l_j - l_k).

    Near-degenerate pairs (gap < DEGENERATE_GAP) take the analytic limit
    -it e^{-it l_j} to avoid catastrophic cancellation. DimensionMismatch
    unless the eigenvalues are one slice's, a 1-D array.
    """
    w = np.asarray(eigenvalues, dtype=float)
    if w.ndim != 1:
        raise DimensionMismatch(
            f"eigenvalues of shape {w.shape}, expected one slice's (d,)")
    ph = np.exp(-1j * t * w)
    dl = w[:, None] - w[None, :]
    close = np.abs(dl) < DEGENERATE_GAP
    num = ph[:, None] - ph[None, :]
    phi = np.where(close, -1j * t * ph[:, None], num / np.where(close, 1.0, dl))
    return phi

