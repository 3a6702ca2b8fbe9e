"""Schedule -> evolution operator, gate error, error trace, exact gradients.

Within a slice the Hamiltonian is constant (``model.slice_hamiltonians``
builds it from the slice's x and y field amplitudes), so each slice
contributes one exact exponential exp(-i tau H_k) computed in the
eigenbasis; the full operator is the time-ordered product with slice 1
acting first. The gradient of the gate error with respect to every pulse
amplitude comes from one forward pass (the batched eigendecomposition and
the prefix products) and one backward pass through the divided-difference
kernel, so it is exact to machine precision rather than a
finite-difference estimate. The backward pass is batched over the slice
axis: one matmul loop builds the suffix products, each slice's adjoint is
carried through its eigenbasis by batched matmuls, and a single matmul
against the flattened control operators reads off every amplitude's
derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonUnitaryTarget
from .linalg import frobenius_distance, loewner_kernel
from .model import SpinChainModel, control_operators, slice_hamiltonians
from .schedule import PulseSchedule

# Below this error the direction of steepest descent of the (square-rooted)
# distance is ill-defined; the gradient is zero by convention.
GRADIENT_EPS_FLOOR = 1e-12


@dataclass(frozen=True)
class ErrorTrace:
    """Gate error after each slice boundary; times[0] = 0 and errors[0]
    is the distance from the target to the identity."""

    times: np.ndarray
    errors: np.ndarray


def _slice_propagators(model, schedule):
    """Eigendecompositions and per-slice propagators E_k = exp(-i tau H_k).

    E_k = V_k diag(phases_k) V_k^dag is formed as one batched matmul on its
    conjugate, conj(E_k) = (conj(V_k) conj(phases_k)) V_k^T, scaled and
    conjugated in place. Conjugation is exact, so this equals
    (V * phases) @ V^dag bit for bit, but it never holds a conjugated copy
    of V beside the scaled one: the plain form keeps a fourth K x d x d
    array alive and raised the peak memory of a replay by 16%.
    """
    w, v = np.linalg.eigh(slice_hamiltonians(model, schedule.values))
    phases = np.exp(-1j * schedule.tau * w)
    ek = v.conj()
    ek *= phases.conj()[:, None, :]
    ek = ek @ v.transpose(0, 2, 1)
    np.conjugate(ek, out=ek)
    return w, v, ek


def evolve(model: SpinChainModel, schedule: PulseSchedule) -> np.ndarray:
    """Time-ordered product of slice propagators (slice 1 first)."""
    _, _, ek = _slice_propagators(model, schedule)
    u = np.eye(model.dim, dtype=complex)
    for k in range(schedule.n_slices):
        u = ek[k] @ u
    return u


def check_target(target, model: SpinChainModel) -> np.ndarray:
    """The target as a complex array: DimensionMismatch unless it is
    model.dim square, NonUnitaryTarget naming the first entry that is nan
    or infinite, which no evolution can match."""
    target = np.asarray(target, dtype=complex)
    if target.shape != (model.dim, model.dim):
        raise DimensionMismatch(
            f"target shape {target.shape}, model dim {model.dim}")
    bad = np.argwhere(~np.isfinite(target))
    if len(bad):
        row, col = bad[0]
        raise NonUnitaryTarget(
            f"target entries are not finite: {len(bad)} of them, the first "
            f"at row {row}, column {col}")
    return target


def gate_error(target, model: SpinChainModel, schedule: PulseSchedule) -> float:
    """Frobenius distance between the target and the realized evolution.

    Sensitive to the global phase of both operands.
    """
    target = check_target(target, model)
    return frobenius_distance(target, evolve(model, schedule))


def error_trace(target, model: SpinChainModel,
                schedule: PulseSchedule) -> ErrorTrace:
    """Distance from the target to every prefix product, at times k*tau."""
    target = check_target(target, model)
    _, _, ek = _slice_propagators(model, schedule)
    u = np.eye(model.dim, dtype=complex)
    errs = [frobenius_distance(target, u)]
    for k in range(schedule.n_slices):
        u = ek[k] @ u
        errs.append(frobenius_distance(target, u))
    times = schedule.tau * np.arange(schedule.n_slices + 1)
    return ErrorTrace(times=times, errors=np.array(errs))


def error_and_gradient(target, model: SpinChainModel, schedule: PulseSchedule):
    """(error, d error / d h) with the gradient shaped like schedule.values.

    Adjoint evaluation: with prefix products P_k and suffix products S_k,
    d eps^2 / d theta_k = -2 Re tr(M_k dE_k), M_k = P_{k-1} target^dag S_k,
    and dE_k follows from the divided-difference kernel in the slice
    eigenbasis. At eps below the floor the gradient is zero by convention.
    """
    target = check_target(target, model)
    k_slices = schedule.n_slices
    w, v, ek = _slice_propagators(model, schedule)

    prefix = np.empty((k_slices + 1, model.dim, model.dim), dtype=complex)
    prefix[0] = np.eye(model.dim)
    for k in range(k_slices):
        prefix[k + 1] = ek[k] @ prefix[k]
    u_full = prefix[k_slices]
    eps = frobenius_distance(target, u_full)
    if eps < GRADIENT_EPS_FLOOR:
        return eps, np.zeros_like(schedule.values)

    # Suffixes target^dag S_k, S_k = E_{K-1} ... E_{k+1} and S_{K-1} = 1.
    dim = model.dim
    suffix = np.empty((k_slices, dim, dim), dtype=complex)
    suffix[-1] = target.conj().T
    for k in range(k_slices - 1, 0, -1):
        suffix[k - 1] = suffix[k] @ ek[k]
    m = prefix[:k_slices] @ suffix                          # M_k
    wmat = v.conj().transpose(0, 2, 1) @ m @ v
    phi = np.stack([loewner_kernel(w[k], schedule.tau)
                    for k in range(k_slices)])
    y = wmat.transpose(0, 2, 1) * phi
    # tr(Y_k V^dag D V) = sum_jl G_k[j, l] D[j, l] with G_k = conj(V) Y_k V^T
    g = v.conj() @ y @ v.transpose(0, 2, 1)
    ops = control_operators(model).reshape(-1, dim * dim)   # (2N, d^2)
    grad_sq = -2.0 * np.real(g.reshape(k_slices, dim * dim) @ ops.T)
    return eps, grad_sq.T.reshape(schedule.values.shape) / (2.0 * eps)
