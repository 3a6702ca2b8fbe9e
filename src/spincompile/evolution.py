"""Schedule -> evolution operator, gate error, error trace, exact gradients.

Within a slice the Hamiltonian is constant (``model.slice_hamiltonians``
builds it from the slice's x and y field amplitudes), so each slice
contributes one exact exponential exp(-i tau H_k) computed in the
eigenbasis; the full operator is the time-ordered product with slice 1
acting first. The
gradient of the gate error with respect to every pulse amplitude comes
from one forward pass (stashing per-slice eigendecompositions) and one
reverse pass through the divided-difference kernel, so it is exact to
machine precision rather than a finite-difference estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import frobenius_distance, loewner_kernel
from .model import SpinChainModel, control_operators, slice_hamiltonians
from .schedule import AXES, PulseSchedule

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
    """Eigendecompositions and per-slice propagators E_k = exp(-i tau H_k)."""
    w, v = np.linalg.eigh(slice_hamiltonians(model, schedule.values))
    phases = np.exp(-1j * schedule.tau * w)
    ek = np.einsum("kij,kj,klj->kil", v, phases, v.conj())
    return w, v, ek


def evolve(model: SpinChainModel, schedule: PulseSchedule) -> np.ndarray:
    """Time-ordered product of slice propagators (slice 1 first)."""
    _, _, ek = _slice_propagators(model, schedule)
    u = np.eye(model.dim, dtype=complex)
    for k in range(schedule.n_slices):
        u = ek[k] @ u
    return u


def _check_target(target, model):
    target = np.asarray(target, dtype=complex)
    if target.shape != (model.dim, model.dim):
        raise DimensionMismatch(
            f"target shape {target.shape}, model dim {model.dim}")
    return target


def gate_error(target, model: SpinChainModel, schedule: PulseSchedule) -> float:
    """Frobenius distance between the target and the realized evolution.

    Sensitive to the global phase of both operands.
    """
    target = _check_target(target, model)
    return frobenius_distance(target, evolve(model, schedule))


def error_trace(target, model: SpinChainModel,
                schedule: PulseSchedule) -> ErrorTrace:
    """Distance from the target to every prefix product, at times k*tau."""
    target = _check_target(target, model)
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
    target = _check_target(target, model)
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

    ops = control_operators(model)           # (2, N, d, d)
    tau = schedule.tau
    grad_sq = np.empty((len(AXES), model.n_qubits, k_slices))
    suffix = np.eye(model.dim, dtype=complex)
    tdag = target.conj().T
    for k in range(k_slices - 1, -1, -1):
        m = prefix[k] @ tdag @ suffix        # M_k
        vk = v[k]
        wmat = vk.conj().T @ m @ vk
        phi = loewner_kernel(w[k], tau)
        y = wmat.T * phi
        # Z for every control direction at once: V^dag D V
        z = np.einsum("ji,anjl,lm->anim", vk.conj(), ops, vk, optimize=True)
        grad_sq[:, :, k] = -2.0 * np.real(np.einsum("im,anim->an", y, z,
                                                    optimize=True))
        suffix = suffix @ ek[k]
    return eps, grad_sq / (2.0 * eps)


def error_gradient(target, model: SpinChainModel,
                   schedule: PulseSchedule) -> np.ndarray:
    return error_and_gradient(target, model, schedule)[1]
