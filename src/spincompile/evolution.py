"""Schedule -> evolution operator, gate error, error trace, exact gradients.

Within a slice the Hamiltonian is constant, so each slice contributes one
exact exponential exp(-i tau H_k) computed in the eigenbasis; the full
operator is the time-ordered product with slice 1 acting first. The
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
from .model import (FIELDS_ADD, SpinChainModel, coupling_hamiltonian,
                    site_operator)
from .schedule import AXES, PulseSchedule

EXACT_PER_SLICE = "exact_per_slice"
TROTTER_COMPAT = "trotter_compat"

# Below this error the direction of steepest descent of the (square-rooted)
# distance is ill-defined; the gradient is zero by convention.
GRADIENT_EPS_FLOOR = 1e-12


@dataclass(frozen=True)
class EvolutionConfig:
    """mode selects per-slice exponentiation; trotter_substeps splits each
    slice into that many identical factors (numerically equal for a
    constant in-slice Hamiltonian, kept for parity with sub-slice
    formulations)."""

    trotter_substeps: int = 1
    mode: str = EXACT_PER_SLICE

    def __post_init__(self):
        if self.trotter_substeps < 1:
            raise ValueError("trotter_substeps must be >= 1")
        if self.mode not in (EXACT_PER_SLICE, TROTTER_COMPAT):
            raise ValueError(f"unknown mode {self.mode!r}")


DEFAULT_CONFIG = EvolutionConfig()


@dataclass(frozen=True)
class ErrorTrace:
    """Gate error after each slice boundary; times[0] = 0 and errors[0]
    is the distance from the target to the identity."""

    times: np.ndarray
    errors: np.ndarray


def _field_sign(model: SpinChainModel) -> float:
    return 1.0 if model.field_sign == FIELDS_ADD else -1.0


def _control_operators(model: SpinChainModel) -> np.ndarray:
    """Stack of d H / d h[axis, n], shape (2, N, dim, dim)."""
    sign = _field_sign(model)
    n = model.n_qubits
    ops = np.empty((len(AXES), n, model.dim, model.dim), dtype=complex)
    for a, ax in enumerate(AXES):
        for q in range(n):
            ops[a, q] = sign * 2 * np.pi * site_operator(ax, q, n)
    return ops


def _slice_hamiltonians(model: SpinChainModel, schedule: PulseSchedule) -> np.ndarray:
    """Shape (K, dim, dim); H_k for every slice."""
    if model.n_qubits != schedule.n_qubits:
        raise DimensionMismatch(
            f"model has {model.n_qubits} qubits, schedule {schedule.n_qubits}")
    ops = _control_operators(model)
    hc = coupling_hamiltonian(model)
    # values: (2, N, K) contracted with ops (2, N, d, d) -> (K, d, d)
    hk = np.tensordot(schedule.values, ops, axes=([0, 1], [0, 1]))
    return hk + hc


def _slice_propagators(model, schedule, cfg):
    """Eigendecompositions and per-slice propagators E_k = exp(-i tau H_k)."""
    hk = _slice_hamiltonians(model, schedule)
    w, v = np.linalg.eigh(hk)
    tau = schedule.tau
    if cfg.mode == TROTTER_COMPAT and cfg.trotter_substeps > 1:
        sub = np.exp(-1j * (tau / cfg.trotter_substeps) * w)
        phases = sub ** cfg.trotter_substeps
    else:
        phases = np.exp(-1j * tau * w)
    ek = np.einsum("kij,kj,klj->kil", v, phases, v.conj())
    return w, v, ek


def evolve(model: SpinChainModel, schedule: PulseSchedule,
           cfg: EvolutionConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Time-ordered product of slice propagators (slice 1 first)."""
    _, _, ek = _slice_propagators(model, schedule, cfg)
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


def gate_error(target, model: SpinChainModel, schedule: PulseSchedule,
               cfg: EvolutionConfig = DEFAULT_CONFIG) -> float:
    """Frobenius distance between the target and the realized evolution.

    Sensitive to the global phase of both operands.
    """
    target = _check_target(target, model)
    return frobenius_distance(target, evolve(model, schedule, cfg))


def error_trace(target, model: SpinChainModel, schedule: PulseSchedule,
                cfg: EvolutionConfig = DEFAULT_CONFIG) -> ErrorTrace:
    """Distance from the target to every prefix product, at times k*tau."""
    target = _check_target(target, model)
    _, _, ek = _slice_propagators(model, schedule, cfg)
    u = np.eye(model.dim, dtype=complex)
    errs = [frobenius_distance(target, u)]
    for k in range(schedule.n_slices):
        u = ek[k] @ u
        errs.append(frobenius_distance(target, u))
    times = schedule.tau * np.arange(schedule.n_slices + 1)
    return ErrorTrace(times=times, errors=np.array(errs))


def error_and_gradient(target, model: SpinChainModel, schedule: PulseSchedule,
                       cfg: EvolutionConfig = DEFAULT_CONFIG):
    """(error, d error / d h) with the gradient shaped like schedule.values.

    Adjoint evaluation: with prefix products P_k and suffix products S_k,
    d eps^2 / d theta_k = -2 Re tr(M_k dE_k), M_k = P_{k-1} target^dag S_k,
    and dE_k follows from the divided-difference kernel in the slice
    eigenbasis. At eps below the floor the gradient is zero by convention.
    """
    target = _check_target(target, model)
    k_slices = schedule.n_slices
    w, v, ek = _slice_propagators(model, schedule, cfg)

    prefix = np.empty((k_slices + 1, model.dim, model.dim), dtype=complex)
    prefix[0] = np.eye(model.dim)
    for k in range(k_slices):
        prefix[k + 1] = ek[k] @ prefix[k]
    u_full = prefix[k_slices]
    eps = frobenius_distance(target, u_full)
    if eps < GRADIENT_EPS_FLOOR:
        return eps, np.zeros_like(schedule.values)

    ops = _control_operators(model)          # (2, N, d, d)
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


def error_gradient(target, model: SpinChainModel, schedule: PulseSchedule,
                   cfg: EvolutionConfig = DEFAULT_CONFIG) -> np.ndarray:
    return error_and_gradient(target, model, schedule, cfg)[1]
