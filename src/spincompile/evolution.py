"""Schedule -> evolution operator, gate error, error trace, exact gradients.

Within a slice the Hamiltonian is constant, so each slice contributes one
exact exponential exp(-i tau H_k) computed in the eigenbasis; the full
operator is the time-ordered product with slice 1 acting first. On the
Ising chain every slice is solved as two real symmetric parity blocks of
half the width (``model.ising_parity_blocks``), one batched real
eigendecomposition for the schedule; other couplings are solved as the
complex slice Hamiltonians of ``model.slice_hamiltonians``. The gradient
of the gate error with respect to every pulse amplitude comes from one
forward pass (the batched eigendecomposition and the prefix products) and
one backward pass through the divided-difference kernel, so it is exact
to machine precision rather than a finite-difference estimate. There are
two time-ordered products. ``evolve`` reads only the full product, which
a pairwise tree forms in about log2 K batched matmuls; the error trace
and the gradient read every prefix, which one matmul loop writes over the
propagators. The forward path (``evolve`` and the error trace) holds one
chunk of consecutive slices at a time, at most CHUNK_BYTES of
propagators, and carries the product across chunks, so its memory does
not grow with K; every chunk is built into one workspace allocated per
call (the propagator stack and, on the Ising chain, a half-size parity
scratch), and the eigenvector stack, which only the gradient reads, is
not assembled. The backward pass is batched over the slice axis:
each adjoint is two products of the prefixes, carried through its slice's
eigenbasis by batched matmuls into buffers the earlier steps freed, and
every amplitude's derivative is read off the adjoint by a gather: a field
term couples basis state j only to j with its site's bit flipped
(``model.flip_pairs``). On the Ising chain the eigenbasis is a
diagonal phase frame times a real matrix, so the basis changes are real
products against complex operands viewed as float pairs, at half the
flops of complex ones, and the frame is two O(K d^2) scalings. The
gradient holds every slice at once: its peak is about three and a half
K x d x d complex stacks on the Ising chain and four on the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NonUnitaryTarget
from .linalg import frobenius_distance, loewner_kernel
from .model import (FIELD_SCALE, ISING, MAX_QUBITS, SpinChainModel,
                    check_fields, flip_pairs, ising_parity_blocks,
                    slice_hamiltonians)
from .schedule import PulseSchedule

# Below this error the direction of steepest descent of the (square-rooted)
# distance is ill-defined; the gradient is zero by convention.
GRADIENT_EPS_FLOOR = 1e-12

# Bytes of slice propagators the forward path holds at once. On perfbench's
# replay workload (tables at N = 5..7 and the 16 bundled ones; 2 vCPUs, one
# BLAS thread) 1 MiB cut peak_rss_mb from 83.1 to 46.1 MB; 256 KiB read
# 44.5 MB and 4 MiB 53.3 MB, at the same wall time within the host's noise.
# Every bundled table (d <= 8) fits one chunk. Chunks are built into one
# workspace per call (``_propagator_chunks``): with fresh stacks per chunk,
# whose freeing handed the heap top back to the OS, a replay pass took
# about 3.8k minor faults; with the workspace, under 30.
CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class ErrorTrace:
    """Gate error after each slice boundary; times[0] = 0 and errors[0]
    is the distance from the target to the identity."""

    times: np.ndarray
    errors: np.ndarray


def _slice_propagators(model, values, tau, out=None):
    """Eigendecompositions and per-slice propagators E_k = exp(-i tau H_k)
    of the field amplitudes values (2, N, K), a whole schedule's or a range
    of its slices, each of duration tau.

    Returns (w, u, v, ek): eigenvalues (K, d), frame phases u (K, d),
    eigenvectors (K, d, d) and propagators (K, d, d); slice k's
    eigenvectors are diag(u_k) v_k. The Ising chain is solved as two real
    parity blocks per slice (``_parity_propagators``) and v is real. Other
    couplings are solved by one batched complex eigendecomposition; there
    v is complex and u is None, no frame.

    out is the forward path's workspace (``_workspace``), at least K
    slices long: the propagators are built into its stack, ek is a view
    of it, and the Ising chain does not assemble v (None), which only the
    gradient reads. Without out the arrays are new.

    On the complex path E_k = V_k diag(phases_k) V_k^dag is formed as one
    batched matmul on its conjugate, conj(E_k) = (conj(V_k) conj(phases_k))
    V_k^T, scaled and conjugated in place. Conjugation is exact, so this
    equals (V * phases) @ V^dag bit for bit, but it never holds a conjugated
    copy of V beside the scaled one, a fourth K x d x d array: the peak is
    the Hamiltonians, the eigenvectors and the propagators, three stacks.

    The arrays are the caller's own: ``_prefix_products`` consumes ek,
    writing the prefix products over the propagators, and
    ``_tree_product`` reads it.
    """
    if model.interaction == ISING:
        return _parity_propagators(model, values, tau, out)
    w, v = np.linalg.eigh(slice_hamiltonians(model, values))
    phases = np.exp(-1j * tau * w)
    scaled = v.conj()
    scaled *= phases.conj()[:, None, :]
    ek = np.matmul(scaled, v.transpose(0, 2, 1),
                   out=None if out is None else out[0][:len(w)])
    np.conjugate(ek, out=ek)
    return w, None, v, ek


def _workspace(model, k_slices):
    """The buffers ``_slice_propagators`` builds k_slices propagators into:
    the complex (k_slices, d, d) stack and, on the Ising chain, the parity
    scratch (k_slices, 2, d/2, d/2) of ``_parity_propagators``, half as
    large (None on the other couplings)."""
    dim = model.dim
    stack = np.empty((k_slices, dim, dim), dtype=complex)
    if model.interaction != ISING:
        return stack, None
    return stack, np.empty((k_slices, 2, dim // 2, dim // 2), dtype=complex)


@lru_cache(maxsize=MAX_QUBITS)
def _parity_layout(dim: int) -> np.ndarray:
    """Where each entry of E_k sits in the (2, d/2, d/2) stack of its sum
    and difference blocks (S, D), as flat indices (d, d).

    Row j < d/2 reads block row j and row j >= d/2 its mirror d-1-j (J);
    so do the columns. An entry reads S where row and column lie in the
    same half, else D.
    """
    half = dim // 2
    idx = np.arange(dim)
    lower = idx >= half
    fold = np.where(lower, dim - 1 - idx, idx)
    at = ((lower[:, None] ^ lower) * half + fold[:, None]) * half + fold
    at.setflags(write=False)
    return at


def _parity_propagators(model, values, tau, out):
    """``_slice_propagators`` of an Ising chain from its real parity blocks.

    With H_k = diag(u) Q blockdiag(A+, A-) Q^T diag(u)^dag (see
    ``model.ising_parity_blocks``; Q's columns are (|j> +- |d-1-j>)/sqrt2),
    one real eigendecomposition A+- = V+- diag(w+-) V+-^T gives
    w = (w+, w-), the frame u, the real v = Q blockdiag(V+, V-), and each
    block's exponential V diag(phases) V^T as one real matmul against the
    complex right operand viewed as float pairs. E_k is
    [[S, D J], [J D, J S J]] (J reverses the order) with S = (E+ + E-)/2
    and D = (E+ - E-)/2, scaled by u_j conj(u_l): gathers and scalings of
    O(K d^2) beside the O(K d^3 / 4) eigendecomposition.

    The workspace (out, or a new ``_workspace``) holds every step: the
    scratch holds the phased right operands and then S and D, the first
    half of the propagator stack the block exponentials, and E_k is
    gathered from the scratch into the whole stack. The gather clips its
    indices (all in range) rather than raising, because a checked
    ``np.take`` into out writes to a temporary copy of out first, one more
    stack. v is a real stack, half a complex one, and is assembled only
    without out.
    """
    theta, blocks = ising_parity_blocks(model, values)
    wb, vb = np.linalg.eigh(blocks)
    del blocks
    k_slices, dim, half = values.shape[2], model.dim, model.dim // 2
    u = np.exp(1j * theta)
    stack, scratch = _workspace(model, k_slices) if out is None else out
    ek, sd = stack[:k_slices], scratch[:k_slices]
    eb = ek.reshape(2, k_slices, 2, half, half)[0]
    # halved phases, so eb holds E+/2 and E-/2
    np.multiply(0.5 * np.exp(-1j * tau * wb)[..., :, None],
                vb.swapaxes(-1, -2), out=sd)
    np.matmul(vb, sd.view(float), out=eb.view(float))
    np.add(eb[:, 0], eb[:, 1], out=sd[:, 0])
    np.subtract(eb[:, 0], eb[:, 1], out=sd[:, 1])
    np.take(sd.reshape(k_slices, -1), _parity_layout(dim), axis=1,
            out=ek, mode="clip")
    ek *= u[:, :, None]
    ek *= u.conj()[:, None, :]
    w = wb.reshape(k_slices, -1)
    if out is not None:
        return w, u, None, ek

    v = np.empty((k_slices, dim, dim))
    v[:, :half, :half] = vb[:, 0]
    v[:, :half, half:] = vb[:, 1]
    v[:, half:, :half] = vb[:, 0, ::-1]
    np.negative(vb[:, 1, ::-1], out=v[:, half:, half:])
    v *= np.sqrt(0.5)
    return w, u, v, ek


def _propagator_chunks(model, schedule):
    """The propagator stacks of consecutive ranges of the schedule's
    slices, slice 1 first: max(2, CHUNK_BYTES // (16 d^2)) slices each,
    and a lone last slice joins the range before it.

    No range of a longer schedule is one slice, because numpy multiplies a
    one-row operand as a matrix-vector product, which rounds the Ising
    frame phases (``model.ising_parity_blocks``) apart from the batched
    product; so every chunk's propagators are bitwise those of the whole
    stack. The fields are checked whole first, so an error names the
    schedule's slice and shape, not a chunk's. Each chunk keeps the
    schedule's own tau.

    One workspace (``_workspace``), sized for the longest range, is
    allocated per call and every chunk is built into it, so each stack
    yielded is a view that the next chunk overwrites: the caller may
    write over it but must copy what it keeps. Freeing a chunk's
    temporaries before the next is built returned the heap top to the OS
    and faulted it in again for every chunk.
    """
    check_fields(model, schedule.values)
    step = max(2, CHUNK_BYTES // (16 * model.dim ** 2))
    starts = list(range(0, max(1, schedule.n_slices - 1), step))
    ranges = list(zip(starts, starts[1:] + [schedule.n_slices]))
    out = _workspace(model, max(hi - lo for lo, hi in ranges))
    for lo, hi in ranges:
        yield _slice_propagators(
            model, schedule.values[:, :, lo:hi], schedule.tau, out=out)[-1]


def _prefix_products(ek: np.ndarray) -> np.ndarray:
    """The prefix products P_k = E_k ... E_1, slice 1 first, written over
    the propagators in turn: ek[k - 1] becomes P_k; P_0 = 1 is implied.
    A loop of K - 1 matmuls, since each prefix is the one before it times
    one slice; ``error_trace`` and ``error_and_gradient`` read them all,
    ``evolve`` only the last (``_tree_product``)."""
    for prev, e in zip(ek, ek[1:]):
        e[...] = e @ prev
    return ek


def _tree_product(ek: np.ndarray) -> np.ndarray:
    """P_K = E_K ... E_1 by a pairwise product tree: each level multiplies
    every pair E_{2i+1} E_{2i}, the later slice on the left, in one batched
    matmul and carries an odd last slice up to the next level, so the same
    K - 1 products take ceil(log2 K) calls instead of K. The product is
    a new array, never a view of ek, even for one slice."""
    if len(ek) == 1:
        return ek[0].copy()
    while len(ek) > 1:
        half, odd = divmod(len(ek), 2)
        level = np.empty((half + odd, *ek.shape[1:]), dtype=ek.dtype)
        np.matmul(ek[1::2], ek[:2 * half:2], out=level[:half])
        if odd:
            level[half] = ek[-1]
        ek = level
    return ek[0]


def evolve(model: SpinChainModel, schedule: PulseSchedule) -> np.ndarray:
    """Time-ordered product of slice propagators (slice 1 first).

    Only P_K is read, so each chunk of slices (``_propagator_chunks``) is
    multiplied out by ``_tree_product`` in about log2 of its length
    batched matmuls and left-multiplies the product carried from the
    chunks before it; ``error_trace`` and ``error_and_gradient`` read
    every prefix and keep the K-step ``_prefix_products`` scan. The two
    orders of multiplication agree to rounding. The product is a new
    array, never a view of the chunks' workspace.
    """
    product = None
    for ek in _propagator_chunks(model, schedule):
        chunk = _tree_product(ek)
        product = chunk if product is None else chunk @ product
    return product


def check_target(target, model: SpinChainModel) -> np.ndarray:
    """The target as a complex array: DimensionMismatch unless it is
    model.dim square, NonUnitaryTarget naming the first entry that is nan
    or infinite, which no evolution can match."""
    target = np.asarray(target, dtype=complex)
    if target.shape != (model.dim, model.dim):
        raise DimensionMismatch(
            f"target shape {target.shape}, model dim {model.dim}")
    if not np.isfinite(target).all():
        bad = np.argwhere(~np.isfinite(target))
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
    """Distance from the target to every prefix product, at times k*tau.

    The ``_prefix_products`` scan runs chunk by chunk
    (``_propagator_chunks``): each chunk's first slice multiplies the
    prefix the chunk before it ended on, the same product the scan over
    the whole stack takes, so the errors do not depend on the chunking.
    """
    target = check_target(target, model)
    errs = [frobenius_distance(target, np.eye(model.dim, dtype=complex))]
    prefix = None
    for ek in _propagator_chunks(model, schedule):
        if prefix is not None:
            ek[0] = ek[0] @ prefix
        errs.extend(frobenius_distance(target, p)
                    for p in _prefix_products(ek))
        prefix = ek[-1].copy()          # the next chunk overwrites ek
    times = schedule.tau * np.arange(schedule.n_slices + 1)
    return ErrorTrace(times=times, errors=np.array(errs))


def _matmul(a, x, out, conj=False):
    """a @ x, or conj(a) @ x, into out; x and out are complex stacks.

    A real a multiplies x viewed as float pairs, a d x 2d right-hand side:
    dgemm at half zgemm's flops, and conj(a) = a. A complex a is
    conjugated through x and out in place, conj(a) x = conj(a conj(x)),
    never copied; x is left conjugated.
    """
    if a.dtype == float:
        np.matmul(a, x.view(float), out=out.view(float))
        return out
    if conj:
        np.conjugate(x, out=x)
    np.matmul(a, x, out=out)
    if conj:
        np.conjugate(out, out=out)
    return out


def error_and_gradient(target, model: SpinChainModel, schedule: PulseSchedule):
    """(error, d error / d h) with the gradient shaped like schedule.values.

    Adjoint evaluation: with prefix products P_k and suffix products S_k,
    d eps^2 / d theta_k = -2 Re tr(M_k dE_k), M_k = P_{k-1} target^dag S_k,
    and dE_k follows from the divided-difference kernel in the slice
    eigenbasis. Every product is unitary, so S_k = P_K P_k^dag and M is
    two batched products of the prefixes. At eps below the floor the
    gradient is zero by convention.

    The peak is reached while M is formed from the eigenvectors, the
    prefixes (over the propagators) and X: three and a half K x d x d
    complex stacks on the Ising chain, whose eigenvectors are real, and
    four on the others. Then X is dropped, and the later steps run in the
    prefix and M stacks.
    """
    target = check_target(target, model)
    w, u, v, ek = _slice_propagators(model, schedule.values, schedule.tau)
    prefix = _prefix_products(ek)
    eps = frobenius_distance(target, prefix[-1])
    if eps < GRADIENT_EPS_FLOOR:
        return eps, np.zeros_like(schedule.values)

    # M_k = P_{k-1} X_k with X_k = target^dag P_K P_k^dag and P_0 = 1
    x = prefix @ (prefix[-1].conj().T @ target)
    x = np.conjugate(x, out=x).transpose(0, 2, 1)           # X
    m = np.empty_like(prefix)
    m[0] = x[0]
    np.matmul(prefix[:-1], x[1:], out=m[1:])
    del x
    # With eigenvectors diag(u) V, the adjoint in the eigenbasis is
    # V^dag M' V with M' = diag(conj u) M diag(u).
    if u is not None:
        m *= u.conj()[:, :, None]
        m *= u[:, None, :]
    # W^T = V^T (V^dag M')^T and G'^T = V (conj(V) Y)^T: each side is two
    # products and one transposed copy, so every right operand is a plain
    # stack, which a real V reads as float pairs; the spent prefixes' stack
    # is the second buffer.
    vt = v.transpose(0, 2, 1)
    vdag_m = _matmul(vt, m, out=prefix, conj=True)
    m[...] = vdag_m.transpose(0, 2, 1)
    y = _matmul(vt, m, out=prefix)                          # W^T
    for k in range(schedule.n_slices):
        y[k] *= loewner_kernel(w[k], schedule.tau)
    # tr(Y_k V^dag D V) = sum_jl G_k[j, l] D[j, l], G_k = conj(V) Y_k V^T,
    # and G_k[j, l] = conj(u_j) G'_k[j, l] u_l
    cv_y = _matmul(v, y, out=m, conj=True)
    prefix[...] = cv_y.transpose(0, 2, 1)
    g_t = _matmul(v, prefix, out=m)                         # G'^T
    # d H / d h[x, n] is FIELD_SCALE at (j, partner[n, j]) and d H / d h[y, n]
    # is -i FIELD_SCALE spin[n, j] there (``model.flip_pairs``), so each
    # amplitude reads d entries of G_k, and d eps = d eps^2 / 2 eps.
    partner, spin = flip_pairs(model.n_qubits)
    pairs = g_t[:, partner, np.arange(model.dim)]            # (K, N, d)
    if u is not None:
        pairs *= u.conj()[:, None, :] * u[:, partner]
    grad = np.empty_like(schedule.values)
    grad[0] = pairs.real.sum(axis=-1).T
    grad[1] = (pairs.imag * spin).sum(axis=-1).T
    grad *= -FIELD_SCALE / eps
    return eps, grad
