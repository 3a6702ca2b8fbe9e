"""Schedule -> evolution operator, gate error, error trace, exact gradients.

Within a slice the Hamiltonian is constant, so each slice contributes one
exponential exp(-i tau H_k); the full operator is the time-ordered product
with slice 1 acting first. Every slice is solved in real arithmetic, as a
stack of real symmetric blocks (``_real_blocks``): on the Ising chain two
parity blocks of half the width in a per-slice phase frame
(``model.ising_parity_blocks``), on the Heisenberg chain one d x d block in
a fixed basis W (``model.real_slices``). The coupling chooses only these
blocks and the O(K d^2) way back to the computational basis
(``_to_computational``); the rest is written once. The forward path
(``evolve``, ``gate_error`` and the error trace) reads only the
propagators, which it builds without an eigendecomposition, from a scaled
Taylor polynomial in batched real matmuls with one squaring count per
schedule (``_taylor_propagators``). The gradient of the gate error with
respect to every pulse amplitude reads the eigenbasis, so it takes exact
exponentials from one batched real eigendecomposition of the blocks: one
forward pass (the eigendecomposition and the prefix products) and one
backward pass through the divided-difference kernel, exact to machine
precision rather than a finite-difference estimate.
There are two time-ordered products. ``evolve`` reads only the full
product, which a pairwise tree forms in about log2 K batched matmuls;
the error trace and the gradient read every prefix, which one matmul loop
writes over the propagators. The forward path holds one chunk of
consecutive slices at a time, at most CHUNK_BYTES of propagators, and
carries the product across chunks, so its memory does not grow with K;
every chunk is built into one workspace allocated per call (the
propagator stack and a float scratch). The backward pass is batched over
the slice axis: each adjoint is two products of the prefixes, carried
through its slice's eigenbasis by batched matmuls into buffers the earlier
steps freed, and every amplitude's derivative is read off the adjoint by a
gather: a field term couples basis state j only to j with its site's bit
flipped (``model.flip_pairs``). The eigenbasis is the frame or W times a
real matrix, so the basis changes are real products against complex
operands viewed as float pairs, at half the flops of complex ones, and
the frame or W enters as O(K d^2) scalings or butterflies. The gradient
holds every slice at once: its peak is about three and a half K x d x d
complex stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NonUnitaryTarget, OutOfRange
from .linalg import frobenius_distance, loewner_kernel
from .model import (FIELD_SCALE, ISING, MAX_QUBITS, SpinChainModel,
                    check_fields, flip_pairs, ising_parity_blocks,
                    real_slices, slice_norm_bounds)
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
# about 3.8k minor faults; with the workspace, under 30 (both measured
# when the Ising chunks came from an eigendecomposition). The Taylor
# polynomial runs in the same workspace: the propagator stack viewed as
# float and the scratch hold its six real block stacks, so the only other
# arrays per chunk are ``_real_blocks``' own.
CHUNK_BYTES = 1 << 20

# The largest tau ||H_k|| a slice may have; it bounds the phases the slice
# turns. Rounding moves them by about 2^-52 tau ||H_k||, so past 2^26
# (1/sqrt of the float epsilon) less than half their digits are left.
MAX_SLICE_PHASE = 2.0 ** 26


@dataclass(frozen=True)
class ErrorTrace:
    """Gate error after each slice boundary; times[0] = 0 and errors[0]
    is the distance from the target to the identity."""

    times: np.ndarray
    errors: np.ndarray


def _real_blocks(model, values):
    """(u, blocks) of the field amplitudes values (2, N, K): each slice's
    real symmetric block stack (K, B, m, m) and, on the Ising chain, its
    frame phases u (K, d); the one place the coupling chooses the blocks.

    The Ising chain's are its two parity blocks of half the width
    (``model.ising_parity_blocks``), on the sum and difference vectors
    (|j> +- |d-1-j>)/sqrt2 in the frame diag(u). The Heisenberg chain's is
    one d x d block, ``model.real_slices``, in the fixed basis W = Q D: Q
    holds the sum vector at column j and the difference at d-1-j
    (``_pair_butterfly``), and D turns the differences by i. There u is
    None. Either way the blocks are a new array the caller may write over.
    """
    if model.interaction == ISING:
        theta, blocks = ising_parity_blocks(model, values)
        return np.exp(1j * theta), blocks
    return None, real_slices(model, values)[:, None]


def _slice_propagators(model, values, tau):
    """Eigendecompositions and per-slice propagators E_k = exp(-i tau H_k)
    of the field amplitudes values (2, N, K), each slice of duration tau:
    the gradient's builder, which reads the eigenbasis.

    Returns new arrays (w, u, v, ek): eigenvalues (K, d), the Ising frame
    phases u (K, d) or None, real eigenvectors v (K, d, d) and propagators
    (K, d, d). Slice k's eigenvectors are diag(u_k) v_k on the Ising chain,
    v = Q blockdiag(V+, V-) from its parity blocks, and W v_k on the
    Heisenberg chain, v its real slice's own.

    One real eigendecomposition of the blocks (``_real_blocks``) gives
    each block's exponential V diag(phases) V^T as one real matmul against
    the complex right operand viewed as float pairs, and
    ``_to_computational`` takes it back to E_k in O(K d^2). A new
    ``_workspace`` holds the complex steps: its scratch the phased right
    operands, and the front of the propagator stack the block
    exponentials. The arrays are the caller's own: ``_prefix_products``
    consumes ek, writing the prefix products over the propagators.
    """
    u, blocks = _real_blocks(model, values)
    wb, vb = np.linalg.eigh(blocks)
    del blocks
    k_slices = len(vb)
    ek, scratch = _workspace(model.dim, k_slices, vb[0].size)
    eb = ek.reshape(-1)[:vb.size].reshape(vb.shape)
    operand = scratch.view(complex)[:vb.size].reshape(vb.shape)
    # halved phases, so eb holds half of each block exponential
    np.multiply(0.5 * np.exp(-1j * tau * wb)[..., :, None],
                vb.swapaxes(-1, -2), out=operand)
    np.matmul(vb, operand.view(float), out=eb.view(float))
    _to_computational(u, 1.0, eb.real, eb.imag, scratch, ek)
    return (wb.reshape(k_slices, -1), u,
            vb[:, 0] if u is None else _parity_vectors(vb), ek)


def _parity_vectors(vb):
    """Q blockdiag(V+, V-) (K, d, d) from the Ising parity blocks'
    eigenvectors vb (K, 2, d/2, d/2): real, half a complex stack."""
    k_slices, _, half, _ = vb.shape
    v = np.empty((k_slices, 2 * half, 2 * half))
    v[:, :half, :half] = vb[:, 0]
    v[:, :half, half:] = vb[:, 1]
    v[:, half:, :half] = vb[:, 0, ::-1]
    np.negative(vb[:, 1, ::-1], out=v[:, half:, half:])
    v *= np.sqrt(0.5)
    return v


def _workspace(dim, k_slices, block_size):
    """The buffers k_slices propagators are built into, for real blocks of
    block_size entries per slice: the complex (k_slices, d, d) stack and a
    float scratch, so that the two hold six real block stacks, the six of
    ``_taylor_propagators``. On the Ising chain (block_size d^2 / 2) the
    stack viewed as float holds four and the scratch two; on the
    Heisenberg chain (d^2) the stack two and the scratch four."""
    stack = np.empty((k_slices, dim, dim), dtype=complex)
    return stack, np.empty(k_slices * (6 * block_size - 2 * dim * dim))


def _to_computational(u, scale, c, s, scratch, ek):
    """E_k (K, d, d) into ek from the exponentials of the real blocks
    (``_real_blocks``) divided by 2 scale, given as their real and
    imaginary parts c and s (K, B, m, m), which may be views: the
    coupling's one way back to the computational basis, O(K d^2). The
    front of the float scratch holds the complex intermediate, so it must
    not hold c and s; ek may.

    Heisenberg: X = scale (c + is), half the block exponential, is copied
    into the scratch. D X D^dag turns its off-diagonal quadrants by -i and
    i (``_pair_phases``), and the butterfly (``_pair_butterfly``), twice
    Q (.) Q, whose row pass the rest of the scratch holds, gives
    E_k = Q D (2 X) D^dag Q.

    Ising: the sum and difference of the two blocks, times scale, are the
    blocks S and D of E_k = [[S, D J], [J D, J S J]] (J reverses the
    order), gathered into ek (``_parity_layout``) and scaled by the frame
    u_j conj(u_l). The gather clips its indices (all in range) rather
    than raising, because a checked ``np.take`` into ek writes to a
    temporary copy of ek first, one more stack.
    """
    z = scratch[:2 * c.size].view(complex).reshape(c.shape)
    if u is None:
        z = z.reshape(ek.shape)
        np.multiply(c[:, 0], scale, out=z.real)
        np.multiply(s[:, 0], scale, out=z.imag)
        rows = scratch[2 * c.size:4 * c.size].view(complex).reshape(ek.shape)
        return _pair_butterfly(_pair_phases(z, -1j), rows, ek)
    np.add(c[:, 0], c[:, 1], out=z.real[:, 0])
    np.subtract(c[:, 0], c[:, 1], out=z.real[:, 1])
    np.add(s[:, 0], s[:, 1], out=z.imag[:, 0])
    np.subtract(s[:, 0], s[:, 1], out=z.imag[:, 1])
    np.take(z.reshape(len(ek), -1), _parity_layout(ek.shape[-1]), axis=1,
            out=ek, mode="clip")
    ek *= (scale * u)[:, :, None]
    ek *= u.conj()[:, None, :]
    return ek


def _pair_phases(x, phase):
    """x (K, d, d) with its upper-right quadrant times phase and its
    lower-left times conj(phase), in place: D x D^dag for phase -i and
    D^dag x D for phase i, where D is 1 on rows j < d/2 and i below.
    Turning by +-i is exact."""
    half = x.shape[-1] // 2
    x[:, :half, half:] *= phase
    x[:, half:, :half] *= np.conj(phase)
    return x


def _pair_butterfly(x, rows, out):
    """out = 2 Q x Q for Q the pairwise Hadamard of rows and columns
    (j, d-1-j), j < d/2: each pair becomes its sum at j and its difference
    at d-1-j, first over rows into rows, then over columns into out
    (K, d, d), which may be x. Q = Q^T = Q^-1 and W = Q D, so
    W x W^dag = Q D x D^dag Q and W^dag x W = D^dag Q x Q D."""
    half = x.shape[-1] // 2
    far = slice(None, half - 1, -1)          # rows d-1, ..., d/2
    np.add(x[:, :half], x[:, far], out=rows[:, :half])
    np.subtract(x[:, :half], x[:, far], out=rows[:, far])
    np.add(rows[:, :, :half], rows[:, :, far], out=out[:, :, :half])
    np.subtract(rows[:, :, :half], rows[:, :, far], out=out[:, :, far])
    return out


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


# Taylor coefficients in Y = X^2 of cos X and of -sin(X)/X, to Y^8
# (X^16 and X^17). At ||X||_2 <= 1 (``_squarings``) the terms left out sum
# to below 1.01/18! = 1.6e-16 in the 2-norm, which is submultiplicative,
# so under double rounding.
_COS_TAYLOR = tuple((-1) ** m / math.factorial(2 * m) for m in range(9))
_NEG_SIN_TAYLOR = tuple((-1) ** (m + 1) / math.factorial(2 * m + 1)
                        for m in range(9))


def _taylor_in_y(coef, y, y2, y3, out, spare):
    """sum_m coef[m] Y^m (m = 0..8) into out, by Paterson-Stockmeyer:
    (B_2 Y^3 + B_1) Y^3 + B_0 with
    B_j = coef[3j] + coef[3j+1] Y + coef[3j+2] Y^2, two matmuls beside
    the powers Y, Y^2 and Y^3 (contiguous stacks of square matrices).
    spare is written over: each power is scaled into it and added, so no
    temporary stack is allocated."""
    n = y.shape[-1]
    acc, prev = out, spare
    for j in (6, 3, 0):
        if j == 6:
            np.multiply(y2, coef[8], out=acc)
        else:
            np.matmul(y3, prev, out=acc)
            np.multiply(y2, coef[j + 2], out=prev)
            acc += prev
        np.multiply(y, coef[j + 1], out=prev)
        acc += prev
        diagonal = acc.reshape(-1, n * n)[:, ::n + 1]
        diagonal += coef[j]
        acc, prev = prev, acc


def _taylor_propagators(u, x, tau, squarings, out):
    """The propagators E_k (K, d, d) of the real blocks x and frame u of
    ``_real_blocks``, slices of duration tau, built into the forward
    path's workspace out (``_workspace``, at least K slices long) with no
    eigendecomposition: a view of its stack. In real arithmetic, each
    block's exponential exp(-i tau A) = cos(tau A) - i sin(tau A) comes
    from scaling and squaring a truncated Taylor series (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)).

    With X = tau A / 2^s (s = squarings), C = cos X and S = -sin X =
    X q(Y) come from polynomials of degree 8 in Y = X^2, evaluated by
    Paterson-Stockmeyer (SIAM J. Comput. 2, 60 (1973)) from Y, Y^2 and
    Y^3 (``_taylor_in_y``): eight block matmuls. Each of the s squarings
    (C, S) -> ((C - S)(C + S), 2 S C) takes two, since C and S commute.
    Then ``_to_computational`` takes C + iS back to E_k, the halving its
    sums and butterflies need passed as its scale.

    The six real block stacks (Y, Y^2, Y^3, the Horner spare, C and S)
    are the workspace out: the propagator stack viewed as float holds q of
    them (four on the Ising chain, two on the Heisenberg chain) and the
    scratch the rest. Y^3 and the spare take the front of the scratch,
    where ``_to_computational`` writes, and C and S end in the others. X
    is scaled over the blocks' own array.
    """
    x *= tau / 2.0 ** squarings
    stack, scratch = out
    ek = stack[:len(x)]
    blocks = [*ek.view(float).reshape(-1, *x.shape)]
    q = len(blocks)
    blocks += [*scratch[:(6 - q) * x.size].reshape(-1, *x.shape)]
    y3, spare = blocks[q:q + 2]
    c, s, y, y2 = blocks[:q] + blocks[q + 2:]
    np.matmul(x, x, out=y)
    np.matmul(y, y, out=y2)
    np.matmul(y2, y, out=y3)
    _taylor_in_y(_COS_TAYLOR, y, y2, y3, out=c, spare=spare)
    _taylor_in_y(_NEG_SIN_TAYLOR, y, y2, y3, out=spare, spare=s)
    np.matmul(x, spare, out=s)
    for _ in range(squarings):
        np.subtract(c, s, out=y3)
        np.add(c, s, out=spare)
        np.matmul(s, c, out=y2)
        y2 *= 2.0
        np.matmul(y3, spare, out=y)
        c, s, y, y2 = y, y2, c, s
    return _to_computational(u, 0.5, c, s, scratch, ek)


def _phase_bound(model, schedule) -> float:
    """The largest tau b_k over the slices, b_k from
    ``model.slice_norm_bounds``. Every path runs this check before any
    squaring or eigendecomposition: after ``model.check_fields``,
    OutOfRange names the first slice whose tau b_k is not finite or is
    above MAX_SLICE_PHASE."""
    check_fields(model, schedule.values)
    with np.errstate(over="ignore"):
        bounds = schedule.tau * slice_norm_bounds(model, schedule.values)
    if not (bound := bounds.max()) <= MAX_SLICE_PHASE:
        k = np.argmax(bounds > MAX_SLICE_PHASE)
        raise OutOfRange(f"slice {k}: tau times its Hamiltonian's norm bound "
                         f"is {bounds[k]:.3g}, above {MAX_SLICE_PHASE:.3g}: "
                         "field amplitudes too large to evolve")
    return float(bound)


def _squarings(model, schedule):
    """The squaring count s of the forward path (``_taylor_propagators``),
    one for the whole schedule: s = ceil(log2(tau b)) for the bound
    b >= ||A||_2 of every slice's real blocks (``_phase_bound``), so that
    ||tau A / 2^s||_2 <= 1; s = 0 where tau b <= 1, a zero bound included.
    Since no chunk has its own s, no slice's propagator depends on the
    chunk that holds it.
    """
    bound = _phase_bound(model, schedule)
    return max(0, math.ceil(math.log2(bound))) if bound > 0 else 0


def _propagator_chunks(model, schedule):
    """The propagator stacks of consecutive ranges of the schedule's
    slices, slice 1 first: max(2, CHUNK_BYTES // (16 d^2)) slices each,
    and a lone last slice joins the range before it.

    No range of a longer schedule is one slice, because numpy multiplies a
    one-row operand as a matrix-vector product, which rounds the Ising
    frame phases (``model.ising_parity_blocks``) apart from the batched
    product. Each chunk keeps the schedule's own tau and its one squaring
    count (``_squarings``), read from every slice's amplitudes, not the
    chunk's; so every chunk's propagators are bitwise those of the whole
    stack. The schedule is checked whole first (``_phase_bound``), so an
    error names its slice and shape, not a chunk's.

    One workspace (``_workspace``), sized for the longest range and the
    first chunk's blocks, is allocated per call and every chunk is built
    into it (``_taylor_propagators``), so each stack yielded is a view
    that the next chunk overwrites: the caller may write over it but must
    copy what it keeps. Freeing a chunk's temporaries before the next is
    built returned the heap top to the OS and faulted it in again for
    every chunk.
    """
    squarings = _squarings(model, schedule)
    step = max(2, CHUNK_BYTES // (16 * model.dim ** 2))
    starts = list(range(0, max(1, schedule.n_slices - 1), step))
    ranges = list(zip(starts, starts[1:] + [schedule.n_slices]))
    out = None
    for lo, hi in ranges:
        u, x = _real_blocks(model, schedule.values[:, :, lo:hi])
        if out is None:
            out = _workspace(model.dim, max(hi - lo for lo, hi in ranges),
                             x[0].size)
        ek = _taylor_propagators(u, x, schedule.tau, squarings, out)
        del u, x                        # before the caller reads the chunk
        yield ek


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


def _matmul(a, x, out):
    """a @ x into out for a real stack a and complex stacks x and out: x
    viewed as float pairs, a d x 2d right-hand side, dgemm at half zgemm's
    flops."""
    np.matmul(a, x.view(float), out=out.view(float))
    return out


def error_and_gradient(target, model: SpinChainModel, schedule: PulseSchedule):
    """(error, d error / d h) with the gradient shaped like schedule.values.

    Adjoint evaluation: with prefix products P_k and suffix products S_k,
    d eps^2 / d theta_k = -2 Re tr(M_k dE_k), M_k = P_{k-1} target^dag S_k,
    and dE_k follows from the divided-difference kernel in the slice
    eigenbasis. Every product is unitary, so S_k = P_K P_k^dag and M is
    two batched products of the prefixes. At eps below the floor the
    gradient is zero by convention.

    The peak is reached while M is formed from the real eigenvectors, the
    prefixes (over the propagators) and X: three and a half K x d x d
    complex stacks on either coupling. Then X is dropped, and the later
    steps run in the prefix and M stacks.
    """
    target = check_target(target, model)
    _phase_bound(model, schedule)
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
    # The eigenvectors are B V with V real: B = diag(u) on the Ising chain
    # and the fixed basis W = Q D on the Heisenberg chain (``_real_blocks``).
    # The adjoint in the eigenbasis is V^T M' V with M' = B^dag M B: two
    # O(K d^2) scalings, or D^dag Q M Q D through the spent prefixes' stack.
    if u is None:
        _pair_phases(_pair_butterfly(m, prefix, m), 1j)      # 2 M'
    else:
        m *= u.conj()[:, :, None]
        m *= u[:, None, :]
    # A^T = V^T (V^T M')^T and G'^T = V (V Y)^T: each side is two products
    # and one transposed copy, so every right operand is a plain stack,
    # which the real V reads as float pairs; the spent prefixes' stack is
    # the second buffer.
    vt = v.transpose(0, 2, 1)
    vt_m = _matmul(vt, m, out=prefix)
    m[...] = vt_m.transpose(0, 2, 1)
    y = _matmul(vt, m, out=prefix)                          # A^T
    for k in range(schedule.n_slices):
        y[k] *= loewner_kernel(w[k], schedule.tau)
    # tr(Y_k (B V)^dag dH (B V)) = sum_jl G_k[j, l] dH[j, l] with
    # G_k = conj(B) G'_k B^T and G'_k = V Y_k V^T
    v_y = _matmul(v, y, out=m)
    prefix[...] = v_y.transpose(0, 2, 1)
    g_t = _matmul(v, prefix, out=m)                         # G'^T
    # d H / d h[x, n] is FIELD_SCALE at (j, partner[n, j]) and d H / d h[y, n]
    # is -i FIELD_SCALE spin[n, j] there (``model.flip_pairs``), so each
    # amplitude reads d entries of G_k^T = B G'_k^T B^dag, and
    # d eps = d eps^2 / 2 eps. On the Ising chain the frame scales the d
    # entries alone; the butterflies of W double M' and G^T, a quarter.
    partner, spin = flip_pairs(model.n_qubits)
    if u is None:
        _pair_butterfly(_pair_phases(g_t, -1j), prefix, g_t)
    pairs = g_t[:, partner, np.arange(model.dim)]            # (K, N, d)
    pairs *= 0.25 if u is None else u.conj()[:, None, :] * u[:, partner]
    grad = np.empty_like(schedule.values)
    grad[0] = pairs.real.sum(axis=-1).T
    grad[1] = (pairs.imag * spin).sum(axis=-1).T
    grad *= -FIELD_SCALE / eps
    return eps, grad
