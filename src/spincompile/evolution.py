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
schedule (``_taylor_propagators``); the error trace reads the distances
of each chunk's prefixes to the target in one reduction. The gradient of
the gate error with respect to every pulse amplitude reads the
eigenbasis, so it takes exact exponentials from a batched real
eigendecomposition of the blocks (``_spectral_propagators``): one
forward pass (the eigendecomposition and the prefix products) and one
backward pass through the divided-difference kernel, exact to machine
precision rather than a finite-difference estimate.
There are two time-ordered products. ``evolve`` reads only the full
product, which a pairwise tree forms in about log2 K batched matmuls;
the error trace and the gradient read every prefix, which one matmul loop
writes over the propagators. Every path walks the schedule in one way, in
chunks of consecutive slices (``_chunk_ranges``), at most CHUNK_BYTES of
propagators each, and builds each chunk into the buffers of one walk
(``_chunk_buffers``): a float scratch allocated once per call and either
one chunk-sized propagator stack that every chunk reuses, for the forward
path, or the chunk's slices of the gradient's whole prefix stack. The
forward path holds one chunk at a time and carries the product across
chunks, so its memory does not grow with K. The gradient
eigendecomposes its chunks first and keeps one record per chunk (the
frame, the eigenvalues and the real blocks' eigenvectors) until the
backward pass reaches that chunk. The backward pass is batched over
the slices of a chunk: each adjoint is two products of the prefixes,
carried through its slice's eigenbasis by batched matmuls into one
chunk-sized buffer and the chunk's spent prefixes, and every amplitude's
derivative is read off the adjoint by a gather: a field term couples
basis state j only to j with its site's bit flipped
(``model.flip_pairs``). The eigenbasis is the frame or W times a real
matrix, so the basis changes are real products against complex operands
viewed as float pairs, at half the flops of complex ones, and the frame
or W enters as O(K d^2) scalings or butterflies. The gradient keeps one
K x d x d complex stack whole, the propagators and then the prefixes over
them, beside the chunks' records, and runs the rest chunk by chunk: at
N = 6, K = 440 its peak is 1.36 such stacks on the Ising chain and 1.59
on the Heisenberg chain, and at N = 7, K = 4, one chunk, 3.79 and 3.88.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NonUnitaryTarget, OutOfRange
from .linalg import frobenius_distance, frobenius_norms, loewner_kernel
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
# stack and scratch per call (``_chunk_buffers``): with fresh stacks per
# chunk, whose freeing handed the heap top back to the OS, a replay pass
# took about 3.8k minor faults; with the one pair, under 30 (both measured
# when the Ising chunks came from an eigendecomposition). The Taylor
# polynomial runs in the same buffers: the propagator stack viewed as
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


def _spectral_propagators(u, w, vb, tau, ek, scratch):
    """The propagators E_k = exp(-i tau H_k) of one chunk, built into its
    buffers (ek, scratch) of ``_chunk_buffers`` from its real blocks'
    eigendecomposition: eigenvalues w (K, B, m), eigenvectors vb
    (K, B, m, m) and the Ising frame phases u (K, d) or None
    (``_real_blocks``); the gradient's builder, which reads the
    eigenbasis. Slice k's eigenvectors are B_k v_k with v_k real
    (``_eigenvectors``): diag(u_k) Q blockdiag(V+, V-) from its parity
    blocks on the Ising chain, and W times its real slice's own on the
    Heisenberg chain.

    Each block's exponential V diag(phases) V^T is one real matmul
    against the phased operand diag(phases) V^T viewed as float pairs, and
    ``_to_computational`` takes it back to E_k in O(K d^2). On both
    couplings the operand takes the scratch's front, which
    ``_to_computational`` writes over once it is spent, and the block
    exponential the front of ek, which it reads before it writes E_k
    there. ek is the caller's own, a view: ``_prefix_products`` consumes
    it, writing the prefix products over the propagators.
    """
    operand = scratch[:2 * vb.size].view(complex).reshape(vb.shape)
    np.multiply(np.exp(-1j * tau * w)[..., :, None], vb.swapaxes(-1, -2),
                out=operand)
    eb = ek.reshape(-1)[:vb.size].reshape(vb.shape)
    np.matmul(vb, operand.view(float), out=eb.view(float))
    return _to_computational(u, eb.real, eb.imag, scratch, ek)


def _eigenvectors(vb):
    """The real factor v (K, d, d) of the eigenvectors B v from the real
    blocks' eigenvectors vb (K, B, m, m) of ``_real_blocks``: on the
    Heisenberg chain (B = 1) a view of vb, on the Ising chain a new array,
    Q blockdiag(V+, V-) from its parity blocks, half a complex stack,
    gathered and scaled by ``_parity_layouts``."""
    if vb.shape[1] == 1:
        return vb[:, 0]
    _, at, scale = _parity_layouts(2 * vb.shape[-1])
    v = np.take(vb.reshape(len(vb), -1), at, axis=1)
    v *= scale
    return v


def _to_computational(u, c, s, scratch, ek):
    """E_k (K, d, d) into ek from the exponentials of the real blocks
    (``_real_blocks``), given as their real and imaginary parts c and s
    (K, B, m, m), which may be views: the coupling's one way back to the
    computational basis, O(K d^2). Each way sums pairs, which doubles, so
    it halves once, by an exact scaling. The front of the float scratch
    holds the complex intermediate X, so it must not hold c and s; ek may
    hold them.

    Heisenberg: X = (c + is) / 2, half the block exponential, is written
    to the scratch's front. D X D^dag turns its off-diagonal quadrants
    by -i and i (``_pair_phases``), and the butterfly
    (``_pair_butterfly``), twice Q (.) Q, whose row pass the rest of the
    scratch holds, gives E_k = Q D (2 X) D^dag Q.

    Ising: the sum and difference of the two blocks, halved, are the
    blocks S and D of E_k = [[S, D J], [J D, J S J]] (J reverses the
    order), gathered into ek (``_parity_layouts``) and scaled by the frame
    u_j conj(u_l). The gather clips its indices (all in range) rather
    than raising, because a checked ``np.take`` into ek writes to a
    temporary copy of ek first, one more stack.
    """
    z = scratch[:2 * c.size].view(complex).reshape(c.shape)
    if u is None:
        z = z.reshape(ek.shape)
        np.multiply(c[:, 0], 0.5, out=z.real)
        np.multiply(s[:, 0], 0.5, out=z.imag)
        rows = scratch[2 * c.size:4 * c.size].view(complex).reshape(ek.shape)
        return _pair_butterfly(_pair_phases(z, -1j), rows, ek)
    np.add(c[:, 0], c[:, 1], out=z.real[:, 0])
    np.subtract(c[:, 0], c[:, 1], out=z.real[:, 1])
    np.add(s[:, 0], s[:, 1], out=z.imag[:, 0])
    np.subtract(s[:, 0], s[:, 1], out=z.imag[:, 1])
    np.take(z.reshape(len(ek), -1), _parity_layouts(ek.shape[-1])[0], axis=1,
            out=ek, mode="clip")
    ek *= (0.5 * u)[:, :, None]
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
def _parity_layouts(dim: int):
    """The Ising chain's two gathers from a (2, d/2, d/2) stack of parity
    blocks, as flat indices (d, d), and the eigenvectors' factor (d, d).
    In both, row j < d/2 reads block row j and row j >= d/2 its mirror
    d-1-j (J).

    E_k from its sum and difference blocks (S, D): the columns fold as the
    rows do, and an entry reads S where row and column lie in the same
    half, else D. Q blockdiag(V+, V-) from the parity blocks'
    eigenvectors: column l < d/2 reads V+ and l >= d/2 column l - d/2 of
    V-. Every factor is 1/sqrt2, negated where both j and l are at least
    d/2, which rounds as negating and then scaling by 1/sqrt2.
    """
    half = dim // 2
    idx = np.arange(dim)
    lower = idx >= half
    fold = np.where(lower, dim - 1 - idx, idx)
    propagator = ((lower[:, None] ^ lower) * half + fold[:, None]) * half + fold
    vectors = ((lower * half + fold[:, None]) * half
               + np.where(lower, idx - half, idx))
    scale = np.where(lower[:, None] & lower, -np.sqrt(0.5), np.sqrt(0.5))
    for a in (propagator, vectors, scale):
        a.setflags(write=False)
    return propagator, vectors, scale


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


def _taylor_propagators(u, x, tau, squarings, ek, scratch):
    """The propagators E_k (K, d, d) of the real blocks x and frame u of
    ``_real_blocks``, slices of duration tau, built into one chunk's
    buffers (ek, scratch) of ``_chunk_buffers`` with no
    eigendecomposition: the forward path's builder. In real arithmetic, each
    block's exponential exp(-i tau A) = cos(tau A) - i sin(tau A) comes
    from scaling and squaring a truncated Taylor series (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)).

    With X = tau A / 2^s (s = squarings), C = cos X and S = -sin X =
    X q(Y) come from polynomials of degree 8 in Y = X^2, evaluated by
    Paterson-Stockmeyer (SIAM J. Comput. 2, 60 (1973)) from Y, Y^2 and
    Y^3 (``_taylor_in_y``): eight block matmuls. Each of the s squarings
    (C, S) -> ((C - S)(C + S), 2 S C) takes two, since C and S commute.
    Then ``_to_computational`` takes C + iS back to E_k.

    The six real block stacks (Y, Y^2, Y^3, the Horner spare, C and S)
    are the chunk's buffers: ek viewed as float holds q of them (four on
    the Ising chain, two on the Heisenberg chain) and the scratch the
    rest. Y^3 and the spare take the front of the scratch,
    where ``_to_computational`` writes, and C and S end in the others. X
    is scaled over the blocks' own array.
    """
    x *= tau / 2.0 ** squarings
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
    return _to_computational(u, c, s, scratch, ek)


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


def _chunk_ranges(dim, k_slices):
    """(lo, hi) of consecutive ranges of k_slices slices, slice 1 first:
    max(2, CHUNK_BYTES // (16 d^2)) slices each, and a lone last slice
    joins the range before it; the one rule of every path that walks a
    schedule in chunks.

    No range of a longer schedule is one slice, because numpy multiplies a
    one-row operand as a matrix-vector product, which rounds the Ising
    frame phases (``model.ising_parity_blocks``) apart from the batched
    product.
    """
    step = max(2, CHUNK_BYTES // (16 * dim * dim))
    bounds = [*range(0, max(1, k_slices - 1), step), k_slices]
    return [*zip(bounds, bounds[1:])]


def _chunk_buffers(model, ranges, stack=None):
    """(lo, hi, ek, scratch) for each range (lo, hi) of ``_chunk_ranges``,
    in order: the one walk over a schedule's chunks, and the buffers each
    chunk's propagators are built into (``_taylor_propagators``,
    ``_spectral_propagators``). ek (hi - lo, d, d) is the chunk's slices
    of stack, the gradient's whole prefix stack; with no stack, it is the
    front of one stack as long as the longest range, which every chunk
    reuses. The float scratch, one per walk, is allocated after the stack
    at the first chunk.

    The two hold six real block stacks of the longest range
    (``_real_blocks``), the six of ``_taylor_propagators``: the Ising
    chain's blocks have d^2 / 2 entries per slice, so ek viewed as float
    holds four and the scratch two; the Heisenberg chain's have d^2, so ek
    holds two and the scratch four. Each builder writes the block
    exponential into ek and its other operands into the scratch, whose
    front ``_to_computational`` writes over last.
    """
    dim, longest = model.dim, max(hi - lo for lo, hi in ranges)
    reuse = stack is None
    if reuse:
        stack = np.empty((longest, dim, dim), dtype=complex)
    block = dim * dim // 2 if model.interaction == ISING else dim * dim
    scratch = np.empty(longest * (6 * block - 2 * dim * dim))
    for lo, hi in ranges:
        yield lo, hi, stack[:hi - lo] if reuse else stack[lo:hi], scratch


def _propagator_chunks(model, schedule):
    """The propagator stacks of the schedule's chunks (``_chunk_ranges``),
    slice 1 first.

    Each chunk keeps the schedule's own tau and its one squaring count
    (``_squarings``), read from every slice's amplitudes, not the chunk's;
    so every chunk's propagators are bitwise those of the whole stack. The
    schedule is checked whole first (``_phase_bound``), so an error names
    its slice and shape, not a chunk's.

    Every chunk is built (``_taylor_propagators``) into the one
    chunk-sized stack and scratch of ``_chunk_buffers``, so each stack
    yielded is a view that the next chunk overwrites: the caller may write
    over it but must copy what it keeps. Freeing a chunk's temporaries
    before the next is built returned the heap top to the OS and faulted
    it in again for every chunk.
    """
    squarings = _squarings(model, schedule)
    for lo, hi, ek, scratch in _chunk_buffers(
            model, _chunk_ranges(model.dim, schedule.n_slices)):
        u, x = _real_blocks(model, schedule.values[:, :, lo:hi])
        ek = _taylor_propagators(u, x, schedule.tau, squarings, ek, scratch)
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
    array, never a view of the chunks' stack.
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
    Once its last prefix is copied out, the chunk's prefixes are spent:
    the target is subtracted from them in place and one reduction
    (``linalg.frobenius_norms``) reads all of their distances, each the
    bits ``frobenius_distance`` gives for that prefix alone.
    """
    target = check_target(target, model)
    errs = [[frobenius_distance(target, np.eye(model.dim, dtype=complex))]]
    prefix = None
    for ek in _propagator_chunks(model, schedule):
        if prefix is not None:
            ek[0] = ek[0] @ prefix
        prefix = _prefix_products(ek)[-1].copy()   # before ek is spent
        errs.append(frobenius_norms(np.subtract(ek, target, out=ek)))
    times = schedule.tau * np.arange(schedule.n_slices + 1)
    return ErrorTrace(times=times, errors=np.concatenate(errs))


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
    eigenbasis. Every product is unitary, so S_k = P_K P_k^dag and
    M_k = P_{k-1} (P_k C)^dag with C = P_K^dag target: two products of the
    prefixes. At eps below the floor the gradient is zero by convention.

    The propagators, then the prefixes over them, are the one K x d x d
    complex stack kept whole. The rest runs chunk by chunk
    (``_chunk_ranges``). Each chunk's real blocks are eigendecomposed
    first, into one record (lo, hi, u, w, vb) per chunk: its frame, its
    eigenvalues and its real blocks' eigenvectors (a quarter of a stack
    on the Ising chain, half on the Heisenberg chain). Only then are the
    prefix stack and the walk's scratch allocated (``_chunk_buffers``),
    and each chunk's propagators are built from its record
    (``_spectral_propagators``) into its slices of the stack. The
    backward pass runs from the last chunk, with X and M chunk-sized and
    the chunk's spent prefixes as the second buffer, and pops each record
    as it reaches its chunk: the Ising chain's eigenvectors are freed once
    gathered into the dense real factor. At N = 6, K = 440 the peak is
    1.36 stacks on the Ising chain and 1.59 on the Heisenberg chain. A
    schedule of one chunk holds the whole stack of X and of M beside the
    prefixes, as a pass over the whole stack would, and peaks at three
    and a half to four of its stacks at N >= 5 (Ising 3.79 and
    Heisenberg 3.88 at N = 7, K = 4), which are small: one chunk holds at
    most CHUNK_BYTES of propagators and one slice more, or three slices
    at N >= 8.
    """
    target = check_target(target, model)
    _phase_bound(model, schedule)
    ranges = _chunk_ranges(model.dim, schedule.n_slices)
    records = []            # every chunk's, before the stack and scratch
    for lo, hi in ranges:
        u, blocks = _real_blocks(model, schedule.values[:, :, lo:hi])
        records.append((lo, hi, u, *np.linalg.eigh(blocks)))
    del u, blocks
    ek = np.empty((schedule.n_slices, model.dim, model.dim), dtype=complex)
    for (_, _, u, w, vb), (_, _, e, scratch) in zip(
            records, _chunk_buffers(model, ranges, ek)):
        _spectral_propagators(u, w, vb, schedule.tau, e, scratch)
    del scratch
    prefix = _prefix_products(ek)
    eps = frobenius_distance(target, prefix[-1])
    if eps < GRADIENT_EPS_FLOOR:
        return eps, np.zeros_like(schedule.values)

    # The chunks run from the last, with the prefixes read-only until M is
    # formed into its chunk-sized buffer. X is then dropped, and the
    # chunk's prefixes, which no earlier chunk reads, are spent: they are
    # the second buffer of the later steps.
    ms = np.empty((max(hi - lo for lo, hi in ranges), model.dim, model.dim),
                  dtype=complex)
    c = prefix[-1].conj().T @ target
    partner, spin = flip_pairs(model.n_qubits)
    grad = np.empty_like(schedule.values)
    while records:
        lo, hi, u, w, vb = records.pop()
        # M_k = P_{k-1} X_k with X_k = (P_k C)^dag and P_0 = 1
        p, m, first = prefix[lo:hi], ms[:hi - lo], int(lo == 0)
        x = p @ c
        x = np.conjugate(x, out=x).transpose(0, 2, 1)
        m[:first] = x[:first]
        np.matmul(prefix[lo + first - 1:hi - 1], x[first:], out=m[first:])
        del x
        # The eigenvectors are B v with v real (``_eigenvectors``): B =
        # diag(u) on the Ising chain and the fixed basis W = Q D on the
        # Heisenberg chain (``_real_blocks``). The adjoint in the
        # eigenbasis is v^T M' v with M' = B^dag M B: two O(K d^2)
        # scalings, or D^dag Q M Q D through the spent prefixes p.
        if u is None:
            _pair_phases(_pair_butterfly(m, p, m), 1j)      # 2 M'
        else:
            m *= u.conj()[:, :, None]
            m *= u[:, None, :]
        # A^T = v^T (v^T M')^T and G'^T = v (v Y)^T: each side is two
        # products and one transposed copy, so every right operand is a
        # plain stack, which the real v reads as float pairs
        v = _eigenvectors(vb)
        del vb                   # the Ising chain's, gathered into v
        vt = v.transpose(0, 2, 1)
        vt_m = _matmul(vt, m, out=p)
        m[...] = vt_m.transpose(0, 2, 1)
        y = _matmul(vt, m, out=p)                           # A^T
        for y_k, w_k in zip(y, w.reshape(hi - lo, -1)):
            y_k *= loewner_kernel(w_k, schedule.tau)
        # tr(Y_k (B v)^dag dH (B v)) = sum_jl G_k[j, l] dH[j, l] with
        # G_k = conj(B) G'_k B^T and G'_k = v Y_k v^T
        v_y = _matmul(v, y, out=m)
        p[...] = v_y.transpose(0, 2, 1)
        g_t = _matmul(v, p, out=m)                          # G'^T
        # d H / d h[x, n] is FIELD_SCALE at (j, partner[n, j]) and
        # d H / d h[y, n] is -i FIELD_SCALE spin[n, j] there
        # (``model.flip_pairs``), so each amplitude reads d entries of
        # G_k^T = B G'_k^T B^dag, and d eps = d eps^2 / 2 eps. On the Ising
        # chain the frame scales the d entries alone; the butterflies of W
        # double M' and G^T, a quarter.
        if u is None:
            _pair_butterfly(_pair_phases(g_t, -1j), p, g_t)
        pairs = g_t[:, partner, np.arange(model.dim)]        # (n, N, d)
        pairs *= (0.25 if u is None
                  else u.conj()[:, None, :] * u[:, partner])
        g = grad[:, :, lo:hi]
        g[0] = pairs.real.sum(axis=-1).T
        g[1] = (pairs.imag * spin).sum(axis=-1).T
    grad *= -FIELD_SCALE / eps
    return eps, grad
