import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from test_linalg import expm_taylor
from test_model import pair_basis

import spincompile.evolution as evolution
import spincompile.model as model_module
from spincompile.errors import DimensionMismatch, NonUnitaryTarget, OutOfRange
from spincompile.evolution import (GRADIENT_EPS_FLOOR, _prefix_products,
                                   _slice_propagators, error_and_gradient,
                                   error_trace, evolve, gate_error)
from spincompile.gates import pauli_x
from spincompile.instructions import load_bundled_schedule, quvis_gate_physical
from spincompile.linalg import (DEGENERATE_GAP, frobenius_distance,
                                loewner_kernel)
from spincompile.model import (HEISENBERG, ISING, coupling_hamiltonian,
                               nearest_neighbor_chain, site_operator,
                               slice_hamiltonians, slice_norm_bounds)
from spincompile.schedule import (AXES, PulseSchedule, random_init,
                                  refine_double, zeros)


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def control_operators(model):
    """Stack of d H / d h[axis, n], shape (2, N, dim, dim), dense."""
    n = model.n_qubits
    ops = np.empty((len(AXES), n, model.dim, model.dim), dtype=complex)
    for a, ax in enumerate(AXES):
        for q in range(n):
            ops[a, q] = 2 * np.pi * site_operator(ax, q, n)
    return ops


def loop_error_and_gradient(target, model, schedule):
    """The per-slice backward loop that the batched pass replaced, kept as
    its reference: same prefix products, one slice at a time backwards."""
    k_slices = schedule.n_slices
    w, u, v, ek = _slice_propagators(model, schedule.values, schedule.tau)
    v = pair_basis(model.dim) @ v if u is None else u[:, :, None] * v
    prefix = np.empty((k_slices + 1, model.dim, model.dim), dtype=complex)
    prefix[0] = np.eye(model.dim)
    for k in range(k_slices):
        prefix[k + 1] = ek[k] @ prefix[k]
    eps = frobenius_distance(target, prefix[k_slices])
    ops = control_operators(model)
    grad_sq = np.empty((len(AXES), model.n_qubits, k_slices))
    suffix = np.eye(model.dim, dtype=complex)
    tdag = target.conj().T
    for k in range(k_slices - 1, -1, -1):
        m = prefix[k] @ tdag @ suffix
        vk = v[k]
        wmat = vk.conj().T @ m @ vk
        y = wmat.T * loewner_kernel(w[k], schedule.tau)
        z = np.einsum("ji,anjl,lm->anim", vk.conj(), ops, vk, optimize=True)
        grad_sq[:, :, k] = -2.0 * np.real(np.einsum("im,anim->an", y, z,
                                                    optimize=True))
        suffix = suffix @ ek[k]
    return eps, grad_sq / (2.0 * eps)


def test_zero_schedule_single_qubit_identity():
    model = nearest_neighbor_chain(1)
    assert np.allclose(evolve(model, zeros(1, 0.7, 3)), np.eye(2), atol=1e-12)


def test_two_qubit_coupling_phase():
    model = nearest_neighbor_chain(2)
    u = evolve(model, zeros(2, 1.0, 10))
    expect = np.diag(np.exp(-1j * np.pi / 2 * np.array([1, -1, -1, 1])))
    assert np.linalg.norm(u - expect) <= 1e-10


def test_golden_u0_replay():
    model = nearest_neighbor_chain(2)
    sched = load_bundled_schedule("u0")
    err = gate_error(quvis_gate_physical(0), model, sched)
    assert err <= 0.05


def test_gate_error_of_own_evolution_is_zero():
    model = nearest_neighbor_chain(2)
    sched = random_init(2, 0.4, 5, amplitude=1.0, seed=3)
    u = evolve(model, sched)
    assert gate_error(u, model, sched) == 0.0


def test_gate_error_identity_vs_x():
    model = nearest_neighbor_chain(1)
    err = gate_error(pauli_x().matrix, model, zeros(1, 0.2, 2))
    assert err == pytest.approx(2.0)


def test_gate_error_is_recomputable_distance():
    model = nearest_neighbor_chain(2)
    sched = random_init(2, 0.6, 8, amplitude=1.0, seed=11)
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    err = gate_error(q, model, sched)
    assert err == pytest.approx(np.linalg.norm(q - evolve(model, sched)))


def test_dimension_mismatch():
    model = nearest_neighbor_chain(2)
    with pytest.raises(DimensionMismatch):
        gate_error(np.eye(2), model, zeros(2, 0.3, 3))


@pytest.mark.parametrize("entry", [gate_error, error_trace])
def test_forward_path_names_the_whole_schedule(entry):
    # the 7-qubit forward path walks 4-slice chunks; the width check reads
    # the schedule's fields whole, so its message names their shape
    model = nearest_neighbor_chain(7)
    with pytest.raises(DimensionMismatch, match=r"fields of shape \(2, 6, 49\)"):
        entry(np.eye(model.dim), model, zeros(6, 2.45, 49))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [error_and_gradient, gate_error, error_trace])
def test_non_finite_target_rejected(entry, bad):
    # a nan never compares above a tolerance, so only an explicit check
    # keeps it from coming back as a nan error or gradient
    model = nearest_neighbor_chain(2)
    target = np.eye(4, dtype=complex)
    target[2, 3] = bad
    with pytest.raises(NonUnitaryTarget, match="not finite.*row 2, column 3"):
        entry(target, model, random_init(2, 0.4, 3, amplitude=1.0, seed=1))


# every path from a schedule to its evolution, as (model, schedule) -> result
EVOLUTION_PATHS = {
    "evolve": evolve,
    "error_trace": lambda model, sched: error_trace(np.eye(model.dim), model,
                                                    sched),
    "error_and_gradient": lambda model, sched: error_and_gradient(
        np.eye(model.dim), model, sched),
}


@pytest.mark.parametrize("path", EVOLUTION_PATHS)
@pytest.mark.parametrize("amplitude", [1e200, 1e308])
@pytest.mark.parametrize("interaction", [ISING, HEISENBERG])
def test_amplitudes_too_large_to_evolve_are_rejected(interaction, amplitude,
                                                     path):
    # unchecked, 1e200 gave non-finite or finite but meaningless outputs,
    # and 1e308 overflowed the squaring count or failed in LAPACK
    model = nearest_neighbor_chain(2, interaction=interaction)
    sched = PulseSchedule(1.0, np.full((2, 2, 3), amplitude))
    with pytest.raises(OutOfRange, match=r"^slice 0: .*too large to evolve"):
        EVOLUTION_PATHS[path](model, sched)


@pytest.mark.parametrize("path", EVOLUTION_PATHS)
@pytest.mark.parametrize("interaction", [ISING, HEISENBERG])
def test_slice_too_large_to_evolve_is_named(interaction, path):
    # the check reads the whole schedule before any chunk: the 7-qubit
    # forward path's second chunk holds slice 5
    model = nearest_neighbor_chain(7, interaction=interaction)
    sched = random_init(7, 0.7, 14, amplitude=1.0, seed=6)
    values = sched.values.copy()
    values[:, 3, 5] = 1e9
    with pytest.raises(OutOfRange, match=r"^slice 5: .* is 2\.2\de\+08, "
                                         r"above 6\.71e\+07"):
        EVOLUTION_PATHS[path](model, sched.with_values(values))


@pytest.mark.parametrize("interaction", [ISING, HEISENBERG])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_slice_propagators_match_taylor_exponential(n, interaction):
    model = nearest_neighbor_chain(n, interaction=interaction)
    sched = random_init(n, 0.3, 3, amplitude=1.5, seed=n)
    *_, ek = _slice_propagators(model, sched.values, sched.tau)
    for k, h in enumerate(slice_hamiltonians(model, sched.values)):
        assert np.max(np.abs(ek[k] - expm_taylor(h, sched.tau))) <= 1e-12


def _schedule_with_zero_fields(n, k_slices, seed):
    """A random schedule whose slice k = 1 has every field zero and
    whose slice k = 2 has both fields of site 0 negative zero (the Ising
    frame phase atan2(-0., -0.) is -pi)."""
    sched = random_init(n, 0.25 * k_slices, k_slices, amplitude=1.5, seed=seed)
    values = sched.values.copy()
    values[:, :, 1] = 0.0
    values[:, 0, 2] = -0.0
    return sched.with_values(values)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_parity_propagators_match_complex_eigh(n):
    model = nearest_neighbor_chain(n)
    sched = _schedule_with_zero_fields(n, 4, seed=20 + n)
    w, u, p, ek = _slice_propagators(model, sched.values, sched.tau)
    assert p.dtype == float
    v = u[:, :, None] * p
    hk = slice_hamiltonians(model, sched.values)
    ref_w, ref_v = np.linalg.eigh(hk)
    ref_ek = (ref_v * np.exp(-1j * sched.tau * ref_w)[:, None, :]) \
        @ ref_v.conj().transpose(0, 2, 1)
    assert np.max(np.abs(ek - ref_ek)) <= 1e-13
    vdag = v.conj().transpose(0, 2, 1)
    assert np.max(np.abs(vdag @ v - np.eye(model.dim))) <= 1e-12
    rebuilt = (v * w[:, None, :]) @ vdag
    assert np.max(np.abs(rebuilt - hk)) <= 1e-12 * np.max(np.abs(hk))
    assert np.allclose(np.sort(w, axis=1), ref_w, rtol=0, atol=1e-12)


def test_ising_slices_are_not_solved_as_complex_matrices(monkeypatch):
    def refuse(*args):
        raise AssertionError("complex slice Hamiltonians built")

    # the dense builder is the tests' reference; evolution never imports it
    assert not hasattr(evolution, "slice_hamiltonians")
    monkeypatch.setattr(model_module, "slice_hamiltonians", refuse)
    model = nearest_neighbor_chain(3)
    sched = random_init(3, 0.6, 4, amplitude=1.0, seed=3)
    u = evolve(model, sched)
    assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-12


def _forward_stack(model, sched):
    """Every slice's propagator as the forward path builds it, chunk by
    chunk, copied out of the workspace."""
    return np.concatenate(
        [ek.copy() for ek in evolution._propagator_chunks(model, sched)])


def _on_both_couplings(cases):
    """(interaction, *case) params for each case on both couplings: the
    Ising ones keep the case's id, the Heisenberg ones prefix it."""
    return [pytest.param(interaction, *case.values, id=prefix + case.id)
            for interaction, prefix in ((ISING, ""),
                                        (HEISENBERG, "heisenberg_xyz-"))
            for case in cases]


@pytest.mark.parametrize("reach, squarings", [(0.75, 0), (40.0, 6)])
@pytest.mark.parametrize("k_slices", [1, 2, 7])
@pytest.mark.parametrize("interaction, n", _on_both_couplings(
    [pytest.param(n, id=str(n)) for n in range(1, 9)]))
def test_forward_propagators_match_the_spectral_ones(interaction, n, k_slices,
                                                     reach, squarings):
    # tau scaled so that tau times the schedule's bound on the real blocks'
    # 2-norm is reach: the Taylor polynomial alone, and six squarings of it
    model = nearest_neighbor_chain(n, interaction=interaction)
    values = random_init(n, 1.0, k_slices, amplitude=1.0, seed=n).values
    tau = reach / slice_norm_bounds(model, values).max()
    sched = PulseSchedule(tau * k_slices, values)
    assert evolution._squarings(model, sched) == squarings
    ek = _forward_stack(model, sched)
    assert np.abs(ek - _slice_propagators(model, values, tau)[-1]).max() \
        <= 1e-13
    ekdag = ek.conj().transpose(0, 2, 1)
    assert np.abs(ekdag @ ek - np.eye(model.dim)).max() <= 1e-12


@pytest.mark.parametrize("interaction, n, sched", _on_both_couplings([
    *(pytest.param(n, _schedule_with_zero_fields(n, 4, seed=30 + n),
                   id=f"{n}-sched{n - 1}") for n in range(1, 8)),
    pytest.param(1, zeros(1, 1.0, 3), id="all-zero")]))
def test_forward_propagators_of_zero_fields(interaction, n, sched):
    # slices with every field zero, or site 0's fields negative zero; the
    # all-zero one-qubit schedule has a zero bound, so no squaring
    model = nearest_neighbor_chain(n, interaction=interaction)
    ek = _forward_stack(model, sched)
    ref = _slice_propagators(model, sched.values, sched.tau)[-1]
    assert np.abs(ek - ref).max() <= 1e-13
    if not sched.values.any():
        assert evolution._squarings(model, sched) == 0
        assert np.array_equal(ek, np.broadcast_to(np.eye(2), ek.shape))


@pytest.mark.parametrize("interaction", [ISING, HEISENBERG])
def test_forward_path_takes_no_eigendecomposition(monkeypatch, interaction):
    def refuse(*args):
        raise AssertionError("eigendecomposition taken")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    model = nearest_neighbor_chain(3, interaction=interaction)
    sched = random_init(3, 0.6, 4, amplitude=1.0, seed=3)
    target = random_unitary(model.dim, seed=3)
    evolve(model, sched)
    gate_error(target, model, sched)
    error_trace(target, model, sched)
    # the gradient reads the spectrum, so it still takes one
    with pytest.raises(AssertionError, match="eigendecomposition"):
        error_and_gradient(target, model, sched)


@pytest.mark.parametrize("interaction", [ISING, HEISENBERG])
def test_eigh_never_receives_a_complex_array(monkeypatch, interaction):
    # both couplings are solved as real symmetric blocks on every path
    eigh = np.linalg.eigh
    seen = []

    def real_only(a, *args, **kwargs):
        assert np.isrealobj(a), f"complex {a.dtype} eigendecomposition"
        seen.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", real_only)
    model = nearest_neighbor_chain(3, interaction=interaction)
    sched = random_init(3, 0.6, 4, amplitude=1.0, seed=4)
    for path in EVOLUTION_PATHS.values():
        path(model, sched)
    gate_error(np.eye(model.dim), model, sched)
    assert len(seen) == 1                  # the gradient's


def _peak_bytes(run):
    """tracemalloc peak of run(), after a warm-up call has filled the
    operator caches."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_slice_stacks(run, model, sched):
    """``_peak_bytes`` of run() in complex K x d x d stacks."""
    return _peak_bytes(run) / (sched.n_slices * model.dim ** 2 * 16)


# (N, K) = (6, 32) on both couplings, and the wide register (8, 4), where
# the slice stacks are few and any d x d operator built per site would show
PEAK_CASES = [
    pytest.param(ISING, 6, 32, id="ising_zz"),
    pytest.param(HEISENBERG, 6, 32, id="heisenberg_xyz"),
    pytest.param(ISING, 8, 4, id="ising_zz-8-4"),
    pytest.param(HEISENBERG, 8, 4, id="heisenberg_xyz-8-4"),
]


@pytest.mark.parametrize("interaction, n, k_slices", PEAK_CASES)
def test_evolve_peak_memory_is_three_slice_stacks(interaction, n, k_slices):
    # evolve holds one chunk of slices at a time, at most three of its
    # stacks: the workspace is the propagators and a float scratch, half a
    # stack beside the Ising chain's half-width parity blocks and two
    # beside the Heisenberg chain's d x d real slices. Here the chunk is
    # half the schedule: 1.16 and 1.97 slice stacks (Ising, Heisenberg) at
    # (6, 32), 1.50 and 2.25 at (8, 4).
    model = nearest_neighbor_chain(n, interaction=interaction)
    sched = random_init(n, 0.05 * k_slices, k_slices, amplitude=1.0, seed=2)
    assert _peak_slice_stacks(lambda: evolve(model, sched),
                              model, sched) <= 3.1


@pytest.mark.parametrize("interaction", [ISING, HEISENBERG])
@pytest.mark.parametrize("entry", [gate_error, error_trace])
def test_forward_peak_memory_does_not_grow_with_k(entry, interaction):
    # the forward path (gate_error through evolve, and the error trace)
    # holds one chunk of CHUNK_BYTES of propagators at a time, so 16 times
    # the slices leaves the peak within one chunk
    model = nearest_neighbor_chain(6, interaction=interaction)
    target = np.eye(model.dim)
    short, long = (random_init(6, 0.05 * k, k, amplitude=1.0, seed=2)
                   for k in (32, 512))
    peaks = [_peak_bytes(lambda: entry(target, model, sched))
             for sched in (short, long)]
    assert abs(peaks[1] - peaks[0]) <= evolution.CHUNK_BYTES


def test_wide_forward_peak_memory_is_bounded():
    # N = 8, K = 64: the whole stack of propagators is 64 MiB; a chunk is
    # two slices, 2 MiB, and the peak about 6 MiB on the Ising chain
    model = nearest_neighbor_chain(8)
    sched = random_init(8, 3.2, 64, amplitude=1.0, seed=2)
    target = np.eye(model.dim)
    assert _peak_bytes(lambda: evolve(model, sched)) < 8 * 2 ** 20
    assert _peak_bytes(lambda: error_trace(target, model, sched)) < 8 * 2 ** 20


@pytest.mark.parametrize("interaction, n, k_slices", PEAK_CASES)
def test_gradient_peak_memory_is_four_slice_stacks(interaction, n, k_slices):
    # V, the prefixes over the propagators, X and M; the later steps
    # run in the stacks the prefixes and M leave free. V is real on both
    # couplings, half a stack (Ising 3.52 at (6, 32) and 3.51 at (8, 4),
    # Heisenberg 3.70 and 3.60)
    model = nearest_neighbor_chain(n, interaction=interaction)
    sched = random_init(n, 0.05 * k_slices, k_slices, amplitude=1.0, seed=2)
    target = random_unitary(model.dim, seed=3)
    peak = _peak_slice_stacks(
        lambda: error_and_gradient(target, model, sched), model, sched)
    assert peak <= 4.0


def test_trace_endpoints():
    model = nearest_neighbor_chain(2)
    sched = random_init(2, 0.5, 1, amplitude=1.0, seed=4)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    tr = error_trace(q, model, sched)
    assert len(tr.times) == 2
    assert tr.errors[0] == pytest.approx(np.linalg.norm(q - np.eye(4)))
    assert tr.errors[-1] == gate_error(q, model, sched)


def test_trace_identity_target_zero_schedule():
    model = nearest_neighbor_chain(1)
    tr = error_trace(np.eye(2), model, zeros(1, 1.0, 5))
    assert np.allclose(tr.errors, 0.0, atol=1e-12)


def test_trace_prefix_products():
    model = nearest_neighbor_chain(2)
    sched = random_init(2, 0.4, 6, amplitude=1.2, seed=6)
    target = quvis_gate_physical(0)
    tr = error_trace(target, model, sched)
    for k in range(sched.n_slices + 1):
        if k == 0:
            u = np.eye(4)
        else:
            u = evolve(model, type(sched)(sched.tau * k,
                                          sched.values[:, :, :k]))
        assert tr.errors[k] == pytest.approx(np.linalg.norm(target - u))


def test_gradient_zero_at_perfect_match():
    model = nearest_neighbor_chain(2)
    sched = random_init(2, 0.4, 4, amplitude=1.0, seed=7)
    target = evolve(model, sched)
    grad = error_and_gradient(target, model, sched)[1]
    assert not grad.any()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_matches_finite_differences(seed):
    model = nearest_neighbor_chain(2)
    sched = random_init(2, 0.5, 4, amplitude=1.0, seed=seed)
    target = quvis_gate_physical(0)
    err, grad = error_and_gradient(target, model, sched)
    h = 1e-5
    for a in range(2):
        for q in range(2):
            for k in range(4):
                vp = sched.values.copy()
                vp[a, q, k] += h
                vm = sched.values.copy()
                vm[a, q, k] -= h
                fd = (gate_error(target, model, sched.with_values(vp))
                      - gate_error(target, model, sched.with_values(vm))) / (2 * h)
                assert abs(grad[a, q, k] - fd) <= max(1e-6 * abs(fd), 1e-9)


def test_gradient_refinement_chain_rule():
    # summing the two children's gradients recovers the parent's
    model = nearest_neighbor_chain(2)
    sched = random_init(2, 0.5, 3, amplitude=1.0, seed=8)
    target = quvis_gate_physical(0)
    parent = error_and_gradient(target, model, sched)[1]
    child = error_and_gradient(target, model, refine_double(sched))[1]
    summed = child[:, :, 0::2] + child[:, :, 1::2]
    assert np.allclose(parent, summed, atol=1e-9)


def test_evolve_unitarity():
    model = nearest_neighbor_chain(3)
    sched = random_init(3, 1.0, 50, amplitude=3.0, seed=9)
    u = evolve(model, sched)
    assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-9


# (N, K) spanning three chunks of the forward path (16 slices at N = 6,
# 4 at N = 7): an exact multiple of the chunk, and one slice more, which
# joins the last chunk; the third entry scales the first chunk's
# amplitudes, and at 10 its squaring count (``evolution._squarings``)
# would exceed the rest's if each chunk took its own
MULTI_CHUNK = [pytest.param(n, k, 1.0, id=f"{n}-{k}")
               for n, k in ((6, 48), (6, 49), (7, 12), (7, 13))] \
    + [pytest.param(7, 13, 10.0, id="7-13-loud-first-chunk")]


def _multi_chunk_schedule(model, k_slices, first_gain, seed):
    """A random schedule at amplitude 2, its first chunk of the forward
    path scaled by first_gain."""
    sched = random_init(model.n_qubits, 0.05 * k_slices, k_slices,
                        amplitude=2.0, seed=seed)
    first = len(next(evolution._propagator_chunks(model, sched)))
    values = sched.values.copy()
    values[:, :, :first] *= first_gain
    return sched.with_values(values)


def _whole_stack_scan(model, sched):
    """The prefix products of the whole stack of propagators, built as the
    forward path builds each chunk, at the schedule's squaring count."""
    u, x = evolution._real_blocks(model, sched.values)
    ek = evolution._taylor_propagators(
        u, x, sched.tau, evolution._squarings(model, sched),
        evolution._workspace(model.dim, sched.n_slices, x[0].size))
    return _prefix_products(ek)


@pytest.mark.parametrize("interaction", [ISING, HEISENBERG])
@pytest.mark.parametrize(
    "n, k_slices, first_gain",
    [pytest.param(3, k, 1.0, id=str(k)) for k in (1, 2, 3, 5, 8, 240)]
    + MULTI_CHUNK)
def test_tree_product_matches_the_prefix_scan(n, k_slices, first_gain,
                                              interaction):
    # evolve multiplies pairs level by level within each chunk, carrying
    # an odd last slice, and the chunks' products onto each other; the
    # prefix scan multiplies slice by slice; both end at P_K
    model = nearest_neighbor_chain(n, interaction=interaction)
    sched = _multi_chunk_schedule(model, k_slices, first_gain, seed=12)
    scan = _whole_stack_scan(model, sched)[-1]
    assert np.abs(evolve(model, sched) - scan).max() <= 1e-13


@pytest.mark.parametrize("interaction", [ISING, HEISENBERG])
@pytest.mark.parametrize("n, k_slices, first_gain", MULTI_CHUNK)
def test_chunked_error_trace_is_the_whole_stack_scan(n, k_slices, first_gain,
                                                     interaction):
    model = nearest_neighbor_chain(n, interaction=interaction)
    sched = _multi_chunk_schedule(model, k_slices, first_gain, seed=13)
    assert len(list(evolution._propagator_chunks(model, sched))) == 3
    target = random_unitary(model.dim, seed=n)
    ref = [frobenius_distance(target, u) for u in
           (np.eye(model.dim, dtype=complex), *_whole_stack_scan(model, sched))]
    assert np.array_equal(error_trace(target, model, sched).errors, ref)


@pytest.mark.parametrize("interaction", [ISING, HEISENBERG])
@pytest.mark.parametrize("n, k_slices, first_gain", MULTI_CHUNK)
def test_chunks_are_built_into_one_workspace(n, k_slices, first_gain,
                                            interaction):
    # every chunk's propagators are written over the one before them, so
    # the forward path allocates its stacks once per call, not per chunk
    model = nearest_neighbor_chain(n, interaction=interaction)
    sched = _multi_chunk_schedule(model, k_slices, first_gain, seed=13)
    chunks = list(evolution._propagator_chunks(model, sched))
    assert all(np.shares_memory(a, b) for a, b in zip(chunks, chunks[1:]))


@pytest.mark.parametrize("interaction", [ISING, HEISENBERG])
def test_one_slice_evolution_is_not_a_view_of_the_workspace(interaction,
                                                            monkeypatch):
    # a one-slice schedule's product is its only propagator, which evolve
    # copies out of the workspace: neither a later call nor a write over
    # the workspace changes it
    chunks = []
    chunker = evolution._propagator_chunks

    def kept(*args):
        for ek in chunker(*args):
            chunks.append(ek)
            yield ek

    monkeypatch.setattr(evolution, "_propagator_chunks", kept)
    model = nearest_neighbor_chain(3, interaction=interaction)
    u = evolve(model, random_init(3, 0.1, 1, amplitude=1.0, seed=14))
    before = u.copy()
    evolve(model, random_init(3, 0.1, 1, amplitude=1.0, seed=15))
    assert not np.shares_memory(u, chunks[0])
    chunks[0][...] = 0
    assert np.array_equal(u, before)

def test_concatenation():
    model = nearest_neighbor_chain(2)
    a = random_init(2, 0.4, 4, amplitude=1.0, seed=10)
    b = random_init(2, 0.6, 6, amplitude=1.0, seed=11)
    both = type(a)(1.0, np.concatenate([a.values, b.values], axis=2))
    assert np.linalg.norm(evolve(model, both)
                          - evolve(model, b) @ evolve(model, a)) <= 1e-10



# A table written with the field terms subtracted replays as its
# amplitudes negated; the gradient is checked on both readings. The
# adjoint inverts each prefix product by its adjoint, whose rounding grows
# with the slice count; the K = 240 cases bound it on long schedules.
@pytest.mark.parametrize("sign", [1.0, -1.0],
                         ids=["fields_add", "fields_subtract"])
@pytest.mark.parametrize("interaction", [ISING, HEISENBERG])
@pytest.mark.parametrize("n, k_slices", [
    (n, k) for n in (1, 2, 3, 4, 6) for k in (1, 2, 7)] + [(2, 240), (3, 240)])
def test_batched_gradient_matches_slice_loop(n, k_slices, interaction, sign):
    model = nearest_neighbor_chain(n, interaction=interaction)
    sched = random_init(n, 0.1 * k_slices + 0.3, k_slices, amplitude=1.5,
                        seed=10 * n + k_slices)
    sched = replace(sched, values=sign * sched.values)
    target = random_unitary(model.dim, seed=n + 100 * k_slices)
    err, grad = error_and_gradient(target, model, sched)
    ref_err, ref_grad = loop_error_and_gradient(target, model, sched)
    assert err == ref_err
    assert grad.shape == sched.values.shape
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


def test_no_production_path_builds_site_operators(monkeypatch):
    # every Hamiltonian is scattered from model.flip_pairs; the dense site
    # operators are the tests' reference only
    def refuse(*args):
        raise AssertionError("dense site operator built")

    runs = {
        "evolve": lambda m, s, t: (evolve(m, s),),
        "error_trace": lambda m, s, t: (error_trace(t, m, s).errors,),
        "error_and_gradient": lambda m, s, t: error_and_gradient(t, m, s),
        "slice_hamiltonians": lambda m, s, t: (slice_hamiltonians(m, s.values),),
        "coupling_hamiltonian": lambda m, s, t: (coupling_hamiltonian(m),),
    }
    cases = []
    for interaction in (ISING, HEISENBERG):
        model = nearest_neighbor_chain(3, interaction=interaction)
        sched = random_init(3, 0.6, 5, amplitude=1.0, seed=6)
        target = random_unitary(model.dim, seed=7)
        ref = {name: run(model, sched, target) for name, run in runs.items()}
        cases.append((model, sched, target, ref))
    # rebuild the cached Ising pieces under the patch too
    model_module._parity_pieces.cache_clear()
    monkeypatch.setattr(model_module, "site_operator", refuse)
    for model, sched, target, ref in cases:
        for name, run in runs.items():
            for got, want in zip(run(model, sched, target), ref[name]):
                assert np.array_equal(got, want), name


def test_loewner_kernel_runs_once_per_slice(monkeypatch):
    calls = []

    def counting(eigenvalues, t):
        calls.append(t)
        return loewner_kernel(eigenvalues, t)

    monkeypatch.setattr(evolution, "loewner_kernel", counting)
    model = nearest_neighbor_chain(2)
    sched = random_init(2, 0.5, 7, amplitude=1.0, seed=13)
    err, _ = error_and_gradient(random_unitary(4, seed=14), model, sched)
    assert err >= GRADIENT_EPS_FLOOR
    assert len(calls) == sched.n_slices
    calls.clear()
    err, _ = error_and_gradient(evolve(model, sched), model, sched)
    assert err < GRADIENT_EPS_FLOOR
    assert calls == []


def _directional_fd(target, model, sched, direction, h=1e-6):
    plus = sched.with_values(sched.values + h * direction)
    minus = sched.with_values(sched.values - h * direction)
    return (gate_error(target, model, plus)
            - gate_error(target, model, minus)) / (2 * h)


def test_gradient_directional_finite_differences():
    model = nearest_neighbor_chain(3, interaction=HEISENBERG)
    sched = random_init(3, 0.7, 5, amplitude=1.0, seed=5)
    target = random_unitary(8, seed=6)
    direction = np.random.default_rng(7).normal(size=sched.values.shape)
    _, grad = error_and_gradient(target, model, sched)
    fd = _directional_fd(target, model, sched, direction)
    assert abs(np.sum(grad * direction) - fd) <= 1e-6 * max(abs(fd), 1.0)


def test_ising_gradient_matches_finite_differences_with_zero_field_slice():
    # the parity blocks' eigenbasis, checked against the error alone: the
    # slice-loop reference reads the same eigenbasis and cannot
    model = nearest_neighbor_chain(3)
    sched = _schedule_with_zero_fields(3, 4, seed=15)
    target = random_unitary(8, seed=16)
    _, grad = error_and_gradient(target, model, sched)
    h = 1e-6
    for idx in np.ndindex(*grad.shape):
        step = np.zeros_like(sched.values)
        step[idx] = 1.0
        fd = _directional_fd(target, model, sched, step, h)
        assert abs(grad[idx] - fd) <= max(1e-6 * abs(fd), 1e-9)


def test_gradient_linearity():
    model = nearest_neighbor_chain(2, interaction=HEISENBERG)
    sched = random_init(2, 0.6, 4, amplitude=1.0, seed=8)
    target = random_unitary(4, seed=9)
    rng = np.random.default_rng(10)
    d1 = rng.normal(size=sched.values.shape)
    d2 = rng.normal(size=sched.values.shape)
    a, b = 0.7, -1.3
    _, grad = error_and_gradient(target, model, sched)
    fd1 = _directional_fd(target, model, sched, d1)
    fd2 = _directional_fd(target, model, sched, d2)
    fd12 = _directional_fd(target, model, sched, a * d1 + b * d2)
    # central differences at h = 1e-6 carry ~1e-10 of rounding here
    assert abs(fd12 - (a * fd1 + b * fd2)) <= 1e-8
    assert abs(np.sum(grad * (a * d1 + b * d2)) - fd12) <= 1e-8
    zero = np.zeros_like(sched.values)
    assert _directional_fd(target, model, sched, zero) == 0.0


def test_gradient_degenerate_spectrum():
    # the zero-field Ising slice has eigenvalues -pi/2, -pi/2, pi/2, pi/2,
    # so the kernel takes its analytic limit on the repeated pairs
    model = nearest_neighbor_chain(2)
    lam = np.linalg.eigvalsh(coupling_hamiltonian(model))
    assert np.sum(np.abs(lam[:, None] - lam[None, :]) < DEGENERATE_GAP) > 4
    sched = zeros(2, 0.5, 4)
    target = quvis_gate_physical(0)
    _, grad = error_and_gradient(target, model, sched)
    assert np.linalg.norm(grad) > 0.1
    h = 1e-6
    for idx in np.ndindex(*grad.shape):
        step = np.zeros_like(sched.values)
        step[idx] = 1.0
        fd = _directional_fd(target, model, sched, step, h)
        assert abs(grad[idx] - fd) <= max(1e-6 * abs(fd), 1e-9)
