import numpy as np
import pytest
from dense_reference import dense_coupling, dense_slices

from spincompile.errors import DimensionMismatch, OutOfRange, ShapeError
from spincompile.evolution import evolve
from spincompile.linalg import frobenius_distance
from spincompile.model import (HEISENBERG, ISING, MAX_QUBITS, SpinChainModel,
                               check_width, coupling_hamiltonian,
                               ising_parity_blocks, nearest_neighbor_chain,
                               real_slices, site_operator, slice_norm_bounds)
from spincompile.schedule import random_init

PI2 = 2 * np.pi
SPIN = {"x": np.array([[0, 1], [1, 0]]) / 2,
        "y": np.array([[0, -1j], [1j, 0]]) / 2,
        "z": np.array([[1, 0], [0, -1]]) / 2}


def one_slice(model, hx=None, hy=None):
    """Field amplitudes (2, N, 1) of one slice holding fields hx, hy (zero
    if None)."""
    n = model.n_qubits
    values = np.array([np.zeros(n) if h is None else h for h in (hx, hy)],
                      dtype=float)
    return values[:, :, None]


def snapshot(model, hx=None, hy=None):
    """The dense Hamiltonian of one slice holding fields hx, hy."""
    return dense_slices(model, one_slice(model, hx, hy))[0]


def test_two_spin_zz_spectrum():
    h = coupling_hamiltonian(nearest_neighbor_chain(2))
    assert np.allclose(h, PI2 * np.diag([0.25, -0.25, -0.25, 0.25]))


def test_single_spin_no_pairs():
    model = SpinChainModel(couplings=())
    assert np.allclose(coupling_hamiltonian(model), 0.0)
    model_h = SpinChainModel(couplings=(), interaction=HEISENBERG)
    assert np.allclose(coupling_hamiltonian(model_h), 0.0)


def test_three_site_chain_matches_embedded_terms():
    model = nearest_neighbor_chain(3)
    sz = SPIN["z"]
    i2 = np.eye(2)
    expect = (PI2 * np.kron(np.kron(sz, sz), i2)
              + PI2 * np.kron(i2, np.kron(sz, sz)))
    assert frobenius_distance(coupling_hamiltonian(model), expect) <= 1e-12


def test_heisenberg_includes_all_axes():
    model = nearest_neighbor_chain(2, interaction=HEISENBERG)
    expect = sum(PI2 * np.kron(SPIN[ax], SPIN[ax]) for ax in "xyz")
    assert frobenius_distance(coupling_hamiltonian(model), expect) <= 1e-12


def test_zero_fields_reduce_to_coupling():
    model = nearest_neighbor_chain(3)
    assert np.array_equal(snapshot(model), coupling_hamiltonian(model))


def test_single_spin_x_field():
    model = SpinChainModel(couplings=())
    h = snapshot(model, hx=[1.0])
    assert np.allclose(h, np.pi * np.array([[0, 1], [1, 0]]))
    # in the pair basis, whose columns are the eigenvectors of S^x
    got = real_slices(model, one_slice(model, hx=[1.0]))[0]
    assert np.allclose(got, np.pi * np.diag([1.0, -1.0]), rtol=0, atol=1e-15)


BUILDERS = [ising_parity_blocks, real_slices]


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 0), (3, 2, 4), (1, 2, 4),
                                   (2, 3, 4), (2, 2, 4, 1), (2,), (2, 3, 1)])
def test_builders_take_only_fields_of_shape_2_n_k(builder, shape):
    model = nearest_neighbor_chain(2)
    with pytest.raises(DimensionMismatch, match=r"expected \(2, 2, K >= 1\)"):
        builder(model, np.zeros(shape))


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_builders_reject_non_finite_fields(builder, bad):
    values = np.zeros((2, 2, 3))
    values[1, 0, 2] = bad
    with pytest.raises(ShapeError, match="h\\^y of site 0 in slice 2"):
        builder(nearest_neighbor_chain(2), values)


def random_couplings(n, seed):
    """n - 1 bonds, with negative and zero ones."""
    rng = np.random.default_rng(seed)
    c = rng.normal(scale=5.0, size=n - 1)
    c[rng.random(n - 1) < 0.3] = 0.0
    return c


@pytest.mark.parametrize("interaction", [ISING, HEISENBERG])
@pytest.mark.parametrize("n", range(1, 7))
def test_builders_equal_the_dense_reference_exactly(n, interaction):
    chains = [nearest_neighbor_chain(n, interaction=interaction),
              SpinChainModel(random_couplings(n, n), interaction)]
    for model in chains:
        # the real matrix is the dense one's real part, its imaginary part
        # zero; bytes, since np.array_equal would not tell a -0.0 entry
        # from the dense sum's +0.0
        got, want = coupling_hamiltonian(model), dense_coupling(model)
        assert got.dtype == np.float64
        assert not want.imag.any()
        assert got.tobytes() == want.real.tobytes()


def pair_basis(dim):
    """The fixed basis W, dense: column j < d/2 is (|j> + |d-1-j>)/sqrt2
    and column d-1-j is i(|j> - |d-1-j>)/sqrt2."""
    w = np.zeros((dim, dim), dtype=complex)
    for j in range(dim // 2):
        w[[j, dim - 1 - j], j] = np.sqrt(0.5)
        w[[j, dim - 1 - j], dim - 1 - j] = np.sqrt(0.5) * np.array([1j, -1j])
    return w


@pytest.mark.parametrize("interaction", [ISING, HEISENBERG])
@pytest.mark.parametrize("n", range(1, 8))
def test_real_slices_are_the_hamiltonians_in_the_pair_basis(n, interaction):
    # W^dag H_k W, real and exactly symmetric on both couplings, with
    # negative, zero and -0.0 bonds and fields; the dense product rounds
    # each entry once per term
    values = random_init(n, 0.5, 3, amplitude=3.0, seed=n).values.copy()
    values[:, :, 0] = -0.0
    for model in (nearest_neighbor_chain(n, interaction=interaction),
                  SpinChainModel(random_couplings(n, n), interaction)):
        w = pair_basis(model.dim)
        ref = w.conj().T @ dense_slices(model, values) @ w
        got = real_slices(model, values)
        assert got.dtype == float
        assert np.array_equal(got, got.transpose(0, 2, 1))
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("n", range(2, 6))
def test_norm_bounds_hold_for_the_real_heisenberg_slices(n):
    # the 2-norm, which the basis change keeps; the 1-norm can exceed the
    # bound there (by 1.3x on these slices), so the squaring count reads
    # the 2-norm
    model = nearest_neighbor_chain(n, interaction=HEISENBERG)
    values = random_init(n, 1.0, 64, amplitude=3.0, seed=n).values
    norms = np.linalg.norm(real_slices(model, values), 2, axis=(1, 2))
    assert (norms <= slice_norm_bounds(model, values) * (1 + 1e-14)).all()


def test_evolution_steps_through_slice_hamiltonians():
    # stepping one slice at a time through single-slice Hamiltonians
    # reproduces evolve
    model = nearest_neighbor_chain(3, interaction=HEISENBERG)
    sched = random_init(3, 0.3, 3, amplitude=1.0, seed=4)
    u = np.eye(8, dtype=complex)
    for k in range(3):
        h = snapshot(model, hx=sched.values[0, :, k], hy=sched.values[1, :, k])
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * sched.tau * w)) @ v.conj().T @ u
    assert frobenius_distance(evolve(model, sched), u) <= 1e-12


def test_output_hermitian():
    rng = np.random.default_rng(0)
    model = nearest_neighbor_chain(3, interaction=HEISENBERG)
    h = real_slices(model, one_slice(model, hx=rng.normal(size=3),
                                     hy=rng.normal(size=3)))[0]
    assert np.array_equal(h, h.T)


def test_linearity_in_fields():
    model = nearest_neighbor_chain(2)
    rng = np.random.default_rng(1)
    f1, f2 = rng.normal(size=(2, 2, 2))

    def field_part(*fields):
        return (real_slices(model, one_slice(model, *fields))[0]
                - real_slices(model, one_slice(model))[0])

    lhs = field_part(*(f1 + f2))
    rhs = field_part(*f1) + field_part(*f2)
    assert frobenius_distance(lhs, rhs) <= 1e-12


def test_spin_z_eigenvalues():
    w = np.linalg.eigvalsh(PI2 * site_operator("z", 0, 1))
    assert np.allclose(sorted(w), [-np.pi, np.pi])


def test_default_chain_couplings():
    model = nearest_neighbor_chain(4)
    assert model.couplings == (PI2, PI2, PI2)
    assert all(type(bond) is float for bond in model.couplings)
    # hashable and equal by value, so per-chain pieces can be cached by it
    assert model == SpinChainModel(np.full(3, PI2))
    assert hash(model) == hash(SpinChainModel([PI2] * 3))


@pytest.mark.parametrize("couplings", [np.zeros((3, 3)), np.zeros((2, 1)),
                                       [[0.0, 1.0]], np.array(1.0)])
def test_couplings_are_one_bond_per_neighbour_pair(couplings):
    for bonds in range(4):
        assert SpinChainModel((1.0,) * bonds).n_qubits == bonds + 1
    # a coupling matrix, even a symmetric N x N one, is not a chain's bonds
    with pytest.raises(DimensionMismatch, match="one bond strength per "
                                                "neighbour pair"):
        SpinChainModel(couplings)


def test_width_limit_is_checked_before_any_operator():
    assert MAX_QUBITS == 9 and nearest_neighbor_chain(MAX_QUBITS).dim == 512
    for n in (0, MAX_QUBITS + 1, 12):
        with pytest.raises(OutOfRange, match=f"width {n} outside"):
            nearest_neighbor_chain(n)
    with pytest.raises(OutOfRange):
        SpinChainModel(couplings=(0.0,) * 9)


def test_check_width_names_what_it_checks():
    assert check_width(3, 3, "max_n {n}") == 3
    for n in (2, MAX_QUBITS + 1):
        with pytest.raises(OutOfRange, match=rf"^max_n {n} outside 3\.\.9$"):
            check_width(n, 3, "max_n {n}")


@pytest.mark.parametrize("build", [nearest_neighbor_chain],
                         ids=["nearest_neighbor_chain"])
def test_width_must_be_an_integer(build):
    with pytest.raises(OutOfRange, match=r"^register width 2\.0 is not an "
                                         "integer$"):
        build(2.0)
    model = build(np.int64(2))
    assert evolve(model, random_init(2, 0.3, 2, 1.0, seed=0)).shape == (4, 4)


def test_unknown_interaction_rejected():
    with pytest.raises(ValueError, match="unknown interaction 'xy'"):
        SpinChainModel((1.0,), "xy")


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_couplings_rejected(value):
    with pytest.raises(ValueError, match="couplings must be finite"):
        SpinChainModel(couplings=(1.0, value))
