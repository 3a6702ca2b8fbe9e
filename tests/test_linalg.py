import numpy as np
import pytest
from dense_reference import dense_slices

from spincompile.errors import DimensionMismatch
from spincompile.evolution import evolve
from spincompile.linalg import (frobenius_distance, frobenius_norms,
                                loewner_kernel)
from spincompile.model import HEISENBERG, nearest_neighbor_chain
from spincompile.schedule import PulseSchedule


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_unitary(n, seed):
    q, r = np.linalg.qr(random_hermitian(n, seed) + 1j * random_hermitian(n, seed + 1))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def one_slice(model, fields, total_time):
    """A one-slice schedule holding fields (2, N): the x and y amplitudes."""
    values = np.asarray(fields, dtype=float)[:, :, None]
    return PulseSchedule(total_time, values)


def random_fields(n, seed):
    return np.random.default_rng(seed).normal(size=(2, n))


def expm_taylor(h, t, terms=64):
    """exp(-i t h) by its Taylor series, independent of any eigensolver."""
    term = np.eye(len(h), dtype=complex)
    total = np.eye(len(h), dtype=complex)
    for k in range(1, terms):
        term = term @ (-1j * t * h) / k
        total = total + term
    return total


def frechet(h, t, dh):
    """Derivative of exp(-i t h) along dh, as the gradient forms it: the
    kernel applied entrywise in the eigenbasis of h."""
    w, v = np.linalg.eigh(h)
    return v @ (loewner_kernel(w, t) * (v.conj().T @ dh @ v)) @ v.conj().T


class TestExpmI:
    """exp(-i t H) as the program forms it: one slice of ``evolve``."""

    def test_zero_matrix(self):
        # a lone qubit under zero fields has H = 0
        model = nearest_neighbor_chain(1)
        zero = [[0.0], [0.0]]
        assert np.allclose(evolve(model, one_slice(model, zero, 0.7)),
                           np.eye(2))

    def test_spin_half_period(self):
        # H = 2*pi * S^x = pi * sigma^x, so exp(-i H) = -1
        model = nearest_neighbor_chain(1)
        fields = [[1.0], [0.0]]
        got = evolve(model, one_slice(model, fields, 1.0))
        assert np.allclose(got, -np.eye(2), atol=1e-12)

    def test_against_taylor_series(self):
        model = nearest_neighbor_chain(2, interaction=HEISENBERG)
        fields = random_fields(2, seed=1)
        t = 0.3
        h = dense_slices(model, fields[:, :, None])[0]
        total = expm_taylor(h, t)
        got = evolve(model, one_slice(model, fields, t))
        assert frobenius_distance(got, total) <= 1e-10

    def test_unitarity(self):
        model = nearest_neighbor_chain(3, interaction=HEISENBERG)
        for seed in range(5):
            u = evolve(model, one_slice(model, random_fields(3, seed), 1.7))
            assert frobenius_distance(u.conj().T @ u, np.eye(8)) <= 1e-10

    def test_group_property(self):
        model = nearest_neighbor_chain(2, interaction=HEISENBERG)
        fields = random_fields(2, seed=3)
        lhs = evolve(model, one_slice(model, fields, 0.9))
        rhs = (evolve(model, one_slice(model, fields, 0.5))
               @ evolve(model, one_slice(model, fields, 0.4)))
        assert frobenius_distance(lhs, rhs) <= 1e-10


class TestFrechet:
    """The derivative of exp(-i t H) built from ``loewner_kernel``."""

    def test_zero_direction(self):
        h = random_hermitian(4, seed=4)
        got = frechet(h, 0.5, np.zeros((4, 4)))
        assert np.allclose(got, 0.0)

    def test_commuting_diagonal_case(self):
        # for diagonal H and a diagonal direction dh, the derivative of
        # exp(-i t H) is diag(-i t e^{-i t lam} dh): the kernel's diagonal
        lam = np.array([0.3, -1.2, 2.5])
        dh = np.diag([1.0, 2.0, -0.5])
        t = 0.8
        got = frechet(np.diag(lam), t, dh)
        expect = np.diag(-1j * t * np.exp(-1j * t * lam) * np.diag(dh))
        assert frobenius_distance(got, expect) <= 1e-12

    def test_against_finite_differences(self):
        h = random_hermitian(4, seed=5)
        dh = random_hermitian(4, seed=6)
        t = 0.7
        eps = 1e-6
        fd = (expm_taylor(h + eps * dh, t)
              - expm_taylor(h - eps * dh, t)) / (2 * eps)
        got = frechet(h, t, dh)
        assert np.max(np.abs(got - fd)) <= 1e-6

    def test_degenerate_spectrum(self):
        # repeated eigenvalues force the analytic-limit branch
        h = np.diag([1.0, 1.0, 2.0])
        dh = random_hermitian(3, seed=7)
        eps = 1e-6
        t = 0.4
        fd = (expm_taylor(h + eps * dh, t)
              - expm_taylor(h - eps * dh, t)) / (2 * eps)
        assert np.max(np.abs(frechet(h, t, dh) - fd)) <= 1e-6

    def test_linearity(self):
        h = random_hermitian(4, seed=8)
        d1 = random_hermitian(4, seed=9)
        d2 = random_hermitian(4, seed=10)
        a, b = 0.7, -1.3
        lhs = frechet(h, 0.6, a * d1 + b * d2)
        rhs = a * frechet(h, 0.6, d1) + b * frechet(h, 0.6, d2)
        assert frobenius_distance(lhs, rhs) <= 1e-9


class TestLoewnerKernel:
    def test_divided_differences_off_diagonal(self):
        lam = np.array([0.3, -1.2, 2.5])
        t = 0.8
        phi = loewner_kernel(lam, t)
        for j in range(3):
            for k in range(3):
                if j != k:
                    quotient = ((np.exp(-1j * t * lam[j])
                                 - np.exp(-1j * t * lam[k]))
                                / (lam[j] - lam[k]))
                    assert abs(phi[j, k] - quotient) <= 1e-14

    @pytest.mark.parametrize("eigenvalues", [np.zeros((3, 4)), np.float64(0.5),
                                             np.zeros((1, 4))],
                             ids=["stack", "scalar", "one_row_stack"])
    def test_takes_one_slice_of_eigenvalues(self, eigenvalues):
        # unchecked, a (K, d) stack broadcasts to a (K, K, d) array and a
        # scalar raises a raw IndexError
        with pytest.raises(DimensionMismatch, match="expected one slice"):
            loewner_kernel(eigenvalues, 0.3)


class TestFrobeniusDistance:
    def test_self_distance(self):
        u = random_unitary(4, seed=11)
        assert frobenius_distance(u, u) == 0.0

    def test_sign_flip(self):
        assert np.isclose(frobenius_distance(np.eye(2), -np.eye(2)),
                          2 * np.sqrt(2))

    def test_matches_entry_sum(self):
        a = random_unitary(8, seed=12)
        b = random_unitary(8, seed=13)
        brute = np.sqrt(sum(abs(a[j, k] - b[j, k]) ** 2
                            for j in range(8) for k in range(8)))
        assert np.isclose(frobenius_distance(a, b), brute, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            frobenius_distance(np.eye(2), np.eye(4))

    @pytest.mark.parametrize("d", [2, 3, 4, 7, 8, 16, 32, 64, 128, 256])
    def test_stack_is_bitwise_each_matrix_alone(self, d):
        # one reduction over the stack reads the same bits np.linalg.norm
        # gives each difference alone, so a trace read per chunk matches
        # one read per prefix
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(2, 3, d, d)) + 1j * rng.normal(size=(2, 3, d, d))
        got = frobenius_norms(b - a)
        assert got.shape == (2, 3)
        expect = [[np.linalg.norm(a - m) for m in row] for row in b]
        assert np.array_equal(got, expect)
        assert all(frobenius_distance(a, m) == np.linalg.norm(a - m)
                   for m in b[0])

    def test_one_matrix_is_a_float(self):
        assert type(frobenius_distance(np.eye(2), -np.eye(2))) is float

    @pytest.mark.parametrize("b_shape", [(3, 4, 4), (3, 2, 4), (3, 4, 2),
                                         (2,), (3, 2), (3, 2, 2),
                                         (1, 2, 2), (2, 3, 2, 2)])
    def test_stack_of_other_matrices_mismatches(self, b_shape):
        # one pair only: a stack, even of matching matrices, is
        # frobenius_norms' to read
        with pytest.raises(DimensionMismatch):
            frobenius_distance(np.eye(2), np.zeros(b_shape))

    @pytest.mark.parametrize("seed", range(5))
    def test_metric_axioms(self, seed):
        a = random_unitary(4, seed=3 * seed)
        b = random_unitary(4, seed=3 * seed + 1)
        c = random_unitary(4, seed=3 * seed + 2)
        dab = frobenius_distance(a, b)
        assert dab >= 0
        assert np.isclose(dab, frobenius_distance(b, a), atol=1e-12)
        assert dab <= (frobenius_distance(a, c) + frobenius_distance(c, b)
                       + 1e-12)
