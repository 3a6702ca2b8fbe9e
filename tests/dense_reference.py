"""The spin chain's Hamiltonians as dense Kronecker products of site
operators: the reference the model's builders are checked against. It
shares no code with them; they scatter from ``model.flip_pairs``."""

import numpy as np

from spincompile.model import ISING, site_operator


def dense_coupling(model):
    """The coupling as Kronecker products of site operators, bond by bond."""
    axes = "z" if model.interaction == ISING else "xyz"
    n = model.n_qubits
    h = np.zeros((model.dim, model.dim), dtype=complex)
    for a, bond in enumerate(model.couplings):
        if bond != 0.0:
            for ax in axes:
                h += bond * (site_operator(ax, a, n)
                             @ site_operator(ax, a + 1, n))
    return h


def dense_slices(model, values):
    """coupling + 2 pi sum_n (h^x_n S^x_n + h^y_n S^y_n), slice by slice,
    for field amplitudes values (2, N, K): complex, shape (K, dim, dim)."""
    n = model.n_qubits
    ops = [[2 * np.pi * site_operator(ax, q, n) for q in range(n)]
           for ax in "xy"]
    hk = np.repeat(dense_coupling(model)[None], values.shape[2], axis=0)
    for k in range(values.shape[2]):
        for a in range(2):
            for q in range(n):
                hk[k] += values[a, q, k] * ops[a][q]
    return hk
