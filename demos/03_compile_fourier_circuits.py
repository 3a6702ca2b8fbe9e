"""Lower Fourier-transform circuits onto the three instruction sets.

The N-qubit Fourier transform is written once, as primitive steps
(qft_steps). The 3-qubit variational set covers those steps with one
three-wire block per peeled qubit plus a fixed base; the 2-qubit set
does the same with two-wire blocks; the microinstruction baseline spells
everything out as one-qubit rotations and CNOTs. Composing each compiled
circuit reproduces the exact Fourier matrix, so the interesting columns
are the total control time and the error accumulated when every block is
replaced by its imperfect pulse realization.
"""

import numpy as np

from spincompile.bench import bench_qft, fit_linear
from spincompile.gates import qft_matrix
from spincompile.instructions import (QUMIS, QUVIS2, QUVIS3, compile_qft,
                                      compose, instruction_set)

isets = {name: instruction_set(name) for name in (QUVIS3, QUVIS2, QUMIS)}

# exactness of the lowering itself
for n in (3, 6, 9):
    _total, steps = compile_qft(isets[QUVIS3], n)
    u = compose(n, ((gate, pos) for _name, gate, pos in steps))
    dist = np.linalg.norm(u - qft_matrix(n).matrix)
    print(f"N={n}: {len(steps)} placements, composition distance {dist:.2e}")

# time scaling of the three lowerings
print("\ncompiled control time per register size")
print(f"{'N':>3}{'3q-blocks':>12}{'2q-blocks':>12}{'rot+CNOT':>12}")
rows3, rows2, rowsm = [], [], []
for n in range(3, 10):
    t3, t2, tm = (compile_qft(isets[name], n)[0]
                  for name in (QUVIS3, QUVIS2, QUMIS))
    rows3.append((n, t3))
    rows2.append((n, t2))
    rowsm.append((n, tm))
    print(f"{n:>3}{t3:>12.2f}{t2:>12.2f}{tm:>12.2f}")

for label, pts in (("3q", rows3), ("2q", rows2), ("rot+CNOT", rowsm)):
    fit = fit_linear(pts, n_min=5)
    print(f"slope ({label}, N>=5): {fit.gamma:.2f} per qubit")

# composed error with the bundled pulse realizations
print("\nerror accumulation with imperfect blocks (N <= 6)")
result = bench_qft(6)
for row in result.rows:
    print(f"  N={row['n']} {row['set']:<8} time={row['time']:7.2f} "
          f"error={row['error']:.3f}")
fit = result.fits["error_quvis3"]
print(f"error growth exponent (3q blocks, N>=5): {fit.gamma:.3f}")
