"""Replay the bundled reference pulse tables and measure their gate errors.

Each table drives the default chain for its stated duration; the evolved
operator is compared against the exact target of the corresponding
elementary gate. A gate's realization is derived from its table, which is
read and evolved once, on first use. All nine replay within 0.05. Seven
are the external reference tables; u3 (at 1.45, just above its block's
1.4375 minimum time) and u8 were made with this package (see the README's
"Provenance of the bundled tables").
"""

from spincompile.instructions import bundled_pulse_ids, quvis3_set

iset = quvis3_set()

print(f"{'gate':<6}{'T':>6}{'K':>6}{'width':>7}{'error':>10}")
for m in range(9):
    eg = iset[f"u{m}"]
    sched = eg.realized_schedule
    print(f"u{m:<5}{sched.total_time:>6}{sched.n_slices:>6}"
          f"{eg.gate.n_qubits:>7}{eg.realized_error:>10.4f}")

extra = [gid for gid in bundled_pulse_ids() if not gid.startswith("u")]
print(f"\nalso bundled: {', '.join(extra)}")
