"""Pulse-level gate synthesis on coupled spin chains.

The core pipeline: build a chain model, describe the control fields as a
piecewise-constant pulse schedule, evolve and differentiate exactly, and
run coarse-to-fine gradient synthesis against a target unitary. On top of
that sit a gate library, instruction sets with circuit lowering onto the
chain, and desk-scale benchmark sweeps with least-squares fits.
"""

from .evolution import ErrorTrace, error_trace, evolve, gate_error
from .gates import (Gate, apply_gate, cnot, controlled_phase, hadamard,
                    pauli_x, qft_matrix, rotation, swap2, swap_to_end_circuit)
from .model import SpinChainModel, coupling_hamiltonian, nearest_neighbor_chain
from .optimizer import (OptimizationReport, OptimizerConfig, adam_step,
                        fgto_synthesize, synthesize_auto, time_cost_search)
from .schedule import (PulseSchedule, random_init, read_pulse_table,
                       refine_double, write_pulse_table, zeros)

__version__ = "0.1.0"

__all__ = [
    "ErrorTrace", "error_trace", "evolve", "gate_error",
    "Gate", "apply_gate", "cnot", "controlled_phase", "hadamard", "pauli_x",
    "qft_matrix", "rotation", "swap2", "swap_to_end_circuit",
    "SpinChainModel", "coupling_hamiltonian", "nearest_neighbor_chain",
    "OptimizationReport",
    "OptimizerConfig", "adam_step", "fgto_synthesize", "synthesize_auto",
    "time_cost_search", "PulseSchedule", "random_init", "read_pulse_table",
    "refine_double", "write_pulse_table", "zeros",
]
