"""Piecewise-constant pulse schedules and their table format.

A schedule stores one amplitude per (axis, qubit, slice); the value
h[axis, n, k] is held constant during the k-th slice of duration
tau = total_time / n_slices. Coarse-to-fine refinement doubles the slice
count while duplicating values, which leaves the represented
piecewise-constant function (and therefore the evolution) unchanged.

Table format (one file per schedule)::

    T=<total_time>,K=<n_slices>,N=<n_qubits>
    x1,...,xN,y1,...,yN
    <K data rows, comma separated>

Each of T, K and N appears once, and the header is exactly the one
shown; a reader rejects any other form at its line and column. Values are
written with 17 significant digits so a write/read round trip is bit
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeError

AXES = ("x", "y")


def check_total_time(total_time: float) -> float:
    """total_time, if it is finite and positive; else ShapeError."""
    if not 0 < total_time < math.inf:
        raise ShapeError(f"total_time {total_time!r} must be finite and "
                         "positive")
    return total_time


def check_counts(n_qubits: int, n_slices: int) -> None:
    """ShapeError unless both counts are integers of at least 1."""
    if not all(isinstance(c, (int, np.integer)) and c >= 1
               for c in (n_qubits, n_slices)):
        raise ShapeError("n_qubits and n_slices must be positive integers")


@dataclass(frozen=True)
class PulseSchedule:
    """Immutable control schedule; values has shape (2, n_qubits, n_slices)
    with axis index 0 = x, 1 = y."""

    n_qubits: int
    total_time: float
    n_slices: int
    values: np.ndarray

    def __post_init__(self):
        check_counts(self.n_qubits, self.n_slices)
        v = np.asarray(self.values, dtype=float)
        expected = (len(AXES), self.n_qubits, self.n_slices)
        if v.shape != expected:
            raise ShapeError(f"values shape {v.shape}, expected {expected}")
        # a Python float, so a numpy scalar's repr never reaches a table
        object.__setattr__(self, "total_time",
                           float(check_total_time(self.total_time)))
        if not np.isfinite(v).all():
            raise ShapeError("values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def tau(self) -> float:
        return self.total_time / self.n_slices

    def with_values(self, values) -> "PulseSchedule":
        return PulseSchedule(self.n_qubits, self.total_time, self.n_slices, values)


def zeros(n_qubits: int, total_time: float, n_slices: int) -> PulseSchedule:
    check_counts(n_qubits, n_slices)
    return PulseSchedule(n_qubits, total_time, n_slices,
                         np.zeros((len(AXES), n_qubits, n_slices)))


def random_init(n_qubits: int, total_time: float, n_slices: int,
                amplitude: float, seed) -> PulseSchedule:
    """Entries i.i.d. uniform in [-amplitude, amplitude]; seed-deterministic.
    ShapeError for a count below 1, ValueError unless 0 <= amplitude < inf,
    both before anything is drawn."""
    check_counts(n_qubits, n_slices)
    if not 0 <= amplitude < math.inf:
        raise ValueError("amplitude must be >= 0 and finite")
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-amplitude, amplitude,
                       size=(len(AXES), n_qubits, n_slices))
    return PulseSchedule(n_qubits, total_time, n_slices, vals)


def refine_double(s: PulseSchedule) -> PulseSchedule:
    """Halve tau: each slice value is duplicated into two adjacent slices."""
    vals = np.repeat(s.values, 2, axis=2)
    return PulseSchedule(s.n_qubits, s.total_time, 2 * s.n_slices, vals)


def _column_names(n_qubits: int) -> list:
    """The table header's names, x1..xN then y1..yN."""
    return [f"{axis}{q + 1}" for axis in AXES for q in range(n_qubits)]


def write_pulse_table(s: PulseSchedule) -> str:
    n = s.n_qubits
    lines = [f"T={s.total_time!r},K={s.n_slices},N={n}",
             ",".join(_column_names(n))]
    for k in range(s.n_slices):
        row = [repr(float(s.values[a, q, k]))
               for a in range(len(AXES)) for q in range(n)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def parse_float(tok: str, line_no: int, col: int) -> float:
    try:
        x = float(tok)
    except ValueError:
        raise ParseError(f"line {line_no}, column {col}: bad number {tok!r}") from None
    if not math.isfinite(x):
        raise ParseError(f"line {line_no}, column {col}: non-finite number {tok!r}")
    return x


def read_pulse_table(text: str) -> PulseSchedule:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ShapeError("table needs a metadata line, a header, and data rows")
    meta, meta_col = {}, {}
    for col, tok in enumerate(lines[0].split(","), start=1):
        if "=" not in tok:
            raise ParseError(f"line 1, column {col}: expected key=value, got {tok!r}")
        key, val = (part.strip() for part in tok.split("=", 1))
        if key not in ("T", "K", "N"):
            raise ParseError(f"line 1, column {col}: unknown key {key!r}, "
                             "expected T, K or N")
        if key in meta:
            raise ParseError(f"line 1, column {col}: {key} repeats column "
                             f"{meta_col[key]}")
        meta[key], meta_col[key] = val, col
    for key in ("T", "K", "N"):
        if key not in meta:
            raise ParseError(f"line 1: missing {key}= in metadata")
    total_time = parse_float(meta["T"], 1, meta_col["T"])
    if total_time <= 0:
        raise ParseError(f"line 1, column {meta_col['T']}: T must be positive, "
                         f"got {meta['T']!r}")
    try:
        n_slices, n_qubits = int(meta["K"]), int(meta["N"])
    except ValueError:
        raise ParseError("line 1: K and N must be integers") from None
    if n_slices < 1 or n_qubits < 1:
        raise ParseError("line 1: K and N must be positive")
    header = [tok.strip() for tok in lines[1].split(",")]
    width = 2 * n_qubits
    if len(header) != width:
        raise ParseError(f"line 2, column {min(len(header), width) + 1}: "
                         f"{len(header)} header columns, expected {width}")
    for col, (got, want) in enumerate(zip(header, _column_names(n_qubits)),
                                      start=1):
        if got != want:
            raise ParseError(f"line 2, column {col}: header {got!r}, "
                             f"expected {want!r}")

    body = lines[2:]
    if not body:
        raise ShapeError("empty table body")
    if len(body) != n_slices:
        raise ShapeError(f"{len(body)} data rows, metadata says K={n_slices}")
    vals = np.empty((2, n_qubits, n_slices))
    for k, ln in enumerate(body):
        toks = ln.split(",")
        if len(toks) != width:
            raise ShapeError(f"line {k + 3}: {len(toks)} columns, expected {width}")
        for c, tok in enumerate(toks):
            x = parse_float(tok.strip(), k + 3, c + 1)
            vals[c // n_qubits, c % n_qubits, k] = x
    return PulseSchedule(n_qubits, total_time, n_slices, vals)


COARSE_TAU, TARGET_TAU = 0.08, 0.01     # first and finest slice widths


def stage_plan(total_time: float, max_refinements: int = 3):
    """Pick (initial slice count, refinement count) for a synthesis run:
    K0 = round(T / COARSE_TAU), then at most ``max_refinements`` halvings
    that keep the slice width above TARGET_TAU / 2. ShapeError unless
    total_time is finite and positive."""
    k0 = max(1, round(check_total_time(total_time) / COARSE_TAU))
    refinements = max_refinements
    while refinements > 0 and total_time / (k0 * 2 ** refinements) < TARGET_TAU / 2:
        refinements -= 1
    return k0, refinements
