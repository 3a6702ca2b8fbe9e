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
shown; a reader rejects any other form at its line and column. Blank
lines are skipped but counted. Values are written as the shortest
decimal that reads back to the same float (``csv_text``), so a
write/read round trip is bit exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRange, ParseError, ShapeError

AXES = ("x", "y")


def check_total_time(total_time: float) -> float:
    """total_time, if it is finite and positive; else ShapeError."""
    if not 0 < total_time < math.inf:
        raise ShapeError(f"total_time {total_time!r} must be finite and "
                         "positive")
    return total_time


def values_shape(n_qubits: int, n_slices: int) -> tuple:
    """(2, n_qubits, n_slices), the shape of a schedule's values; ShapeError
    unless both counts are integers of at least 1."""
    if not all(isinstance(c, (int, np.integer)) and c >= 1
               for c in (n_qubits, n_slices)):
        raise ShapeError("n_qubits and n_slices must be positive integers")
    return len(AXES), n_qubits, n_slices


@dataclass(frozen=True)
class PulseSchedule:
    """Immutable control schedule; values has shape (2, n_qubits, n_slices)
    with axis index 0 = x, 1 = y."""

    total_time: float
    values: np.ndarray
    n_qubits: int = field(init=False)   # values.shape[1]
    n_slices: int = field(init=False)   # values.shape[2]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[0] != len(AXES) or 0 in v.shape:
            raise ShapeError(f"values shape {v.shape}, expected "
                             f"({len(AXES)}, n_qubits >= 1, n_slices >= 1)")
        # a Python float, so a numpy scalar's repr never reaches a table
        object.__setattr__(self, "total_time",
                           float(check_total_time(self.total_time)))
        if not np.isfinite(v).all():
            raise ShapeError("values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "n_qubits", v.shape[1])
        object.__setattr__(self, "n_slices", v.shape[2])

    @property
    def tau(self) -> float:
        return self.total_time / self.n_slices

    def with_values(self, values) -> "PulseSchedule":
        return PulseSchedule(self.total_time, values)


def _allocated(shape, build) -> np.ndarray:
    """build(shape), the values of a (2, N, K) schedule; OutOfRange naming
    N and K when numpy refuses an array that large: a dimension past its
    limit, or more memory than it can get."""
    try:
        return build(shape)
    except (ValueError, MemoryError) as exc:
        # Decimal rounds a count of any size, where a float overflows;
        # imported here, so that only this error path pays for it
        from decimal import Decimal
        _, n_qubits, n_slices = shape
        raise OutOfRange(f"a schedule of N = {n_qubits} qubits and K = "
                         f"{Decimal(n_slices):.3g} slices is too large: "
                         f"{exc}") from None


def zeros(n_qubits: int, total_time: float, n_slices: int) -> PulseSchedule:
    """All-zero values; ShapeError for a count below 1, OutOfRange for
    counts numpy cannot allocate."""
    return PulseSchedule(total_time,
                         _allocated(values_shape(n_qubits, n_slices), np.zeros))


def random_init(n_qubits: int, total_time: float, n_slices: int,
                amplitude: float, seed) -> PulseSchedule:
    """Entries i.i.d. uniform in [-amplitude, amplitude]; seed-deterministic.
    ShapeError for a count below 1, ValueError unless 0 <= amplitude < inf,
    both before anything is drawn, and OutOfRange for counts numpy cannot
    allocate."""
    shape = values_shape(n_qubits, n_slices)
    if not 0 <= amplitude < math.inf:
        raise ValueError("amplitude must be >= 0 and finite")
    rng = np.random.default_rng(seed)
    return PulseSchedule(total_time, _allocated(
        shape, lambda size: rng.uniform(-amplitude, amplitude, size)))


def refine_double(s: PulseSchedule) -> PulseSchedule:
    """Halve tau: each slice value is duplicated into two adjacent slices."""
    return PulseSchedule(s.total_time, np.repeat(s.values, 2, axis=2))


def _column_names(n_qubits: int) -> list:
    """The table header's names, x1..xN then y1..yN."""
    return [f"{axis}{q + 1}" for axis in AXES for q in range(n_qubits)]


def csv_text(header, rows) -> str:
    """The header's and then each row's cells, comma separated, one line
    each; a cell is written as str writes it, which for a Python or numpy
    float is its shortest repr that reads back to the same float."""
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def write_pulse_table(s: PulseSchedule) -> str:
    n = s.n_qubits
    return f"T={s.total_time!r},K={s.n_slices},N={n}\n" + csv_text(
        _column_names(n), s.values.reshape(-1, s.n_slices).T.tolist())


def parse_float(tok: str, line_no: int, col: int) -> float:
    try:
        x = float(tok)
    except ValueError:
        raise ParseError(f"line {line_no}, column {col}: bad number {tok!r}") from None
    if not math.isfinite(x):
        raise ParseError(f"line {line_no}, column {col}: non-finite number {tok!r}")
    return x


def read_pulse_table(text: str) -> PulseSchedule:
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if len(lines) < 2:
        raise ShapeError("table needs a metadata line, a header, and data rows")
    (meta_no, meta_line), (header_no, header_line) = lines[:2]
    meta, meta_col = {}, {}
    for col, tok in enumerate(meta_line.split(","), start=1):
        if "=" not in tok:
            raise ParseError(f"line {meta_no}, column {col}: expected "
                             f"key=value, got {tok!r}")
        key, val = (part.strip() for part in tok.split("=", 1))
        if key not in ("T", "K", "N"):
            raise ParseError(f"line {meta_no}, column {col}: unknown key "
                             f"{key!r}, expected T, K or N")
        if key in meta:
            raise ParseError(f"line {meta_no}, column {col}: {key} repeats "
                             f"column {meta_col[key]}")
        meta[key], meta_col[key] = val, col
    for key in ("T", "K", "N"):
        if key not in meta:
            raise ParseError(f"line {meta_no}: missing {key}= in metadata")
    total_time = parse_float(meta["T"], meta_no, meta_col["T"])
    if total_time <= 0:
        raise ParseError(f"line {meta_no}, column {meta_col['T']}: T must be "
                         f"positive, got {meta['T']!r}")
    try:
        n_slices, n_qubits = int(meta["K"]), int(meta["N"])
    except ValueError:
        raise ParseError(f"line {meta_no}: K and N must be integers") from None
    if n_slices < 1 or n_qubits < 1:
        raise ParseError(f"line {meta_no}: K and N must be positive")
    header = [tok.strip() for tok in header_line.split(",")]
    width = 2 * n_qubits
    if len(header) != width:
        raise ParseError(f"line {header_no}, column {min(len(header), width) + 1}"
                         f": {len(header)} header columns, expected {width}")
    for col, (got, want) in enumerate(zip(header, _column_names(n_qubits)),
                                      start=1):
        if got != want:
            raise ParseError(f"line {header_no}, column {col}: header "
                             f"{got!r}, expected {want!r}")

    body = lines[2:]
    if not body:
        raise ShapeError("empty table body")
    if len(body) != n_slices:
        raise ShapeError(f"{len(body)} data rows, metadata says K={n_slices}")
    rows = [ln.split(",") for _no, ln in body]
    for (no, _ln), toks in zip(body, rows):
        if len(toks) != width:
            raise ShapeError(f"line {no}: {len(toks)} columns, expected {width}")
    # one conversion for the whole body; only a table it rejects, or one
    # with a non-finite entry, is read again token by token, which names
    # the first bad entry or, if there is none, gives float()'s values
    try:
        table = np.array(rows, dtype=float)
    except ValueError:
        table = None
    if table is None or not np.isfinite(table).all():
        table = np.array([[parse_float(tok.strip(), no, col)
                           for col, tok in enumerate(toks, start=1)]
                          for (no, _ln), toks in zip(body, rows)])
    return PulseSchedule(total_time, table.T.reshape(2, n_qubits, n_slices))


COARSE_TAU, TARGET_TAU = 0.08, 0.01     # first and finest slice widths


def stage_plan(total_time: float, max_refinements: int = 3):
    """Pick (initial slice count, refinement count) for a synthesis run:
    K0 = round(T / COARSE_TAU), then at most ``max_refinements`` halvings
    that keep the slice width above TARGET_TAU / 2. ShapeError unless
    total_time is finite and positive, OutOfRange if it holds more slices
    of COARSE_TAU than a float can count."""
    coarse_slices = check_total_time(total_time) / COARSE_TAU
    if coarse_slices == math.inf:
        raise OutOfRange(f"total_time {total_time!r} holds too many slices "
                         f"of {COARSE_TAU} to count")
    k0 = max(1, round(coarse_slices))
    refinements = max_refinements
    while refinements > 0 and total_time / (k0 * 2 ** refinements) < TARGET_TAU / 2:
        refinements -= 1
    return k0, refinements
