import re
from importlib.resources import files

import numpy as np
import pytest

from spincompile.errors import ParseError, ShapeError
from spincompile.evolution import evolve
from spincompile.instructions import bundled_pulse_ids, load_bundled_schedule
from spincompile.model import nearest_neighbor_chain
from spincompile.schedule import (PulseSchedule, random_init, read_pulse_table,
                                  refine_double, stage_plan, write_pulse_table,
                                  zeros)


def test_zeros_shape_and_tau():
    s = zeros(2, 0.3, 30)
    assert s.tau == pytest.approx(0.01)
    assert s.values.shape == (2, 2, 30)
    assert not s.values.any()


def test_zeros_single_slice():
    s = zeros(1, 1.0, 1)
    assert s.n_slices == 1 and s.values.shape == (2, 1, 1)


def test_zero_schedule_evolves_to_identity():
    model = nearest_neighbor_chain(1, j=0.0)
    u = evolve(model, zeros(1, 1.0, 4))
    assert np.allclose(u, np.eye(2), atol=1e-12)


def test_random_amplitude_zero_is_zeros():
    s = random_init(2, 1.0, 5, amplitude=0.0, seed=1)
    assert np.array_equal(s.values, zeros(2, 1.0, 5).values)
    assert not np.signbit(s.values).any()   # +0.0, bitwise as zeros()


@pytest.mark.parametrize("amplitude", [np.nan, np.inf, -np.inf, -0.5])
def test_random_init_rejects_bad_amplitude(amplitude):
    with pytest.raises(ValueError, match="amplitude must be >= 0 and finite"):
        random_init(2, 0.3, 3, amplitude, seed=0)


@pytest.mark.parametrize("n_qubits, n_slices", [(2, 0), (2, -1), (0, 3),
                                                (-1, 3)])
def test_constructors_reject_counts_below_one(n_qubits, n_slices):
    with pytest.raises(ShapeError, match="must be positive"):
        random_init(n_qubits, 0.3, n_slices, 1.0, seed=0)
    with pytest.raises(ShapeError, match="must be positive"):
        zeros(n_qubits, 0.3, n_slices)


@pytest.mark.parametrize("build", [
    lambda n, k: random_init(n, 1.0, k, 1.0, seed=0),
    lambda n, k: zeros(n, 1.0, k)], ids=["random_init", "zeros"])
def test_counts_must_be_integers(build):
    for n_qubits, n_slices in ((2.0, 3), (2, 3.0)):
        with pytest.raises(ShapeError, match="must be positive integers"):
            build(n_qubits, n_slices)
    s = build(np.int64(2), np.int64(3))
    assert read_pulse_table(write_pulse_table(s)).values.shape == (2, 2, 3)


def test_values_must_have_the_schedule_shape():
    s = PulseSchedule(1.0, np.zeros((2, 3, 5)))
    assert (s.n_qubits, s.n_slices, s.tau) == (3, 5, 0.2)
    for shape in ((2, 3), (2, 3, 5, 1), (3, 3, 5), (1, 3, 5), (2, 0, 5),
                  (2, 3, 0), ()):
        message = re.escape(f"values shape {shape}, expected (2, n_qubits "
                            ">= 1, n_slices >= 1)")
        with pytest.raises(ShapeError, match=f"^{message}$"):
            PulseSchedule(1.0, np.zeros(shape))


def test_random_determinism():
    a = random_init(3, 1.0, 7, amplitude=2.0, seed=42)
    b = random_init(3, 1.0, 7, amplitude=2.0, seed=42)
    assert np.array_equal(a.values, b.values)
    c = random_init(3, 1.0, 7, amplitude=2.0, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_random_sample_mean():
    s = random_init(10, 1.0, 500, amplitude=1.0, seed=0)
    assert abs(s.values.mean()) <= 0.05


def test_refine_duplicates_values():
    s = PulseSchedule(1.0, np.full((2, 1, 1), 0.7))
    r = refine_double(s)
    assert r.n_slices == 2 and r.total_time == s.total_time
    assert np.array_equal(r.values, np.full((2, 1, 2), 0.7))


def test_refine_zeros_stay_zero():
    r = refine_double(zeros(2, 1.0, 3))
    assert not r.values.any() and r.n_slices == 6


def test_refine_preserves_evolution():
    model = nearest_neighbor_chain(2)
    s = random_init(2, 0.5, 6, amplitude=1.5, seed=5)
    u0 = evolve(model, s)
    u1 = evolve(model, refine_double(s))
    assert np.linalg.norm(u0 - u1) <= 1e-12


def test_tau_halves_exactly():
    s = random_init(1, 0.8, 5, amplitude=1.0, seed=2)
    tau0 = s.tau
    for m in range(1, 4):
        s = refine_double(s)
        assert s.tau == tau0 / 2 ** m


def test_round_trip_bit_exact():
    s = random_init(3, 2.1, 17, amplitude=3.0, seed=9)
    again = read_pulse_table(write_pulse_table(s))
    assert np.array_equal(again.values, s.values)
    assert again.total_time == s.total_time
    assert (again.n_qubits, again.n_slices) == (s.n_qubits, s.n_slices)


def test_round_trip_numpy_scalars():
    # a numpy time (from a numpy time grid) is stored as a float, so the
    # table reads T=0.3, not T=np.float64(0.3)
    s = random_init(np.int64(2), np.float64(0.3), np.int64(3), amplitude=1.0,
                    seed=1)
    text = write_pulse_table(s)
    assert text.startswith("T=0.3,K=3,N=2\n")
    again = read_pulse_table(text)
    assert type(s.total_time) is float and again.total_time == 0.3
    assert np.array_equal(again.values, s.values)


def test_round_trip_bundled_corpus():
    for gate_id in bundled_pulse_ids():
        s = load_bundled_schedule(gate_id)
        again = read_pulse_table(write_pulse_table(s))
        assert np.array_equal(again.values, s.values), gate_id


def _per_token_values(text):
    """The table body read one float() per token, as (2, N, K) values."""
    meta, _header, *body = [ln for ln in text.splitlines() if ln.strip()]
    n_qubits = int(dict(kv.split("=") for kv in meta.split(","))["N"])
    values = np.empty((2, n_qubits, len(body)))
    for k, ln in enumerate(body):
        for c, tok in enumerate(ln.split(",")):
            values[c // n_qubits, c % n_qubits, k] = float(tok)
    return values


@pytest.mark.parametrize("gate_id", bundled_pulse_ids())
def test_bundled_tables_parse_as_per_token_floats(gate_id):
    text = files("spincompile").joinpath(f"data/pulses/{gate_id}.csv")
    text = text.read_text()
    assert (read_pulse_table(text).values.tobytes()
            == _per_token_values(text).tobytes())


def test_round_trip_parses_as_per_token_floats():
    text = write_pulse_table(random_init(5, 2.56, 256, amplitude=3.0,
                                         seed=11))
    assert (read_pulse_table(text).values.tobytes()
            == _per_token_values(text).tobytes())


@pytest.mark.parametrize("token, error", [("oops", "bad number 'oops'"),
                                          ("nan", "non-finite number 'nan'"),
                                          ("1e400",
                                           "non-finite number '1e400'")])
def test_bad_last_entry_is_located(token, error):
    # the whole-body conversion fails or reads a non-finite entry, and the
    # token-by-token pass names the entry
    text = "T=1.0,K=3,N=2\nx1,x2,y1,y2\n" + "0.1,0.2,0.3,0.4\n" * 2
    text += f"0.1,0.2,0.3,{token}\n"
    with pytest.raises(ParseError, match=f"^line 5, column 4: {error}$"):
        read_pulse_table(text)


def test_numbers_follow_float_syntax():
    # digit separators and padding are read as float() reads them
    text = "T=1.0,K=2,N=1\nx1,y1\n1_0, 2.5 \n-0,.5\n"
    values = read_pulse_table(text).values
    assert values.tolist() == [[[10.0, -0.0]], [[2.5, 0.5]]]
    assert np.signbit(values[0, 0, 1])


def test_bundled_u0_first_row():
    s = load_bundled_schedule("u0")
    assert (s.total_time, s.n_slices, s.n_qubits) == (0.3, 30, 2)
    assert np.allclose(s.values[0, :, 0], [-6.3436, -3.7902])
    assert np.allclose(s.values[1, :, 0], [-10.6531, -2.2952])


def test_empty_body_shape_error():
    with pytest.raises(ShapeError):
        read_pulse_table("T=1.0,K=2,N=1\nx1,y1\n")


def test_ragged_rows_shape_error():
    text = "T=1.0,K=2,N=1\nx1,y1\n0.1,0.2\n0.1\n"
    with pytest.raises(ShapeError):
        read_pulse_table(text)


def test_parse_error_carries_location():
    text = "T=1.0,K=1,N=1\nx1,y1\n0.1,oops\n"
    with pytest.raises(ParseError, match="line 3, column 2"):
        read_pulse_table(text)


def test_bad_metadata():
    with pytest.raises(ParseError, match="line 1"):
        read_pulse_table("T=1.0,K=1\nx1,y1\n0.0,0.0\n")


@pytest.mark.parametrize("text, error, message", [
    ("T=1.0,K=1,N=1\n\n", ShapeError, "needs a metadata line, a header"),
    ("T=1.0,K1,N=1\nx1,y1\n0.1,0.2\n", ParseError,
     "line 1, column 2: expected key=value, got 'K1'"),
    ("T=1.0,K=1.5,N=1\nx1,y1\n0.1,0.2\n", ParseError,
     "line 1: K and N must be integers"),
    ("T=1.0,K=1,N=one\nx1,y1\n0.1,0.2\n", ParseError,
     "line 1: K and N must be integers"),
    ("T=1.0,K=3,N=1\nx1,y1\n0.1,0.2\n0.3,0.4\n", ShapeError,
     "2 data rows, metadata says K=3"),
    ("T=1.0,K=1,N=1\nx1,y1\n0.1,0.2\n0.3,0.4\n", ShapeError,
     "2 data rows, metadata says K=1"),
    # the metadata names T, K and N once each, and nothing else
    ("T=0.3,K=1,N=1,T=5\nx1,y1\n0.1,0.2\n", ParseError,
     "line 1, column 4: T repeats column 1"),
    ("T=0.3,K=1,N=1,M=2\nx1,y1\n0.1,0.2\n", ParseError,
     "line 1, column 4: unknown key 'M'"),
    # the header is x1..xN,y1..yN, as written
    ("T=1.0,K=1,N=2\ny1,y2,x1,x2\n0.1,0.2,0.3,0.4\n", ParseError,
     "line 2, column 1: header 'y1', expected 'x1'"),
    ("T=1.0,K=1,N=2\n x1 , x2,y1,y3\n0.1,0.2,0.3,0.4\n", ParseError,
     "line 2, column 4: header 'y3', expected 'y2'"),
    ("T=1.0,K=1,N=2\nx1,x2,y1\n0.1,0.2,0.3,0.4\n", ParseError,
     "line 2, column 4: 3 header columns, expected 4"),
    ("T=1.0,K=1,N=1\nx1,y1,x2\n0.1,0.2\n", ParseError,
     "line 2, column 3: 3 header columns, expected 2")])
def test_malformed_table_is_located(text, error, message):
    with pytest.raises(error, match=message):
        read_pulse_table(text)


# blank lines are allowed, and counted: a location is a line of the text
@pytest.mark.parametrize("text, error, message", [
    ("T=1.0,K=1,N=1\n\nx1,y1\n0.1,oops\n", ParseError,
     "line 4, column 2: bad number 'oops'"),
    ("\nT=1.0,K1,N=1\nx1,y1\n0.1,0.2\n", ParseError,
     "line 2, column 2: expected key=value, got 'K1'"),
    ("T=1.0,K=2,N=1\nx1,y1\n0.1,0.2\n\n0.1\n", ShapeError,
     "line 5: 1 columns, expected 2")])
def test_blank_lines_keep_the_text_line_numbers(text, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        read_pulse_table(text)
    s = read_pulse_table("\nT=1.0,K=2,N=1\n\nx1,y1\n0.1,0.2\n \n0.3,0.4\n\n")
    assert np.array_equal(s.values, [[[0.1, 0.3]], [[0.2, 0.4]]])


def test_stage_plan_defaults():
    k0, r = stage_plan(2.4)
    assert (k0, r) == (30, 3)
    k0, r = stage_plan(0.45)
    assert (k0, r) == (6, 3)
    k0, r = stage_plan(0.3)
    assert (k0, r) == (4, 3)


@pytest.mark.parametrize("total_time, cap, plan", [
    (0.45, 0, (6, 0)), (0.45, 1, (6, 1)), (0.45, 3, (6, 3)),
    (2.4, 5, (30, 4)), (0.04, 3, (1, 3)), (0.01, 3, (1, 1))])
def test_stage_plan_caps_refinements(total_time, cap, plan):
    # halvings stop at the cap or before the slice width drops below 0.005
    assert stage_plan(total_time, cap) == plan


@pytest.mark.parametrize("total_time", [np.inf, np.nan, 0.0, -1.0])
def test_stage_plan_rejects_bad_total_time(total_time):
    with pytest.raises(ShapeError, match="total_time"):
        stage_plan(total_time)


@pytest.mark.parametrize("total_time", [np.inf, np.nan, 0.0, -1.0])
def test_schedule_rejects_bad_total_time(total_time):
    with pytest.raises(ShapeError, match="total_time"):
        PulseSchedule(total_time, np.zeros((2, 1, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_schedule_rejects_non_finite_values(bad):
    vals = np.zeros((2, 2, 3))
    vals[1, 0, 2] = bad
    with pytest.raises(ShapeError, match="finite"):
        PulseSchedule(1.0, vals)
    with pytest.raises(ShapeError, match="finite"):
        zeros(2, 1.0, 3).with_values(vals)


@pytest.mark.parametrize("text,where", [
    ("T=1.0,K=2,N=1\nx1,y1\n0.1,0.2\n0.3,nan\n", "line 4, column 2"),
    ("T=1.0,K=1,N=2\nx1,x2,y1,y2\n0.1,-inf,0.2,0.3\n", "line 3, column 2"),
    ("K=1,T=inf,N=1\nx1,y1\n0.1,0.2\n", "line 1, column 2"),
    ("T=0,K=1,N=1\nx1,y1\n0.1,0.2\n", "line 1, column 1"),
    ("T=1.0,K=1,N=-1\nx1,y1\n0.1,0.2\n", "line 1: K and N"),
])
def test_table_rejects_non_finite_and_non_positive(text, where):
    with pytest.raises(ParseError, match=where):
        read_pulse_table(text)
