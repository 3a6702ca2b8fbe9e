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
    s = PulseSchedule(1, 1.0, 1, np.full((2, 1, 1), 0.7))
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


def test_round_trip_bundled_corpus():
    for gate_id in bundled_pulse_ids():
        s = load_bundled_schedule(gate_id)
        again = read_pulse_table(write_pulse_table(s))
        assert np.array_equal(again.values, s.values), gate_id


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
def test_schedule_rejects_bad_total_time(total_time):
    with pytest.raises(ShapeError, match="total_time"):
        PulseSchedule(1, total_time, 1, np.zeros((2, 1, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_schedule_rejects_non_finite_values(bad):
    vals = np.zeros((2, 2, 3))
    vals[1, 0, 2] = bad
    with pytest.raises(ShapeError, match="finite"):
        PulseSchedule(2, 1.0, 3, vals)
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
