import dataclasses
import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlz import NoiseSchedule, build_linear_schedule, subsample


def mp_product_oracle(betas, dps=60):
    """Extended-precision running product of (1 - beta)."""
    with mpmath.workdps(dps):
        acc = mpmath.mpf(1)
        out = []
        for b in betas:
            acc *= 1 - mpmath.mpf(b)
            out.append(acc)
        return [float(v) for v in out]


def test_single_step_schedule():
    s = build_linear_schedule(1, 0.5, 0.5)
    assert s.alpha_bars.tolist() == [1.0, 0.5]


def test_constant_beta_closed_form():
    b = 0.1
    s = build_linear_schedule(3, b, b)
    assert s.alpha_bars[3] == pytest.approx((1 - b) ** 3, rel=1e-15)


def test_training_grid_matches_high_precision_product():
    s = build_linear_schedule(1000, 1e-4, 0.02)
    oracle = mp_product_oracle(np.linspace(1e-4, 0.02, 1000))
    assert abs(s.alpha_bars[1000] - oracle[-1]) <= 1e-12 * oracle[-1]
    assert np.max(np.abs(s.alpha_bars[1:] - oracle) / oracle) <= 1e-12


@pytest.mark.parametrize(
    "args",
    [(0, 0.1, 0.2), (10, 0.0, 0.2), (10, -0.1, 0.2), (10, 0.1, 1.0), (10, 0.3, 0.2)],
)
def test_linear_schedule_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        build_linear_schedule(*args)


def test_schedule_rejects_inconsistent_products():
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([1.0, 0.5, 0.9]))
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([0.5, 0.45]))
    with pytest.raises(ValueError, match="at least two levels"):
        NoiseSchedule(np.array([1.0]))
    with pytest.raises(ValueError, match="at least two levels"):
        NoiseSchedule(np.array([[1.0, 0.5]]))
    with pytest.raises(ValueError, match="must be finite"):
        NoiseSchedule(np.array([1.0, float("nan")]))


def test_schedule_length_is_derived_from_its_products():
    assert NoiseSchedule(np.array([1.0, 0.5, 0.25])).num_steps == 2
    assert build_linear_schedule(7, 1e-3, 0.02).num_steps == 7
    with pytest.raises(TypeError):
        NoiseSchedule(2, np.array([1.0, 0.5, 0.25]))


def test_subsample_identity_is_bit_exact():
    parent = build_linear_schedule(50, 1e-4, 0.02)
    child = subsample(parent, 50)
    assert np.array_equal(child.alpha_bars, parent.alpha_bars)


def test_subsample_selects_expected_indices():
    parent = build_linear_schedule(4, 0.1, 0.4)
    child = subsample(parent, 2)
    assert child.alpha_bars[1] == parent.alpha_bars[2]
    assert child.alpha_bars[2] == parent.alpha_bars[4]


def test_subsample_recurrence_and_product_oracle():
    parent = build_linear_schedule(1000, 1e-4, 0.02)
    child = subsample(parent, 50)
    picked = np.round(np.linspace(20, 1000, 50)).astype(int)
    oracle = np.array(mp_product_oracle(np.linspace(1e-4, 0.02, 1000)))[picked - 1]
    assert np.max(np.abs(child.alpha_bars[1:] - oracle) / oracle) <= 1e-13


def test_subsample_rejects_bad_step_counts():
    parent = build_linear_schedule(10, 1e-4, 0.02)
    with pytest.raises(ValueError):
        subsample(parent, 0)
    with pytest.raises(ValueError):
        subsample(parent, 11)


def test_shipped_schedule_alpha_bars_are_pinned():
    # Every output digest depends on these bits (recorded with numpy 2.4.6).
    child = subsample(build_linear_schedule(1000, 1e-4, 0.02), 50)
    assert hashlib.sha256(child.alpha_bars.tobytes()).hexdigest()[:16] == "6eef210e7c86bedd"


@st.composite
def linear_args(draw):
    T = draw(st.integers(min_value=1, max_value=120))
    beta_start = draw(st.floats(min_value=1e-6, max_value=0.02))
    beta_end = draw(st.floats(min_value=beta_start, max_value=0.05))
    return T, beta_start, beta_end


def linear_schedules():
    return linear_args().map(lambda args: build_linear_schedule(*args))


@settings(max_examples=60, deadline=None)
@given(linear_args())
def test_reconstructing_products_from_betas(args):
    T, beta_start, beta_end = args
    sched = build_linear_schedule(T, beta_start, beta_end)
    recon = np.concatenate(([1.0], np.cumprod(1.0 - np.linspace(beta_start, beta_end, T))))
    assert np.max(np.abs(recon - sched.alpha_bars) / sched.alpha_bars) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(linear_schedules(), st.data())
def test_subsampled_products_reconstruct_and_stay_monotone(sched, data):
    steps = data.draw(st.integers(min_value=1, max_value=sched.num_steps))
    child = subsample(sched, steps)
    assert np.all(np.diff(child.alpha_bars) < 0)
    again = subsample(child, child.num_steps)
    assert np.array_equal(again.alpha_bars, child.alpha_bars)


@settings(max_examples=60, deadline=None)
@given(linear_schedules(), st.data())
def test_subsample_picks_parent_levels_bit_for_bit(sched, data):
    P = sched.num_steps
    steps = data.draw(st.integers(min_value=1, max_value=P))
    picked = np.round(np.linspace(P / steps, P, steps)).astype(int)
    assert subsample(sched, steps).alpha_bars[1:].tobytes() == sched.alpha_bars[picked].tobytes()


@settings(max_examples=40, deadline=None)
@given(linear_schedules())
def test_monotonicity_is_strict_for_positive_betas(sched):
    assert np.all(sched.alpha_bars[1:] < sched.alpha_bars[:-1])
    assert np.all(sched.alpha_bars > 0.0)
    assert np.all(sched.alpha_bars <= 1.0)


def test_schedules_compare_and_hash_by_identity():
    a = build_linear_schedule(10, 1e-3, 0.02)
    b = build_linear_schedule(10, 1e-3, 0.02)
    assert a == a and a != b and not (a == b)
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def assert_roots_are_read_only_square_roots(sched):
    """Each ``root_arrays`` row holds ``math.sqrt(ab_t)``, ``math.sqrt(1 - ab_t)`` and its negation bit for bit, as
    read-only 0-d float64 arrays, and the table cannot be rebound."""
    assert len(sched.root_arrays) == sched.num_steps + 1
    for row, ab in zip(sched.root_arrays, sched.alpha_bars.tolist()):
        a, b = math.sqrt(ab), math.sqrt(1.0 - ab)
        assert [r.item().hex() for r in row] == [a.hex(), b.hex(), (-b).hex()]  # hex keeps the sign of -0.0
        for r in row:
            assert (type(r), r.shape, r.dtype, r.flags.writeable) == (np.ndarray, (), np.float64, False)
            with pytest.raises(ValueError):
                r[...] = 0.0
    assert type(sched.root_arrays) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        sched.root_arrays = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        del sched.root_arrays


def test_shipped_schedule_roots_are_read_only_square_roots(sched50):
    assert_roots_are_read_only_square_roots(sched50)


@settings(max_examples=60, deadline=None)
@given(linear_schedules(), st.data())
def test_schedule_roots_are_read_only_square_roots(sched, data):
    assert_roots_are_read_only_square_roots(sched)
    assert_roots_are_read_only_square_roots(subsample(sched, data.draw(st.integers(1, sched.num_steps))))


def test_roots_are_built_on_first_read_and_stay_out_of_repr_and_equality():
    parent = build_linear_schedule(1000, 1e-4, 0.02)
    child = subsample(parent, 50)
    assert "root_arrays" not in vars(parent)  # subsample reads alpha_bars only
    assert "root_arrays" not in vars(child)
    assert child.root_arrays is child.root_arrays  # computed once, then held
    assert "root_arrays" in vars(child)
    assert "sqrt" not in repr(child) and "root" not in repr(child)
    assert [f.name for f in dataclasses.fields(child)] == ["alpha_bars", "num_steps"]
