import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlz import (
    GuidanceConfig,
    GuidanceMode,
    LatentState,
    NoiseSchedule,
    NonFiniteError,
    build_linear_schedule,
    clean_estimate,
    ddim_step,
    deterministic_invert,
    guided_epsilon,
    stochastic_invert,
)

SCHED = build_linear_schedule(20, 0.01, 0.2)


def test_clean_estimate_inverts_forward_noising():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(4)
    eps = rng.standard_normal(4)
    t = 12
    ab = SCHED.alpha_bars[t]
    x_t = LatentState(math.sqrt(ab) * x0 + math.sqrt(1 - ab) * eps, t)
    rec = clean_estimate(x_t, eps, SCHED)
    assert np.max(np.abs(rec - x0)) <= 1e-12 * max(1.0, np.max(np.abs(x0)))


def test_clean_estimate_zero_noise():
    x = LatentState(np.array([1.0, -2.0]), 5)
    out = clean_estimate(x, np.zeros(2), SCHED)
    assert np.array_equal(out, x.x / math.sqrt(SCHED.alpha_bars[5]))


def test_clean_estimate_rejects_data_level():
    with pytest.raises(ValueError):
        clean_estimate(LatentState(np.zeros(2), 0), np.zeros(2), SCHED)


def test_ddim_step_degenerate_when_products_equal():
    sched = NoiseSchedule(2, np.array([1.0, 0.8, 0.8]))
    x = LatentState(np.array([0.3, -1.1]), 2)
    eps = np.array([0.5, 0.25])
    nxt = ddim_step(x, clean_estimate(x, eps, sched), eps, sched)
    assert np.max(np.abs(nxt.x - x.x)) <= 1e-12


def test_ddim_final_step_returns_clean_estimate():
    x = LatentState(np.array([0.7, 0.1, -0.4]), 1)
    eps = np.array([0.2, -0.3, 0.05])
    x0_hat = clean_estimate(x, eps, SCHED)
    nxt = ddim_step(x, x0_hat, eps, SCHED)
    assert nxt.t == 0
    assert np.array_equal(nxt.x, x0_hat)


def test_ddim_step_scalar_oracle():
    # ab_t = 0.25, ab_{t-1} = 0.64, x = 1.0, eps = 0.5, evaluated directly
    sched = NoiseSchedule(2, np.array([1.0, 0.64, 0.25]))
    x = LatentState(np.array([1.0]), 2)
    x0_hat = clean_estimate(x, np.array([0.5]), sched)
    nxt = ddim_step(x, x0_hat, np.array([0.5]), sched)
    expected_x0 = (1.0 - math.sqrt(0.75) * 0.5) / math.sqrt(0.25)
    expected_prev = math.sqrt(0.64) * expected_x0 + math.sqrt(0.36) * 0.5
    assert x0_hat[0] == pytest.approx(expected_x0, rel=1e-14)
    assert nxt.x[0] == pytest.approx(expected_prev, rel=1e-14)


def test_ddim_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ddim_step(LatentState(np.zeros(2), 0), np.zeros(2), np.zeros(2), SCHED)
    with pytest.raises(ValueError):
        ddim_step(LatentState(np.zeros(2), 3), np.zeros(3), np.zeros(2), SCHED)


def test_stochastic_invert_zero_delta_is_identity():
    x = LatentState(np.array([0.4, -0.9]), 7)
    out = stochastic_invert(x, 0, np.array([5.0, 5.0]), SCHED)
    assert out.t == 7
    assert np.array_equal(out.x, x.x)


def test_stochastic_invert_from_data_is_forward_process():
    x0 = np.array([1.5, -0.5])
    noise = np.array([0.3, 0.8])
    delta = 6
    out = stochastic_invert(LatentState(x0, 0), delta, noise, SCHED)
    ab = SCHED.alpha_bars[delta]
    expected = math.sqrt(ab) * x0 + math.sqrt(1 - ab) * noise
    assert np.array_equal(out.x, expected)


def test_stochastic_invert_marginal_moments():
    # Draw x_t from the forward process, re-noise, and compare moments of
    # x_{t+delta} given x0 against the closed-form forward marginals.
    rng = np.random.default_rng(11)
    n = 60_000
    x0 = 1.3
    t, delta = 8, 5
    ab_t = SCHED.alpha_bars[t]
    ab_up = SCHED.alpha_bars[t + delta]
    x_t = math.sqrt(ab_t) * x0 + math.sqrt(1 - ab_t) * rng.standard_normal(n)
    ratio = ab_up / ab_t
    x_up = math.sqrt(ratio) * x_t + math.sqrt(1 - ratio) * rng.standard_normal(n)
    mean_se = math.sqrt((1 - ab_up) / n)
    var_se = (1 - ab_up) * math.sqrt(2 / (n - 1))
    assert abs(x_up.mean() - math.sqrt(ab_up) * x0) <= 4 * mean_se
    assert abs(x_up.var(ddof=1) - (1 - ab_up)) <= 4 * var_se


def test_stochastic_invert_rejects_overflowing_level():
    x = LatentState(np.zeros(2), 18)
    with pytest.raises(ValueError):
        stochastic_invert(x, 3, np.zeros(2), SCHED)


def test_deterministic_invert_round_trip():
    rng = np.random.default_rng(3)
    for t in range(1, SCHED.num_steps):
        x_prev = LatentState(rng.standard_normal(3), t - 1)
        eps = rng.standard_normal(3)
        raised = deterministic_invert(x_prev, eps, SCHED)
        back = ddim_step(raised, clean_estimate(raised, eps, SCHED), eps, SCHED)
        scale = max(1.0, np.max(np.abs(x_prev.x)))
        assert np.max(np.abs(back.x - x_prev.x)) <= 1e-12 * scale
    x_t = LatentState(rng.standard_normal(3), 9)
    eps = rng.standard_normal(3)
    lowered = ddim_step(x_t, clean_estimate(x_t, eps, SCHED), eps, SCHED)
    again = deterministic_invert(lowered, eps, SCHED)
    assert np.max(np.abs(again.x - x_t.x)) <= 1e-12 * max(1.0, np.max(np.abs(x_t.x)))


def test_deterministic_invert_zero_eps_is_rescale():
    x = LatentState(np.array([2.0, -1.0]), 4)
    out = deterministic_invert(x, np.zeros(2), SCHED)
    scale = math.sqrt(SCHED.alpha_bars[5] / SCHED.alpha_bars[4])
    assert np.array_equal(out.x, scale * x.x)


def test_deterministic_invert_scalar_oracle():
    sched = NoiseSchedule(2, np.array([1.0, 0.64, 0.25]))
    out = deterministic_invert(LatentState(np.array([1.0]), 1), np.array([0.5]), sched)
    scale = math.sqrt(0.25 / 0.64)
    expected = scale * 1.0 + (math.sqrt(0.75) - scale * math.sqrt(0.36)) * 0.5
    assert out.x[0] == pytest.approx(expected, rel=1e-14)


def test_deterministic_invert_rejects_top_level():
    with pytest.raises(ValueError):
        deterministic_invert(LatentState(np.zeros(2), SCHED.num_steps), np.zeros(2), SCHED)


def test_guided_epsilon_endpoints():
    cond = np.array([1.0, 2.0])
    uncond = np.array([-1.0, 0.5])
    assert np.array_equal(guided_epsilon(cond, uncond, 1.0), cond)
    assert np.array_equal(guided_epsilon(cond, uncond, 0.0), uncond)
    same = np.array([0.2, 0.4])
    for omega in (0.0, 0.5, 3.0, 7.7):
        assert np.array_equal(guided_epsilon(same, same, omega), same)
    with pytest.raises(ValueError):
        guided_epsilon(np.zeros(2), np.zeros(3), 1.0)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=4),
    st.floats(-4, 4),
    st.floats(-4, 4),
)
def test_guided_epsilon_is_affine_in_omega(base, w1, w2):
    cond = np.array(base)
    uncond = cond[::-1].copy()
    lhs = guided_epsilon(cond, uncond, w1) + guided_epsilon(cond, uncond, w2)
    rhs = 2.0 * guided_epsilon(cond, uncond, (w1 + w2) / 2.0)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    st.lists(st.floats(-3, 3), min_size=2, max_size=2),
)
def test_step_outputs_satisfy_update_identity(t, x, eps_a, eps_b):
    state = LatentState(np.array(x), t)
    x0_hat = clean_estimate(state, np.array(eps_a), SCHED)
    nxt = ddim_step(state, x0_hat, np.array(eps_b), SCHED)
    ab_prev = SCHED.alpha_bars[t - 1]
    expected = math.sqrt(ab_prev) * x0_hat + math.sqrt(1 - ab_prev) * np.array(eps_b)
    assert np.array_equal(nxt.x, expected)


def test_guidance_config_validation():
    with pytest.raises(ValueError):
        GuidanceConfig(float("nan"), GuidanceMode.CFG)
    with pytest.raises(ValueError):
        GuidanceConfig(float("inf"), GuidanceMode.CFG)
    with pytest.raises(ValueError):
        GuidanceConfig(-0.5, GuidanceMode.CFG)


def test_latent_state_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        LatentState(np.array([1.0, float("nan")]), 3)
    with pytest.raises(NonFiniteError):
        LatentState(np.array([float("inf")]), 1)
