import math
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctrlz import (
    Condition,
    EvalContext,
    GaussianMixture,
    GuidanceConfig,
    GuidanceMode,
    LatentState,
    NoiseSchedule,
    build_linear_schedule,
    clean_estimate,
    exact_epsilon,
    predict,
)

SCHED = build_linear_schedule(30, 0.005, 0.1)
UNCOND = Condition.unconditional()


def posterior_mean_oracle(mix, weights, x, ab):
    """Responsibility-weighted posterior mean, direct density arithmetic."""
    k, d = mix.means.shape
    dens = np.empty(k)
    post = np.empty((k, d))
    for i in range(k):
        m = math.sqrt(ab) * mix.means[i]
        v = ab * mix.scales[i] ** 2 + (1 - ab)
        gap = x - m
        dens[i] = weights[i] * math.exp(-gap @ gap / (2 * v)) / (2 * math.pi * v) ** (d / 2)
        post[i] = mix.means[i] + (math.sqrt(ab) * mix.scales[i] ** 2 / v) * gap
    resp = dens / dens.sum()
    return resp @ post


def marginal_component_params(mix, k, t, sched):
    """Mean and isotropic variance of component ``k`` diffused to level ``t``."""
    if not 0 <= k < mix.n_components:
        raise ValueError(f"component {k} out of range")
    ab = sched.alpha_bar(t)
    return math.sqrt(ab) * mix.means[k], ab * float(mix.scales[k]) ** 2 + (1.0 - ab)


def test_marginal_params_zero_noise_level():
    mix = GaussianMixture(np.array([1.0]), np.array([[2.0, -1.0]]), np.array([0.5]))
    mean, var = marginal_component_params(mix, 0, 0, SCHED)
    assert np.array_equal(mean, mix.means[0])
    assert var == 0.25


def test_marginal_params_full_noise_limit():
    mix = GaussianMixture(np.array([1.0]), np.array([[2.0, -1.0]]), np.array([0.5]))
    deep = build_linear_schedule(4000, 1e-3, 0.03)
    mean, var = marginal_component_params(mix, 0, 4000, deep)
    assert np.max(np.abs(mean)) < 1e-8
    assert var == pytest.approx(1.0, abs=1e-8)


def test_marginal_params_half_noise_hand_case():
    # ab = 0.5, mu = (2, 0), s = 1: variance 0.5 * 1 + 0.5 = 1 exactly
    sched = NoiseSchedule(1, np.array([1.0, 0.5]))
    mix = GaussianMixture(np.array([1.0]), np.array([[2.0, 0.0]]), np.array([1.0]))
    mean, var = marginal_component_params(mix, 0, 1, sched)
    assert np.allclose(mean, [math.sqrt(0.5) * 2.0, 0.0], rtol=1e-15)
    assert var == 1.0


def test_marginal_params_rejects_bad_component():
    mix = GaussianMixture(np.array([1.0]), np.array([[0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        marginal_component_params(mix, 1, 3, SCHED)


def test_exact_epsilon_standard_normal_closed_form():
    mix = GaussianMixture(np.array([1.0]), np.array([[0.0, 0.0, 0.0]]), np.array([1.0]))
    rng = np.random.default_rng(5)
    for t in (1, 7, 30):
        x = LatentState(rng.standard_normal(3), t)
        eps = exact_epsilon(x, UNCOND, mix, SCHED)
        expected = math.sqrt(1 - SCHED.alpha_bars[t]) * x.x
        assert np.max(np.abs(eps - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_exact_epsilon_single_gaussian_posterior_mean():
    mix = GaussianMixture(np.array([1.0]), np.array([[1.5, -2.0]]), np.array([0.8]))
    rng = np.random.default_rng(6)
    for t in (2, 11, 25):
        ab = SCHED.alpha_bars[t]
        x = LatentState(rng.standard_normal(2) * 2.0, t)
        got = clean_estimate(x, exact_epsilon(x, UNCOND, mix, SCHED), SCHED)
        v = ab * 0.8**2 + (1 - ab)
        expected = mix.means[0] + (math.sqrt(ab) * 0.8**2 / v) * (x.x - math.sqrt(ab) * mix.means[0])
        assert np.max(np.abs(got - expected)) <= 1e-9 * max(1.0, np.max(np.abs(expected)))


def test_exact_epsilon_mirror_symmetry():
    mix = GaussianMixture(
        np.array([0.5, 0.5]), np.array([[-2.0, 1.0], [2.0, 1.0]]), np.array([0.6, 0.6])
    )
    x = LatentState(np.array([0.0, 0.37]), 9)
    eps = exact_epsilon(x, UNCOND, mix, SCHED)
    assert eps[0] == pytest.approx(0.0, abs=1e-14)


def test_exact_epsilon_stays_finite_under_extreme_logits():
    mix = GaussianMixture(
        np.array([0.5, 0.5]), np.array([[-400.0], [400.0]]), np.array([0.05, 0.05])
    )
    x = LatentState(np.array([390.0]), 1)
    eps = exact_epsilon(x, UNCOND, mix, SCHED)
    assert np.all(np.isfinite(eps))


@st.composite
def mixtures_and_points(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.integers(min_value=1, max_value=3))
    raw_w = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    w = np.array(raw_w)
    w /= w.sum()
    means = np.array(
        draw(
            st.lists(
                st.lists(st.floats(-4, 4), min_size=d, max_size=d), min_size=k, max_size=k
            )
        )
    )
    scales = np.array(draw(st.lists(st.floats(0.3, 2.5), min_size=k, max_size=k)))
    x = np.array(draw(st.lists(st.floats(-6, 6), min_size=d, max_size=d)))
    t = draw(st.integers(min_value=1, max_value=SCHED.num_steps))
    return GaussianMixture(w, means, scales), x, t


@settings(max_examples=150, deadline=None)
@given(mixtures_and_points())
def test_clean_estimate_matches_weighted_posterior_oracle(case):
    mix, x, t = case
    state = LatentState(x, t)
    got = clean_estimate(state, exact_epsilon(state, UNCOND, mix, SCHED), SCHED)
    expected = posterior_mean_oracle(mix, mix.weights, x, SCHED.alpha_bars[t])
    assert np.max(np.abs(got - expected)) <= 1e-9 * max(1.0, np.max(np.abs(expected)))


@settings(max_examples=60, deadline=None)
@given(mixtures_and_points())
# Far from a tight component every density underflows to 0; logq must not.
@example((GaussianMixture(np.array([1.0]), np.array([[-4.0, -4.0, -4.0]]), np.array([0.3])), np.array([6.0, 6.0, 6.0]), 1))
def test_epsilon_agrees_with_finite_difference_score(case):
    mix, x, t = case
    ab = SCHED.alpha_bars[t]
    state = LatentState(x, t)
    eps = exact_epsilon(state, UNCOND, mix, SCHED)

    def logq(pt):
        """Log marginal density by log-sum-exp over the component log densities."""
        logs = []
        for i in range(mix.n_components):
            m = math.sqrt(ab) * mix.means[i]
            v = ab * mix.scales[i] ** 2 + (1 - ab)
            gap = pt - m
            logs.append(
                math.log(mix.weights[i])
                - gap @ gap / (2 * v)
                - (mix.dim / 2) * math.log(2 * math.pi * v)
            )
        top = max(logs)
        return top + math.log(sum(math.exp(lg - top) for lg in logs))

    h = 1e-5
    grad = np.empty(mix.dim)
    for j in range(mix.dim):
        step = np.zeros(mix.dim)
        step[j] = h
        grad[j] = (logq(x + step) - logq(x - step)) / (2 * h)
    expected = -math.sqrt(1 - ab) * grad
    assert np.allclose(eps, expected, rtol=1e-5, atol=1e-7)


def test_condition_reweightings():
    mix = GaussianMixture(
        np.array([0.7, 0.3]), np.array([[0.0], [1.0]]), np.array([1.0, 1.0])
    )
    assert np.array_equal(UNCOND.effective_weights(mix), mix.weights)
    assert np.array_equal(Condition.for_component(1).effective_weights(mix), [0.0, 1.0])
    assert np.array_equal(Condition.reweight([0.5, 0.5]).effective_weights(mix), [0.5, 0.5])
    with pytest.raises(ValueError):
        Condition.for_component(2).effective_weights(mix)
    with pytest.raises(ValueError):
        Condition.reweight([0.5, 0.6])
    with pytest.raises(ValueError):
        Condition.reweight([1.5, -0.5])


def test_predict_guidance_contracts(two_mode_mix, balanced_cond, sched50):
    ctx = EvalContext()
    x = LatentState(np.array([0.4, -0.2]), 20)
    pred = predict(ctx, x, balanced_cond, two_mode_mix, GuidanceConfig(1.0, GuidanceMode.CFG), sched50)
    assert np.allclose(pred.eps, exact_epsilon(x, balanced_cond, two_mode_mix, sched50), rtol=1e-14)
    pred_u = predict(ctx, x, UNCOND, two_mode_mix, GuidanceConfig(4.0, GuidanceMode.CFG), sched50)
    assert np.array_equal(pred_u.eps_noise, pred_u.eps)
    pred_pp = predict(ctx, x, balanced_cond, two_mode_mix, GuidanceConfig(4.0, GuidanceMode.CFG_PLUS_PLUS), sched50)
    assert np.array_equal(pred_pp.eps_noise, exact_epsilon(x, UNCOND, two_mode_mix, sched50))
    assert np.allclose(pred_u.eps, exact_epsilon(x, UNCOND, two_mode_mix, sched50), rtol=1e-14)


def test_predict_level_zero_degenerates_gracefully(two_mode_mix, balanced_cond, sched50):
    ctx = EvalContext()
    x = LatentState(np.array([1.0, 2.0]), 0)
    pred = predict(ctx, x, balanced_cond, two_mode_mix, GuidanceConfig(2.0, GuidanceMode.CFG), sched50)
    assert np.array_equal(pred.eps, np.zeros(2))
    assert np.array_equal(pred.x0_hat, x.x)
    assert ctx.nfe_count == 1


def test_nfe_counter_counts_every_predict(two_mode_mix, balanced_cond, sched50):
    ctx = EvalContext()
    g = GuidanceConfig(1.0, GuidanceMode.CFG)
    x = LatentState(np.array([0.1, 0.1]), 10)
    for _ in range(50):
        predict(ctx, x, balanced_cond, two_mode_mix, g, sched50)
    assert ctx.nfe_count == 50
    assert ctx.reward_calls == 0


def test_counters_exact_under_concurrent_increments(two_mode_mix, balanced_cond, sched50):
    ctx = EvalContext()
    g = GuidanceConfig(1.0, GuidanceMode.CFG)
    x = LatentState(np.array([0.1, 0.1]), 10)

    def work():
        for _ in range(200):
            predict(ctx, x, balanced_cond, two_mode_mix, g, sched50)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert ctx.nfe_count == 1600


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture(np.array([0.5, 0.6]), np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        GaussianMixture(np.array([1.0]), np.array([[0.0]]), np.array([0.0]))
    with pytest.raises(ValueError):
        GaussianMixture(np.array([1.0]), np.array([[float("nan")]]), np.array([1.0]))
    with pytest.raises(ValueError, match="scales"):
        GaussianMixture(np.array([0.5, 0.5]), np.array([[0.0], [1.0]]), np.array([1e200, 0.7]))
