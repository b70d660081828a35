import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctrlz.models
from ctrlz import (
    Condition,
    GaussianMixture,
    GuidanceConfig,
    GuidanceMode,
    LatentState,
    NoiseSchedule,
    Prediction,
    build_linear_schedule,
    clean_estimate,
    exact_epsilon,
    guided_epsilon,
    predict,
)
from ctrlz.dynamics import ConfigError, NonFiniteError

SCHED = build_linear_schedule(30, 0.005, 0.1)
UNCOND = Condition()


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


def level_terms(mix, t, sched):
    """The denoiser's diffused component means (its geometry at x = 0) and component variances at level ``t``."""
    diff, _, _ = ctrlz.models._geometry(LatentState(np.zeros(mix.dim), t), mix, sched)
    var_t = ctrlz.models._level_table(mix, sched)[t][0]
    return diff, var_t


def test_level_terms_zero_noise_level():
    mix = GaussianMixture(np.array([1.0]), np.array([[2.0, -1.0]]), np.array([0.5]))
    means, var = level_terms(mix, 0, SCHED)
    assert np.array_equal(means[0], mix.means[0])
    assert var[0] == 0.25


def test_level_terms_full_noise_limit():
    mix = GaussianMixture(np.array([1.0]), np.array([[2.0, -1.0]]), np.array([0.5]))
    deep = build_linear_schedule(4000, 1e-3, 0.03)
    means, var = level_terms(mix, 4000, deep)
    assert np.max(np.abs(means[0])) < 1e-8
    assert var[0] == pytest.approx(1.0, abs=1e-8)


def test_level_terms_half_noise_hand_case():
    # ab = 0.5, mu = (2, 0), s = 1: variance 0.5 * 1 + 0.5 = 1 exactly
    sched = NoiseSchedule(np.array([1.0, 0.5]))
    mix = GaussianMixture(np.array([1.0]), np.array([[2.0, 0.0]]), np.array([1.0]))
    means, var = level_terms(mix, 1, sched)
    assert np.allclose(means[0], [math.sqrt(0.5) * 2.0, 0.0], rtol=1e-15)
    assert var[0] == 1.0


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


def test_exact_epsilon_rejects_a_state_outside_the_schedule_or_mixture(two_mode_mix, sched50):
    with pytest.raises(ValueError, match="outside schedule"):
        exact_epsilon(LatentState(np.zeros(2), sched50.num_steps + 1), UNCOND, two_mode_mix, sched50)
    with pytest.raises(ValueError, match="state dimension does not match mixture"):
        exact_epsilon(LatentState(np.zeros(3), 5), UNCOND, two_mode_mix, sched50)


def test_exact_epsilon_stays_finite_under_extreme_logits():
    mix = GaussianMixture(
        np.array([0.5, 0.5]), np.array([[-400.0], [400.0]]), np.array([0.05, 0.05])
    )
    x = LatentState(np.array([390.0]), 1)
    eps = exact_epsilon(x, UNCOND, mix, SCHED)
    assert np.all(np.isfinite(eps))


def test_exact_epsilon_raises_when_every_distance_overflows(two_mode_mix, sched50):
    # Every squared distance is inf, so every logit is -inf and no responsibility is defined.
    x = LatentState(np.array([1e200, 1e200]), 25)
    with pytest.raises(NonFiniteError, match="at level 25"):
        exact_epsilon(x, UNCOND, two_mode_mix, sched50)


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
    assert np.array_equal(Condition(np.array([0.0, 1.0])).effective_weights(mix), [0.0, 1.0])
    source = np.array([0.5, 0.5])
    cond = Condition(source)
    source[0] = 1.0
    assert np.array_equal(cond.effective_weights(mix), [0.5, 0.5])
    assert not cond.weights.flags.writeable
    with pytest.raises(ValueError):
        Condition(np.array([0.0, 0.0, 1.0])).effective_weights(mix)
    for bad in ([0.5, 0.6], [1.5, -0.5], [math.nan, math.nan], [[0.5, 0.5]]):
        with pytest.raises(ValueError) as err:
            Condition(np.array(bad))
        assert err.value.field == "weights"


def test_predict_guidance_contracts(two_mode_mix, balanced_cond, sched50):
    x = LatentState(np.array([0.4, -0.2]), 20)
    pred = predict(x, balanced_cond, two_mode_mix, GuidanceConfig(1.0, GuidanceMode.CFG), sched50)
    assert np.allclose(pred.eps, exact_epsilon(x, balanced_cond, two_mode_mix, sched50), rtol=1e-14)
    pred_u = predict(x, UNCOND, two_mode_mix, GuidanceConfig(4.0, GuidanceMode.CFG), sched50)
    assert np.array_equal(pred_u.eps_noise, pred_u.eps)
    pred_pp = predict(x, balanced_cond, two_mode_mix, GuidanceConfig(4.0, GuidanceMode.CFG_PLUS_PLUS), sched50)
    assert np.array_equal(pred_pp.eps_noise, exact_epsilon(x, UNCOND, two_mode_mix, sched50))
    assert np.allclose(pred_u.eps, exact_epsilon(x, UNCOND, two_mode_mix, sched50), rtol=1e-14)


def test_predict_takes_the_guidance_mode_by_value(two_mode_mix, balanced_cond, sched50):
    x = LatentState(np.array([0.4, -0.2]), 20)
    by_value = predict(x, balanced_cond, two_mode_mix, GuidanceConfig(2.0, "cfg++"), sched50)
    by_member = predict(x, balanced_cond, two_mode_mix, GuidanceConfig(2.0, GuidanceMode.CFG_PLUS_PLUS), sched50)
    assert np.array_equal(by_value.eps_noise, by_member.eps_noise)
    assert not np.array_equal(by_value.eps_noise, by_value.eps)


@pytest.mark.parametrize(
    "means,scales,field",
    [
        ([[0.0], [1.0], [2.0]], [1.0, 1.0], "means"),
        ([[0.0]], [1.0, 1.0], "means"),
        ([[0.0], [1.0]], [1.0], "scales"),
        ([[0.0], [1.0]], [1.0, 1.0, 1.0], "scales"),
    ],
)
def test_mixture_counts_must_match_the_weights(means, scales, field):
    with pytest.raises(ConfigError) as err:
        GaussianMixture(np.array([0.5, 0.5]), np.array(means), np.array(scales))
    assert err.value.field == field


def test_condition_length_must_match_the_mixture(two_mode_mix):
    for weights in ([1.0], [0.2, 0.3, 0.5]):
        with pytest.raises(ConfigError) as err:
            Condition(np.array(weights)).effective_weights(two_mode_mix)
        assert err.value.field == "weights"


def test_predict_level_zero_degenerates_gracefully(two_mode_mix, balanced_cond, sched50):
    x = LatentState(np.array([1.0, 2.0]), 0)
    pred = predict(x, balanced_cond, two_mode_mix, GuidanceConfig(2.0, GuidanceMode.CFG), sched50)
    assert np.array_equal(pred.eps, np.zeros(2))
    assert np.array_equal(pred.x0_hat, x.x)


def test_mixture_validation():
    with pytest.raises(ValueError, match="nonempty"):
        GaussianMixture(np.array([]), np.zeros((0, 1)), np.array([]))
    with pytest.raises(ValueError) as err:
        GaussianMixture(np.array([0.5, 0.6]), np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
    assert err.value.field == "weights"
    with pytest.raises(ValueError) as err:
        GaussianMixture(np.array([1.0]), np.array([[0.0]]), np.array([0.0]))
    assert err.value.field == "scales"
    with pytest.raises(ValueError) as err:
        GaussianMixture(np.array([1.0]), np.array([[float("nan")]]), np.array([1.0]))
    assert err.value.field == "means"
    with pytest.raises(ValueError, match="scales") as err:
        GaussianMixture(np.array([0.5, 0.5]), np.array([[0.0], [1.0]]), np.array([1e200, 0.7]))
    assert err.value.field == "scales"
    # scale**2 underflows to 0, so the level-0 log-normaliser would be -inf.
    with pytest.raises(ValueError, match="scales") as err:
        GaussianMixture(np.array([0.5, 0.5]), np.array([[0.0], [1.0]]), np.array([1e-200, 0.7]))
    assert err.value.field == "scales"
    with pytest.raises(ValueError, match="scales") as err:
        GaussianMixture(np.array([1.0]), np.array([[0.0]]), np.array([float("nan")]))
    assert err.value.field == "scales"
    with pytest.raises(ValueError, match="weights") as err:
        GaussianMixture(np.array([float("nan")]), np.array([[0.0, 0.0]]), np.array([1.0]))
    assert err.value.field == "weights"


def reference_exact_epsilon(x_t, cond, mix, sched):
    """``exact_epsilon`` as one self-contained pass, with no level table and no shared geometry."""
    ab = sched.alpha_bars[x_t.t]
    w = cond.effective_weights(mix)
    means_t = math.sqrt(ab) * mix.means
    var_t = ab * mix.scales**2 + (1.0 - ab)
    diff = means_t - x_t.x
    sq = np.einsum("kd,kd->k", diff, diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        logits = np.log(w) - 0.5 * (x_t.dim * np.log(2.0 * math.pi * var_t) + sq / var_t)
        logits -= logits.max()
        resp = np.exp(logits)
        resp /= resp.sum()
    score = (resp / var_t) @ diff
    return -math.sqrt(1.0 - ab) * score


def reference_predict(x_t, cond, mix, guidance, sched):
    """``predict`` with each guidance branch evaluated by ``reference_exact_epsilon``."""
    eps_cond = reference_exact_epsilon(x_t, cond, mix, sched)
    eps_uncond = eps_cond if cond.weights is None else reference_exact_epsilon(x_t, UNCOND, mix, sched)
    eps = guided_epsilon(eps_cond, eps_uncond, guidance.omega)
    x0_hat = x_t.x.copy() if x_t.t == 0 else clean_estimate(x_t, eps, sched)
    eps_noise = eps_uncond if guidance.mode is GuidanceMode.CFG_PLUS_PLUS else eps
    return Prediction(eps, x0_hat, eps_noise)


def assert_same_bits(got, expected):
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))  # array_equal treats -0.0 == 0.0


def assert_denoiser_matches_reference(mix, cond, x, sched, guidances):
    """Every level from 0 to T: both branches directly, and ``predict`` under each guidance."""
    for t in range(sched.num_steps + 1):
        state = LatentState(x, t)
        for c in (cond, UNCOND):
            assert_same_bits(exact_epsilon(state, c, mix, sched), reference_exact_epsilon(state, c, mix, sched))
        for guidance in guidances:
            for c in (cond, UNCOND):
                got, expected = predict(state, c, mix, guidance, sched), reference_predict(state, c, mix, guidance, sched)
                for field in ("eps", "x0_hat", "eps_noise"):
                    assert_same_bits(getattr(got, field), getattr(expected, field))


@st.composite
def denoiser_cases(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    d = draw(st.integers(min_value=1, max_value=6))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    # Zero-weight condition components give log w = -inf; one positive entry keeps the vector valid.
    cw = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]), min_size=k, max_size=k)))
    cw[draw(st.integers(0, k - 1))] = 1.0
    # Wide means with tight scales drive the logits far apart (extreme responsibilities).
    spread = draw(st.sampled_from([1.0, 400.0]))
    means = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k * d, max_size=k * d))).reshape(k, d) * spread
    scales = np.array(draw(st.lists(st.sampled_from([0.05, 0.3, 1.0, 2.5]), min_size=k, max_size=k)))
    x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))) * spread
    omega = draw(st.sampled_from([0.0, 1.0, 2.0, 7.5]))
    return GaussianMixture(w / w.sum(), means, scales), Condition(cw / cw.sum()), x, omega


@settings(max_examples=40, deadline=None)
@given(denoiser_cases())
def test_denoiser_is_bit_identical_to_reference(case):
    mix, cond, x, omega = case
    guidances = [GuidanceConfig(omega, GuidanceMode.CFG), GuidanceConfig(omega, GuidanceMode.CFG_PLUS_PLUS)]
    assert_denoiser_matches_reference(mix, cond, x, SCHED, guidances)


def high_dim_case():
    """A reweighted K=64, d=1024 mixture, the size of the benchmark's ``denoise_hd`` workload."""
    rng = np.random.default_rng(64)
    counts = rng.integers(1, 10, 64)
    cond_counts = rng.integers(0, 10, 64)
    mix = GaussianMixture(counts / counts.sum(), rng.normal(0.0, 1.0, (64, 1024)), rng.uniform(0.5, 1.5, 64))
    cond = Condition(cond_counts / cond_counts.sum())
    return mix, cond, build_linear_schedule(8, 0.01, 0.3), rng.normal(0.0, 1.5, 1024)


def test_high_dim_denoiser_is_bit_identical_to_reference():
    mix, cond, sched, x = high_dim_case()
    guidances = [GuidanceConfig(2.0, GuidanceMode.CFG), GuidanceConfig(2.0, GuidanceMode.CFG_PLUS_PLUS)]
    assert_denoiser_matches_reference(mix, cond, x, sched, guidances)


@pytest.mark.parametrize("landscape", ["two_mode", "high_dim"])
def test_exact_epsilon_with_a_supplied_geometry_is_bit_identical_to_reference(landscape, request):
    # The shipped d=2 landscape, and the K=64, d=1024 mixture of the benchmark's denoise_hd workload.
    if landscape == "two_mode":
        mix, cond, sched = (request.getfixturevalue(name) for name in ("two_mode_mix", "balanced_cond", "sched50"))
        x = np.array([0.4, -0.2])
    else:
        mix, cond, sched, x = high_dim_case()
    for t in range(sched.num_steps + 1):
        state = LatentState(x, t)
        geometry = ctrlz.models._geometry(state, mix, sched)
        for c in (cond, UNCOND):
            assert_same_bits(exact_epsilon(state, c, mix, sched, geometry), reference_exact_epsilon(state, c, mix, sched))


def test_predict_allocates_one_mixture_sized_array():
    # The geometry is built in place: one (K, d) array per pass, shared by both guidance branches.
    mix, cond, sched, x = high_dim_case()
    state, guidance = LatentState(x, 4), GuidanceConfig(2.0, GuidanceMode.CFG)
    predict(state, cond, mix, guidance, sched)  # fills the level-table cache, which is not per-pass work
    tracemalloc.start()
    try:
        predict(state, cond, mix, guidance, sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * mix.means.nbytes


def test_predict_calls_exact_epsilon_once_per_branch(monkeypatch, two_mode_mix, balanced_cond, sched50):
    # The traced benchmark requires models.exact_epsilon calls == 2 x predict calls on a reweighted condition.
    calls = []
    original = ctrlz.models.exact_epsilon
    monkeypatch.setattr(ctrlz.models, "exact_epsilon", lambda *args: calls.append(args[1]) or original(*args))
    x = LatentState(np.array([0.4, -0.2]), 20)
    predict(x, balanced_cond, two_mode_mix, GuidanceConfig(2.0, GuidanceMode.CFG), sched50)
    assert calls == [balanced_cond, ctrlz.models.UNCONDITIONAL]
    calls.clear()
    predict(x, UNCOND, two_mode_mix, GuidanceConfig(2.0, GuidanceMode.CFG), sched50)
    assert calls == [UNCOND]
