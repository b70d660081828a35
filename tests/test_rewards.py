import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NEAR_FLOAT_LIMIT, NON_FINITE_VECTORS
from ctrlz import Condition, GaussianMixture, LogDensity, NegDistance, NoiseSchedule, Plateau, score

UNCOND = Condition()


def test_neg_distance_peaks_at_target():
    spec = NegDistance(np.array([1.0, -2.0]))
    assert score(spec, UNCOND, np.array([1.0, -2.0])) == 0.0
    assert score(spec, UNCOND, np.array([1.1, -2.0])) < 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2), st.floats(0.1, 3.0), st.floats(1.1, 4.0))
def test_neg_distance_strictly_decreasing_in_radius(target, r, factor):
    spec = NegDistance(np.array(target))
    direction = np.array([0.6, -0.8])
    near = score(spec, UNCOND, np.array(target) + r * direction)
    far = score(spec, UNCOND, np.array(target) + r * factor * direction)
    assert far < near < 0.0


def test_log_density_standard_normal_hand_value():
    for d in (1, 2, 3):
        mix = GaussianMixture(np.array([1.0]), np.zeros((1, d)), np.array([1.0]))
        got = score(LogDensity(mix), UNCOND, np.zeros(d))
        assert got == pytest.approx(-(d / 2) * math.log(2 * math.pi), rel=1e-14)


@st.composite
def mixture_cases(draw):
    """A mixture, a condition on it (unconditional, or a reweighting that may zero some components) and a point."""
    k = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.integers(min_value=1, max_value=3))
    raw_w = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    w = np.array(raw_w)
    w /= w.sum()
    means = np.array(
        draw(st.lists(st.lists(st.floats(-4, 4), min_size=d, max_size=d), min_size=k, max_size=k))
    )
    scales = np.array(draw(st.lists(st.floats(0.3, 2.5), min_size=k, max_size=k)))
    x = np.array(draw(st.lists(st.floats(-6, 6), min_size=d, max_size=d)))
    raw_c = draw(st.none() | st.lists(st.just(0.0) | st.floats(0.05, 1.0), min_size=k, max_size=k).filter(any))
    cond = UNCOND if raw_c is None else Condition(np.array(raw_c) / sum(raw_c))
    return GaussianMixture(w, means, scales), cond, x


def reference_log_density(mix, cond, x):
    """The log-density reward's arithmetic with its own ``log w``, taken under ``errstate(divide="ignore")``."""
    diff = mix.means - x
    sq = np.einsum("kd,kd->k", diff, diff)
    var = mix.scales**2
    with np.errstate(divide="ignore"):
        logits = np.log(cond.effective_weights(mix)) - 0.5 * (mix.dim * np.log(2.0 * math.pi * var) + sq / var)
    top = logits.max()
    return float(top + math.log(np.exp(logits - top).sum()))


@settings(max_examples=120, deadline=None)
@given(mixture_cases())
def test_log_density_matches_direct_summation_oracle(case):
    mix, cond, x = case
    got = score(LogDensity(mix), cond, x)
    # The reward reads the denoiser's cached log w; its bits are those of the reward's own log w.
    assert got.hex() == reference_log_density(mix, cond, x).hex()
    with mpmath.workdps(40):  # extended precision, so no component's density underflows to 0
        total = mpmath.mpf(0)
        for w, mean, scale in zip(cond.effective_weights(mix).tolist(), mix.means, mix.scales.tolist()):
            gap = x - mean
            v = mpmath.mpf(scale) ** 2
            total += w * mpmath.exp(-mpmath.mpf(gap @ gap) / (2 * v)) / (2 * mpmath.pi * v) ** (mpmath.mpf(mix.dim) / 2)
        oracle = float(mpmath.log(total))
    assert got == pytest.approx(oracle, abs=1e-10, rel=1e-10)


def test_log_density_condition_handling():
    mix = GaussianMixture(
        np.array([0.9, 0.1]), np.array([[0.0], [4.0]]), np.array([1.0, 1.0])
    )
    point = np.array([4.0])
    free = LogDensity(mix)
    second = Condition(np.array([0.0, 1.0]))
    # The caller's condition reweights the mixture.
    assert score(free, second, point) == pytest.approx(-0.5 * math.log(2 * math.pi))
    assert score(free, UNCOND, point) < score(free, second, point)


def test_plateau_annulus_is_exactly_flat():
    spec = Plateau(np.zeros(2), 1.0, 3.0, 0.25, 1.0)
    a = score(spec, UNCOND, np.array([1.7, 0.0]))
    b = score(spec, UNCOND, np.array([0.0, -2.4]))
    c = score(spec, UNCOND, np.array([3.0, 0.0]))
    assert a == b == c == 0.25


def test_plateau_peak_and_decay_shape():
    spec = Plateau(np.zeros(1), 1.0, 2.0, 0.5, 2.0)
    assert score(spec, UNCOND, np.zeros(1)) == 2.0
    assert score(spec, UNCOND, np.array([0.5])) == pytest.approx(1.0)
    assert score(spec, UNCOND, np.array([4.0])) == pytest.approx(0.25)
    assert score(spec, UNCOND, np.array([8.0])) == pytest.approx(0.125)


def test_plateau_continuity_at_radii():
    eps = 1e-9
    # Continuous at the outer rim for any parameters.
    spec = Plateau(np.zeros(1), 1.0, 3.0, 0.4, 1.0)
    assert abs(score(spec, UNCOND, np.array([3.0 + eps])) - 0.4) <= 1e-8
    assert score(spec, UNCOND, np.array([3.0])) == 0.4
    # Continuous at the inner rim when the flat level is zero, where the
    # inner ramp lands; a nonzero flat level steps up at the rim.
    flat0 = Plateau(np.zeros(1), 1.0, 3.0, 0.0, 1.0)
    assert abs(score(flat0, UNCOND, np.array([1.0 - eps])) - 0.0) <= 1e-8
    assert score(flat0, UNCOND, np.array([1.0])) == 0.0


def test_plateau_validation():
    with pytest.raises(ValueError) as err:
        Plateau(np.zeros(1), 2.0, 1.0, 0.0, 1.0)
    assert err.value.field == "inner_radius"
    with pytest.raises(ValueError) as err:
        Plateau(np.zeros(1), 0.0, 1.0, 0.0, 1.0)
    assert err.value.field == "inner_radius"
    with pytest.raises(ValueError) as err:
        Plateau(np.zeros(1), 1.0, 2.0, 1.0, 1.0)
    assert err.value.field == "plateau_value"


@pytest.mark.parametrize("kind", [NegDistance, Plateau])
def test_reward_target_must_be_finite(kind):
    with pytest.raises(ValueError, match="target must be a finite vector"):
        kind(np.array([3.0, float("nan")]))


@pytest.mark.parametrize("x", NON_FINITE_VECTORS)
def test_score_rejects_non_finite_points(x):
    with pytest.raises(ValueError, match="clean estimate must be finite"):
        score(NegDistance(np.zeros(x.size)), UNCOND, x)


def test_score_accepts_a_point_near_the_float_limit():
    # Beyond the outer radius a zero plateau decays to 0 * (outer / inf), a finite 0.
    assert score(Plateau(np.zeros(NEAR_FLOAT_LIMIT.size)), UNCOND, NEAR_FLOAT_LIMIT) == 0.0


@pytest.mark.parametrize(
    "spec",
    [
        NegDistance(np.array([3.0])),
        Plateau(np.array([3.0]), 1.0, 2.0, 0.0, 1.0),
        LogDensity(GaussianMixture(np.array([1.0]), np.array([[3.0]]), np.array([1.0]))),
    ],
    ids=["neg_distance", "plateau", "log_density"],
)
def test_score_rejects_a_point_of_another_dimension(spec):
    # A one-element target would otherwise broadcast against the point.
    with pytest.raises(ValueError, match="dimension"):
        score(spec, UNCOND, np.array([3.0, 0.0]))


MIX_WEIGHTS, MIX_MEANS, MIX_SCALES = np.array([0.25, 0.75]), np.zeros((2, 1)), np.ones(2)

# Per array a domain type holds, a builder that makes the type from the caller's source array and returns the
# array it holds, and the source's entries.
HELD_ARRAYS = {
    "NoiseSchedule.alpha_bars": (lambda a: NoiseSchedule(a).alpha_bars, [1.0, 0.5]),
    "GaussianMixture.weights": (lambda a: GaussianMixture(a, MIX_MEANS, MIX_SCALES).weights, [0.25, 0.75]),
    "GaussianMixture.means": (lambda a: GaussianMixture(MIX_WEIGHTS, a, MIX_SCALES).means, [[0.0, 1.0], [2.0, 3.0]]),
    "GaussianMixture.scales": (lambda a: GaussianMixture(MIX_WEIGHTS, MIX_MEANS, a).scales, [1.0, 2.0]),
    "Condition.weights": (lambda a: Condition(a).weights, [0.25, 0.75]),
    "NegDistance.target": (lambda a: NegDistance(a).target, [3.0, 0.0]),
    "Plateau.target": (lambda a: Plateau(a).target, [3.0, 0.0]),
}


@pytest.mark.parametrize("held, entries", HELD_ARRAYS.values(), ids=HELD_ARRAYS)
def test_held_arrays_are_read_only_copies(held, entries):
    source = np.array(entries)
    arr = held(source)
    source += 1.0  # editing the caller's array after construction must not move the object
    assert arr.tolist() == entries and arr.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        arr[...] = 0.0
