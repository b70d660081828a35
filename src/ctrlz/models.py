"""Analytic denoiser over Gaussian-mixture data, plus evaluation counters.

The noise prediction is exact: it is derived from the score of the noised
mixture marginal, so the clean estimate it induces equals the true posterior
mean of the data given the noisy state. This stands in for a learned model
while keeping every downstream quantity checkable in closed form.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass

import numpy as np

from .dynamics import GuidanceConfig, GuidanceMode, LatentState, Prediction, clean_estimate, guided_epsilon
from .schedule import NoiseSchedule

_WEIGHT_TOL = 1e-12
_MAX_SCALE = 1e150  # the denoiser forms 2 * pi * scale**2, which must stay a finite float


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Isotropic Gaussian mixture: weights, component means, per-component scales."""

    weights: np.ndarray
    means: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).copy()
        mu = np.asarray(self.means, dtype=np.float64).copy()
        s = np.asarray(self.scales, dtype=np.float64).copy()
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty vector")
        if mu.ndim != 2 or mu.shape[0] != w.size:
            raise ValueError("means must be a (components, dim) array matching weights")
        if s.shape != w.shape:
            raise ValueError("scales must match weights in shape")
        if np.any(w <= 0.0) or abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must be positive and sum to 1")
        if np.any(s <= 0.0) or np.any(s > _MAX_SCALE):
            raise ValueError(f"scales must lie in (0, {_MAX_SCALE:g}]")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(s))):
            raise ValueError("means and scales must be finite")
        for arr in (w, mu, s):
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "scales", s)

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


class ConditionKind(enum.Enum):
    UNCONDITIONAL = "unconditional"
    COMPONENT = "component"
    REWEIGHT = "reweight"


@dataclass(frozen=True, eq=False)
class Condition:
    """Conditioning realized as a reweighting of mixture components."""

    kind: ConditionKind
    component: int | None = None
    weights: np.ndarray | None = None

    @classmethod
    def unconditional(cls) -> "Condition":
        return cls(ConditionKind.UNCONDITIONAL)

    @classmethod
    def for_component(cls, k: int) -> "Condition":
        if k < 0:
            raise ValueError("component index must be >= 0")
        return cls(ConditionKind.COMPONENT, component=k)

    @classmethod
    def reweight(cls, weights) -> "Condition":
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
            raise ValueError("reweight weights must be nonnegative and sum to 1")
        w = w.copy()
        w.setflags(write=False)
        return cls(ConditionKind.REWEIGHT, weights=w)

    def effective_weights(self, mix: GaussianMixture) -> np.ndarray:
        if self.kind is ConditionKind.UNCONDITIONAL:
            return mix.weights
        if self.kind is ConditionKind.COMPONENT:
            if not 0 <= self.component < mix.n_components:
                raise ValueError(f"component {self.component} out of range")
            w = np.zeros(mix.n_components)
            w[self.component] = 1.0
            return w
        if self.weights.size != mix.n_components:
            raise ValueError("reweight vector length does not match mixture")
        return self.weights


UNCONDITIONAL = Condition.unconditional()


class EvalContext:
    """Monotone counters for denoiser forward passes and reward evaluations.

    Increments are lock-protected. Samplers report a run's counts relative to
    the counters at its start, so runs may share a context in sequence, but
    not concurrently.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.nfe_count = 0
        self.reward_calls = 0

    def add_nfe(self) -> None:
        with self._lock:
            self.nfe_count += 1

    def add_reward_call(self) -> None:
        with self._lock:
            self.reward_calls += 1


def exact_epsilon(
    x_t: LatentState, cond: Condition, mix: GaussianMixture, sched: NoiseSchedule
) -> np.ndarray:
    """Exact noise prediction for the conditioned mixture at the state's level.

    Computed as -sqrt(1 - ab_t) times the score of the noised conditional
    marginal, with responsibilities evaluated in log space so extreme logits
    stay finite. Level 0 yields the zero vector.
    """
    if x_t.t > sched.num_steps:
        raise ValueError(f"level {x_t.t} outside schedule")
    if x_t.dim != mix.dim:
        raise ValueError("state dimension does not match mixture")
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


def predict(
    ctx: EvalContext,
    x_t: LatentState,
    cond: Condition,
    mix: GaussianMixture,
    guidance: GuidanceConfig,
    sched: NoiseSchedule,
) -> Prediction:
    """One guided denoiser forward pass; increments the NFE counter by one.

    Both guidance branches are evaluated internally, matching a batched
    conditional/unconditional pipeline that still counts as a single pass.
    CFG++ takes the unconditional branch as the re-noising term.
    """
    eps_cond = exact_epsilon(x_t, cond, mix, sched)
    if cond.kind is ConditionKind.UNCONDITIONAL:
        eps_uncond = eps_cond
    else:
        eps_uncond = exact_epsilon(x_t, UNCONDITIONAL, mix, sched)
    eps = guided_epsilon(eps_cond, eps_uncond, guidance.omega)
    ctx.add_nfe()
    if x_t.t == 0:
        x0_hat = x_t.x.copy()
    else:
        x0_hat = clean_estimate(x_t, eps, sched)
    eps_noise = eps_uncond if guidance.mode is GuidanceMode.CFG_PLUS_PLUS else eps
    return Prediction(eps, x0_hat, eps_noise)
