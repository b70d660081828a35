"""Analytic denoiser over Gaussian-mixture data.

The noise prediction is exact: it is derived from the score of the noised
mixture marginal, so the clean estimate it induces equals the true posterior
mean of the data given the noisy state. This stands in for a learned model
while keeping every downstream quantity checkable in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ConfigError, GuidanceConfig, GuidanceMode, LatentState, NonFiniteError, Prediction, all_finite
from .dynamics import clean_estimate, guided_epsilon
from .schedule import NoiseSchedule, read_only

_WEIGHT_TOL = 1e-12
_MIN_SCALE = 1e-150  # the denoiser takes log(2 * pi * scale**2), so scale**2 must not underflow to 0
_MAX_SCALE = 1e150  # the denoiser forms 2 * pi * scale**2, which must stay a finite float
_HALF = read_only(0.5)  # numpy scales by a 0-d array faster than by a float; see NoiseSchedule.root_arrays


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Isotropic Gaussian mixture: weights, component means, per-component scales."""

    weights: np.ndarray
    means: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        w, mu, s = read_only(self.weights), read_only(self.means), read_only(self.scales)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty vector")
        if mu.ndim != 2 or mu.shape[0] != w.size:
            raise ConfigError("means", "must list one mean vector per weight")
        if s.shape != w.shape:
            raise ConfigError("scales", "must list one scale per weight")
        if not np.all(w > 0.0) or abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
            raise ConfigError("weights", "must be positive and sum to 1")
        if not np.all((s >= _MIN_SCALE) & (s <= _MAX_SCALE)):
            raise ConfigError("scales", f"must lie in [{_MIN_SCALE:g}, {_MAX_SCALE:g}]")
        if not all_finite(mu):
            raise ConfigError("means", "must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "scales", s)

    @property
    def n_components(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True, eq=False)
class Condition:
    """Conditioning realized as a reweighting of mixture components: ``weights``
    of None keeps the mixture's own (unconditional), a one-hot picks one."""

    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.weights is not None:
            w = read_only(self.weights)
            if w.ndim != 1 or not np.all(w >= 0.0) or abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
                raise ConfigError("weights", "must be a nonnegative vector that sums to 1")
            object.__setattr__(self, "weights", w)

    def effective_weights(self, mix: GaussianMixture) -> np.ndarray:
        if self.weights is None:
            return mix.weights
        if self.weights.size != mix.n_components:
            raise ConfigError("weights", "length must match mixture components")
        return self.weights


UNCONDITIONAL = Condition()


@functools.lru_cache(maxsize=1)
def _level_table(mix: GaussianMixture, sched: NoiseSchedule) -> tuple:
    """``rows[t] = (var_t, dim * log(2 pi var_t))``, the level-only terms of ``exact_epsilon``.

    Only K-vectors are held: a (K, d) array per level would dwarf the mixture.
    Keys are identities (both types compare by identity), so one entry covers
    one experiment; it keeps its mixture alive until evicted.
    """
    var_ts = [ab * mix.scales**2 + (1.0 - ab) for ab in sched.alpha_bars]
    # Every caller shares the cached arrays, so none of them can be written.
    return tuple((read_only(var_t), read_only(mix.dim * np.log(2.0 * math.pi * var_t))) for var_t in var_ts)


@functools.lru_cache(maxsize=2)
def _log_weights(mix: GaussianMixture, cond: Condition) -> np.ndarray:
    """``log w`` of the conditioned mixture, for the denoiser and the log-density reward; two entries cover an
    experiment's condition and unconditional branch."""
    with np.errstate(divide="ignore"):
        return read_only(np.log(cond.effective_weights(mix)))


def _geometry(x_t: LatentState, mix: GaussianMixture, sched: NoiseSchedule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The condition-free part of ``exact_epsilon``, shared by both guidance branches of a pass:
    ``diff = sqrt(ab_t) * means - x``, built in place so that a pass allocates one (K, d) array,
    ``var_t``, and the logits' half-quadratic term ``0.5 * (dim * log(2 pi var_t) + |diff|**2 / var_t)``."""
    if x_t.t > sched.num_steps:
        raise ValueError(f"level {x_t.t} outside schedule")
    if x_t.dim != mix.dim:
        raise ValueError("state dimension does not match mixture")
    var_t, log_norm = _level_table(mix, sched)[x_t.t]
    diff = sched.root_arrays[x_t.t][0] * mix.means
    diff -= x_t.x
    return diff, var_t, _HALF * (log_norm + np.einsum("kd,kd->k", diff, diff) / var_t)


def exact_epsilon(
    x_t: LatentState,
    cond: Condition,
    mix: GaussianMixture,
    sched: NoiseSchedule,
    geometry: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Exact noise prediction for the conditioned mixture at the state's level.

    Computed as -sqrt(1 - ab_t) times the score of the noised conditional
    marginal, with responsibilities evaluated in log space so extreme logits
    stay finite. Level 0 yields the zero vector. Raises ``NonFiniteError``
    when no component has a finite log-responsibility (every squared
    distance overflowed). ``geometry`` is
    ``_geometry(x_t, mix, sched)`` when the caller already holds it; by
    default it is computed here.
    """
    diff, var_t, half_quad = _geometry(x_t, mix, sched) if geometry is None else geometry
    logits = _log_weights(mix, cond) - half_quad
    # A Python max skips numpy's reduce machinery and is exact: no logit is NaN (log w, finite or -inf, less a
    # half-quadratic, finite or +inf), and a 0.0/-0.0 tie flips only the sign of a zero logit, which exp maps to 1.
    top = max(logits.tolist())
    if not top > -math.inf:
        raise NonFiniteError(f"no mixture component has a finite log-responsibility at level {x_t.t}")
    logits -= top
    resp = np.exp(logits)
    resp /= np.add.reduce(resp)
    return sched.root_arrays[x_t.t][2] * ((resp / var_t) @ diff)


def predict(
    x_t: LatentState,
    cond: Condition,
    mix: GaussianMixture,
    guidance: GuidanceConfig,
    sched: NoiseSchedule,
) -> Prediction:
    """One guided denoiser forward pass.

    Both guidance branches are evaluated internally, matching a batched
    conditional/unconditional pipeline that still counts as a single pass.
    CFG++ takes the unconditional branch as the re-noising term. The
    geometry does not depend on the condition, so the branches share it.
    """
    geometry = _geometry(x_t, mix, sched)
    eps_cond = exact_epsilon(x_t, cond, mix, sched, geometry)
    eps_uncond = eps_cond if cond.weights is None else exact_epsilon(x_t, UNCONDITIONAL, mix, sched, geometry)
    eps = guided_epsilon(eps_cond, eps_uncond, guidance.omega_array)
    x0_hat = x_t.x.copy() if x_t.t == 0 else clean_estimate(x_t, eps, sched)
    eps_noise = eps_uncond if guidance.mode is GuidanceMode.CFG_PLUS_PLUS else eps
    return Prediction(eps, x0_hat, eps_noise)
