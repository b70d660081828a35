"""Stateless step operators: deterministic denoising, clean estimates,
stochastic and deterministic inversion, and guidance combination.

Everything here is a pure function of its arguments; no operator draws
randomness or mutates shared state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .schedule import NoiseSchedule


class NonFiniteError(ArithmeticError):
    """A state or prediction picked up NaN or infinity."""


class GuidanceMode(enum.Enum):
    CFG = "cfg"
    CFG_PLUS_PLUS = "cfg++"


@dataclass(frozen=True)
class GuidanceConfig:
    """Guidance scale and how the combined prediction feeds the update.

    Under plain CFG the guided noise drives both the clean estimate and the
    re-noising term; under CFG++ the re-noising term reverts to the
    unconditional prediction (interpolation rather than extrapolation).
    """

    omega: float = 1.0
    mode: GuidanceMode = GuidanceMode.CFG

    def __post_init__(self):
        if not math.isfinite(self.omega):
            raise ValueError("guidance scale must be finite")
        if self.omega < 0.0:
            raise ValueError("guidance scale must be >= 0")


@dataclass(frozen=True, eq=False)
class LatentState:
    """A point on the sampling trajectory: vector ``x`` at noise level ``t``."""

    x: np.ndarray
    t: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("state vector must be one-dimensional")
        if not np.all(np.isfinite(x)):
            raise NonFiniteError(f"non-finite state at level {self.t}")
        if self.t < 0:
            raise ValueError("noise level must be >= 0")
        object.__setattr__(self, "x", x)

    @property
    def dim(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True, eq=False)
class Prediction:
    """One denoiser output: the guided noise estimate, the clean estimate it
    induces, and ``eps_noise``, the re-noising term of the DDIM update (the
    guided estimate under CFG, the unconditional branch under CFG++).
    """

    eps: np.ndarray
    x0_hat: np.ndarray
    eps_noise: np.ndarray


def _require_level(state: LatentState, sched: NoiseSchedule, minimum: int = 1) -> None:
    if state.t < minimum:
        raise ValueError(f"operation requires level >= {minimum}, got {state.t}")
    if state.t > sched.num_steps:
        raise ValueError(f"level {state.t} outside schedule with {sched.num_steps} steps")


def clean_estimate(x_t: LatentState, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Posterior-mean style estimate of the clean sample from a noisy state.

    Returns (x_t - sqrt(1 - ab_t) * eps) / sqrt(ab_t). Rejects level 0, where
    the state already is the clean sample.
    """
    _require_level(x_t, sched)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x_t.x.shape:
        raise ValueError("eps dimension mismatch")
    ab = sched.alpha_bars[x_t.t]
    return (x_t.x - math.sqrt(1.0 - ab) * eps) / math.sqrt(ab)


def ddim_step(
    x_t: LatentState, x0_hat: np.ndarray, eps_noise: np.ndarray, sched: NoiseSchedule
) -> LatentState:
    """Deterministic denoising update from level t to t-1.

    Returns sqrt(ab_{t-1}) * x0_hat + sqrt(1 - ab_{t-1}) * eps_noise at level
    t-1, where ``x0_hat`` is the clean estimate of ``x_t`` and ``eps_noise``
    the re-noising term (see ``Prediction``).
    """
    _require_level(x_t, sched)
    x0_hat = np.asarray(x0_hat, dtype=np.float64)
    eps_noise = np.asarray(eps_noise, dtype=np.float64)
    if x0_hat.shape != x_t.x.shape or eps_noise.shape != x_t.x.shape:
        raise ValueError("clean estimate or eps dimension mismatch")
    ab_prev = sched.alpha_bars[x_t.t - 1]
    return LatentState(math.sqrt(ab_prev) * x0_hat + math.sqrt(1.0 - ab_prev) * eps_noise, x_t.t - 1)


def stochastic_invert(
    x_t: LatentState, delta: int, noise: np.ndarray, sched: NoiseSchedule
) -> LatentState:
    """Re-noise a state ``delta`` levels up with fresh Gaussian noise.

    Returns sqrt(ab'/ab) * x + sqrt(1 - ab'/ab) * noise at level t + delta,
    which preserves the forward-process marginals exactly. ``delta == 0`` is
    the identity.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if x_t.t + delta > sched.num_steps:
        raise ValueError(f"target level {x_t.t + delta} exceeds schedule top {sched.num_steps}")
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != x_t.x.shape:
        raise ValueError("noise dimension mismatch")
    ratio = sched.alpha_bars[x_t.t + delta] / sched.alpha_bars[x_t.t]
    x_up = math.sqrt(ratio) * x_t.x + math.sqrt(1.0 - ratio) * noise
    return LatentState(x_up, x_t.t + delta)


def deterministic_invert(
    x_prev: LatentState, eps: np.ndarray, sched: NoiseSchedule
) -> LatentState:
    """Algebraic inverse of ``ddim_step`` under a shared noise prediction.

    Takes a state at level t-1 up to level t; a ``ddim_step`` built from the
    same ``eps`` recovers the input exactly (first-order inversion,
    with ``eps`` conventionally evaluated at the lower-level state).
    """
    t = x_prev.t + 1
    if t > sched.num_steps:
        raise ValueError(f"target level {t} exceeds schedule top {sched.num_steps}")
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x_prev.x.shape:
        raise ValueError("eps dimension mismatch")
    ab_t = sched.alpha_bars[t]
    ab_prev = sched.alpha_bars[t - 1]
    scale = math.sqrt(ab_t / ab_prev)
    coeff = math.sqrt(1.0 - ab_t) - scale * math.sqrt(1.0 - ab_prev)
    return LatentState(scale * x_prev.x + coeff * eps, t)


def guided_epsilon(eps_cond: np.ndarray, eps_uncond: np.ndarray, omega: float) -> np.ndarray:
    """Affine combination eps_uncond + omega * (eps_cond - eps_uncond)."""
    eps_cond = np.asarray(eps_cond, dtype=np.float64)
    eps_uncond = np.asarray(eps_uncond, dtype=np.float64)
    if eps_cond.shape != eps_uncond.shape:
        raise ValueError("guidance branch dimension mismatch")
    return eps_uncond + omega * (eps_cond - eps_uncond)
