"""Stateless step operators: deterministic denoising, clean estimates,
stochastic and deterministic inversion, and guidance combination.

Everything here is a pure function of its arguments; no operator draws
randomness or mutates shared state.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .schedule import NoiseSchedule, read_only


class NonFiniteError(ArithmeticError):
    """A state or prediction picked up NaN or infinity."""


class ConfigError(ValueError):
    """A value out of range; ``field`` names the offending argument or config entry, ``message`` the problem."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        self.message = message
        super().__init__(f"{field_path}: {message}")


def finite_number(value: object) -> bool:
    """A real number, not a bool, that a float holds; unlike math.isfinite, no integer overflows this."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def all_finite(x: np.ndarray) -> bool:
    """No entry of ``x`` is NaN or infinite (true when empty): a byte scan of the mask, faster than a numpy reduce."""
    return b"\x00" not in np.isfinite(x).tobytes()


def parse_enum(obj: object, name: str, kind: type[enum.Enum]) -> None:
    """Store frozen dataclass field ``name``, a member of ``kind`` or its value, as the member."""
    try:
        object.__setattr__(obj, name, kind(getattr(obj, name)))
    except ValueError:
        raise ConfigError(name, f"unknown value {getattr(obj, name)!r}") from None


class GuidanceMode(enum.Enum):
    CFG = "cfg"
    CFG_PLUS_PLUS = "cfg++"


@dataclass(frozen=True)
class GuidanceConfig:
    """Guidance scale and how the combined prediction feeds the update.

    Under plain CFG the guided noise drives both the clean estimate and the
    re-noising term; under CFG++ the re-noising term reverts to the
    unconditional prediction (interpolation rather than extrapolation).
    ``mode`` may be given as a member or as its value, such as ``"cfg++"``.
    """

    omega: float = 1.0
    mode: GuidanceMode = GuidanceMode.CFG

    def __post_init__(self):
        if not finite_number(self.omega) or self.omega < 0:
            raise ConfigError("omega", f"must be a finite number >= 0, got {self.omega!r}")
        parse_enum(self, "mode", GuidanceMode)

    @functools.cached_property
    def omega_array(self) -> np.ndarray:
        """``omega`` as a read-only 0-d float64 array, built on first read, as ``NoiseSchedule.root_arrays``."""
        return read_only(self.omega)


@dataclass(frozen=True, eq=False)
class LatentState:
    """A point on the sampling trajectory: vector ``x`` at noise level ``t``."""

    x: np.ndarray
    t: int

    def __post_init__(self):
        if not isinstance(self.t, int) or isinstance(self.t, bool) or self.t < 0:
            raise ValueError(f"noise level must be an integer >= 0, got {self.t!r}")
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("state vector must be one-dimensional")
        if not all_finite(x):
            raise NonFiniteError(f"non-finite state at level {self.t}")
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


def _require_level(state: LatentState, sched: NoiseSchedule) -> None:
    if state.t < 1:
        raise ValueError(f"operation requires level >= 1, got {state.t}")
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
    root_ab, root_one_minus_ab, _ = sched.root_arrays[x_t.t]
    return (x_t.x - root_one_minus_ab * eps) / root_ab


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
    root_ab, root_one_minus_ab, _ = sched.root_arrays[x_t.t - 1]
    return LatentState(root_ab * x0_hat + root_one_minus_ab * eps_noise, x_t.t - 1)


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
    ratio = sched.alpha_bars.item(x_t.t + delta) / sched.alpha_bars.item(x_t.t)
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
    scale = math.sqrt(sched.alpha_bars.item(t) / sched.alpha_bars.item(t - 1))
    coeff = sched.root_arrays[t][1].item() - scale * sched.root_arrays[t - 1][1].item()
    return LatentState(scale * x_prev.x + coeff * eps, t)


def guided_epsilon(eps_cond: np.ndarray, eps_uncond: np.ndarray, omega: float | np.ndarray) -> np.ndarray:
    """Affine combination eps_uncond + omega * (eps_cond - eps_uncond)."""
    eps_cond = np.asarray(eps_cond, dtype=np.float64)
    eps_uncond = np.asarray(eps_uncond, dtype=np.float64)
    if eps_cond.shape != eps_uncond.shape:
        raise ValueError("guidance branch dimension mismatch")
    return eps_uncond + omega * (eps_cond - eps_uncond)
