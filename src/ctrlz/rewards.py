"""Scalar scorers over clean estimates, including landscapes with literal
flat regions for studying search behavior on plateaus."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dynamics import ConfigError, NonFiniteError
from .models import Condition, GaussianMixture


def _target_copy(target: np.ndarray) -> np.ndarray:
    t = np.array(target, dtype=np.float64)
    if t.ndim != 1 or not np.all(np.isfinite(t)):
        raise ValueError("target must be a finite vector")
    t.setflags(write=False)
    return t


@dataclass(frozen=True, eq=False)
class NegDistance:
    """Negative Euclidean distance to a target point; maximal (0) at the target."""

    target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "target", _target_copy(self.target))


@dataclass(frozen=True, eq=False)
class LogDensity:
    """Log density of the clean sample under the mixture, reweighted by the
    condition passed at scoring time."""

    mix: GaussianMixture


@dataclass(frozen=True, eq=False)
class Plateau:
    """Peaked reward with an exactly constant annulus around the peak.

    Inside ``inner_radius`` the score ramps linearly from ``peak_value`` at
    the target down to 0 at the rim; on [inner_radius, outer_radius] it is the
    constant ``plateau_value``; beyond, it decays as plateau_value * outer / r.
    """

    target: np.ndarray
    inner_radius: float = 1.0
    outer_radius: float = 2.0
    plateau_value: float = 0.0
    peak_value: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "target", _target_copy(self.target))
        if not 0.0 < self.inner_radius < self.outer_radius:
            raise ConfigError("inner_radius", "require 0 < inner_radius < outer_radius")
        if not self.plateau_value < self.peak_value:
            raise ConfigError("plateau_value", "must be < peak_value")


RewardSpec = Union[NegDistance, LogDensity, Plateau]


def score(spec: RewardSpec, cond: Condition, x0_hat: np.ndarray) -> float:
    """Scalar score of a clean estimate; NonFiniteError if the score overflows."""
    x = np.asarray(x0_hat, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("clean estimate must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        value = _raw_score(spec, cond, x)
    if not math.isfinite(value):
        raise NonFiniteError(f"{type(spec).__name__} score is not finite")
    return value


def _raw_score(spec: RewardSpec, cond: Condition, x: np.ndarray) -> float:
    if isinstance(spec, LogDensity):
        return _mixture_log_density(spec.mix, cond, x)
    if x.shape != spec.target.shape:
        raise ValueError("point dimension does not match reward target")
    d = x - spec.target
    dist = math.sqrt(d.dot(d))  # np.linalg.norm's arithmetic for a 1-D float vector
    if isinstance(spec, NegDistance):
        return -dist
    if dist < spec.inner_radius:
        return spec.peak_value * (1.0 - dist / spec.inner_radius)
    if dist <= spec.outer_radius:
        return spec.plateau_value
    return spec.plateau_value * (spec.outer_radius / dist)


def _mixture_log_density(mix: GaussianMixture, cond: Condition, x: np.ndarray) -> float:
    if x.shape != (mix.dim,):
        raise ValueError("point dimension does not match mixture")
    w = cond.effective_weights(mix)
    diff = mix.means - x
    sq = np.einsum("kd,kd->k", diff, diff)
    var = mix.scales**2
    with np.errstate(divide="ignore"):
        logits = np.log(w) - 0.5 * (mix.dim * np.log(2.0 * math.pi * var) + sq / var)
    top = logits.max()
    return float(top + math.log(np.exp(logits - top).sum()))
