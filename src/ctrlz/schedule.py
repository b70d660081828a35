"""Discrete noise schedules as cumulative signal-retention products."""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Cumulative signal-retention products, one per noise level.

    ``alpha_bars[0] == 1.0`` is the clean sentinel and ``num_steps``, derived,
    is the last level: level 0 means data and level ``num_steps`` maximal
    noise. Instances are immutable and safe to share across threads; they
    compare and hash by identity.
    """

    alpha_bars: np.ndarray
    num_steps: int = field(init=False)

    def __post_init__(self):
        abars = np.asarray(self.alpha_bars, dtype=np.float64).copy()
        if abars.ndim != 1 or abars.size < 2:
            raise ValueError(f"alpha_bars must be a vector of at least two levels, got shape {abars.shape}")
        if abars[0] != 1.0:
            raise ValueError("alpha_bars[0] must be exactly 1.0")
        if not np.all(np.isfinite(abars)):
            raise ValueError("schedule entries must be finite")
        if np.any(abars <= 0.0) or np.any(abars > 1.0):
            raise ValueError("alpha_bars must lie in (0, 1]")
        if np.any(abars[1:] > abars[:-1]):
            raise ValueError("alpha_bars must be nonincreasing")
        abars.setflags(write=False)
        object.__setattr__(self, "alpha_bars", abars)
        object.__setattr__(self, "num_steps", abars.size - 1)

    @functools.cached_property
    def sqrt_alpha_bars(self) -> tuple[float, ...]:
        """``math.sqrt(ab_t)`` per level, built on first read; not part of init, repr or equality."""
        return tuple(map(math.sqrt, self.alpha_bars.tolist()))

    @functools.cached_property
    def sqrt_one_minus_alpha_bars(self) -> tuple[float, ...]:
        """``math.sqrt(1.0 - ab_t)`` per level, built on first read; not part of init, repr or equality."""
        return tuple(math.sqrt(1.0 - ab) for ab in self.alpha_bars.tolist())


def build_linear_schedule(num_steps: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Schedule with betas linearly interpolated from start to end, inclusive."""
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("require 0 < beta_start <= beta_end < 1")
    if num_steps > sys.maxsize // 8:  # numpy cannot size this many float64 betas
        raise MemoryError(f"{num_steps} float64 betas exceed the address space")
    betas = np.linspace(beta_start, beta_end, num_steps)
    return NoiseSchedule(np.concatenate(([1.0], np.cumprod(1.0 - betas))))


def subsample(parent: NoiseSchedule, steps: int) -> NoiseSchedule:
    """Restrict ``parent`` to ``steps`` evenly spaced levels.

    The noisiest parent level is always kept and the selected alpha_bars are
    carried over bit-exactly.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps > parent.num_steps:
        raise ValueError(f"steps {steps} exceeds parent num_steps {parent.num_steps}")
    indices = np.round(np.linspace(parent.num_steps / steps, parent.num_steps, steps)).astype(int)
    if indices[-1] != parent.num_steps or np.any(np.diff(indices) <= 0):
        raise AssertionError("subsample index selection is not strictly increasing")
    return NoiseSchedule(np.concatenate(([1.0], parent.alpha_bars[indices])))
