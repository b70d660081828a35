"""Reward-guided zigzag diffusion sampling over an analytic mixture denoiser."""

from .dynamics import (
    GuidanceConfig,
    GuidanceMode,
    LatentState,
    NonFiniteError,
    Prediction,
    clean_estimate,
    ddim_step,
    deterministic_invert,
    guided_epsilon,
    stochastic_invert,
)
from .models import Condition, GaussianMixture, exact_epsilon, predict
from .rewards import LogDensity, NegDistance, Plateau, RewardSpec, score
from .samplers import (
    CtrlZParams,
    ExplorationEvent,
    ExplorationGuidance,
    InitiationPolicy,
    RunResult,
    TerminatedBy,
    run_ctrlz,
    run_ddim,
    run_resampling,
    run_sop,
    run_zsampling,
)
from .schedule import NoiseSchedule, build_linear_schedule, subsample
from .seeding import keyed_rng, mix_seed

__all__ = [
    "Condition",
    "CtrlZParams",
    "ExplorationEvent",
    "ExplorationGuidance",
    "GaussianMixture",
    "GuidanceConfig",
    "GuidanceMode",
    "InitiationPolicy",
    "LatentState",
    "LogDensity",
    "NegDistance",
    "NoiseSchedule",
    "NonFiniteError",
    "Plateau",
    "Prediction",
    "RewardSpec",
    "RunResult",
    "TerminatedBy",
    "build_linear_schedule",
    "clean_estimate",
    "ddim_step",
    "deterministic_invert",
    "exact_epsilon",
    "guided_epsilon",
    "keyed_rng",
    "mix_seed",
    "predict",
    "run_ctrlz",
    "run_ddim",
    "run_resampling",
    "run_sop",
    "run_zsampling",
    "score",
    "stochastic_invert",
    "subsample",
]
