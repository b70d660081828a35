"""The five sampling strategies with exact forward-pass accounting.

All strategies share the guided analytic denoiser and the step operators.
Stochastic strategies derive every noise draw from a stream keyed by
(seed, step, depth, candidate), so reruns are bit-identical and no result
depends on the order in which runs or candidates are evaluated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import GuidanceConfig, GuidanceMode, LatentState, ddim_step, deterministic_invert, stochastic_invert
from .models import Condition, EvalContext, GaussianMixture, predict
from .rewards import RewardSpec, score
from .schedule import NoiseSchedule
from .seeding import keyed_rng


class InitiationPolicy(enum.Enum):
    REWARD_BASED = "reward_based"
    ALWAYS = "always"
    RANDOM = "random"


class ExplorationGuidance(enum.Enum):
    SAME = "same"
    CFG_IN_EXPLORATION = "cfg_in_exploration"


class TerminatedBy(enum.Enum):
    THRESHOLD_MET = "threshold_met"
    DEPTH_CAP = "depth_cap"


@dataclass(frozen=True)
class CtrlZParams:
    """Knobs of the adaptive zigzag search.

    ``window`` is the number of initial (high-noise) steps eligible for
    exploration; ``threshold`` the margin by which a score must exceed the
    last accepted score (a tie is a stall); ``max_depth`` the deepest
    inversion tried before giving up; ``n_candidates`` the number of
    re-noised continuations per depth.
    ``random_p`` only applies under the RANDOM initiation policy.
    ``exploration_guidance`` may switch candidate denoising back to plain CFG
    while default steps keep the configured mode.
    """

    window: int = 40
    threshold: float = 0.0
    max_depth: int = 3
    n_candidates: int = 4
    initiation: InitiationPolicy = InitiationPolicy.REWARD_BASED
    random_p: float = 0.5
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    exploration_guidance: ExplorationGuidance = ExplorationGuidance.SAME

    def __post_init__(self):
        if type(self.window) is not int or self.window < 0:
            raise ValueError(f"window must be an integer >= 0, got {self.window!r}")
        if type(self.max_depth) is not int or self.max_depth < 1:
            raise ValueError(f"max_depth must be an integer >= 1, got {self.max_depth!r}")
        if type(self.n_candidates) is not int or self.n_candidates < 1:
            raise ValueError(f"n_candidates must be an integer >= 1, got {self.n_candidates!r}")
        if type(self.threshold) not in (int, float) or not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be a finite number, got {self.threshold!r}")
        if type(self.random_p) not in (int, float) or not 0.0 <= self.random_p <= 1.0:
            raise ValueError(f"random_p must be a number in [0, 1], got {self.random_p!r}")


@dataclass(frozen=True)
class ExplorationEvent:
    """Record of one triggered exploration.

    ``depths_tried`` counts escalation iterations; ``terminal_depth`` is the
    actual inversion distance used on the last iteration (the step-boundary
    clamp can make it smaller than ``depths_tried``).
    """

    t: int
    trigger: str
    depths_tried: int
    candidates_evaluated: int
    terminal_depth: int
    terminated_by: TerminatedBy
    accepted_score: float
    default_score: float


@dataclass(eq=False)
class RunResult:
    """Outcome of one trajectory: final sample, traces, and exact accounting."""

    x0: np.ndarray
    reward_trace: list[float]
    events: list[ExplorationEvent]
    nfe_total: int
    nfe_avg: float
    reward_calls: int
    seed: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunResult):
            return NotImplemented
        return (
            np.array_equal(self.x0, other.x0)
            and self.reward_trace == other.reward_trace
            and self.events == other.events
            and self.nfe_total == other.nfe_total
            and self.nfe_avg == other.nfe_avg
            and self.reward_calls == other.reward_calls
            and self.seed == other.seed
        )


def _advance(
    ctx: EvalContext,
    state: LatentState,
    cond: Condition,
    mix: GaussianMixture,
    guidance: GuidanceConfig,
    sched: NoiseSchedule,
) -> tuple[LatentState, np.ndarray]:
    """One guided denoising step; returns the new state and its clean estimate."""
    pred = predict(ctx, state, cond, mix, guidance, sched)
    return ddim_step(state, pred.x0_hat, pred.eps_noise, sched), pred.x0_hat


def _scored(ctx: EvalContext, reward: RewardSpec, cond: Condition, x0_hat: np.ndarray) -> float:
    ctx.add_reward_call()
    return score(reward, cond, x0_hat)


def _check_start(x_T: LatentState, sched: NoiseSchedule) -> None:
    if x_T.t != sched.num_steps:
        raise ValueError(f"start state must sit at level {sched.num_steps}, got {x_T.t}")


def _finish(
    x0: LatentState,
    trace: list[float],
    events: list[ExplorationEvent],
    ctx: EvalContext,
    nfe_start: int,
    reward_start: int,
    sched: NoiseSchedule,
    seed: int,
) -> RunResult:
    nfe_total = ctx.nfe_count - nfe_start
    return RunResult(
        x0=x0.x,
        reward_trace=trace,
        events=events,
        nfe_total=nfe_total,
        nfe_avg=nfe_total / sched.num_steps,
        reward_calls=ctx.reward_calls - reward_start,
        seed=seed,
    )


def run_ddim(
    ctx: EvalContext,
    x_T: LatentState,
    cond: Condition,
    mix: GaussianMixture,
    guidance: GuidanceConfig,
    sched: NoiseSchedule,
    seed: int = 0,
) -> RunResult:
    """Plain deterministic sampling, one forward pass per step: the search
    with an empty exploration window, which never reads a reward."""
    return _search(ctx, x_T, cond, mix, sched, None, CtrlZParams(window=0, guidance=guidance), seed)


def run_resampling(
    ctx: EvalContext,
    x_T: LatentState,
    cond: Condition,
    mix: GaussianMixture,
    guidance: GuidanceConfig,
    sched: NoiseSchedule,
    seed: int = 0,
) -> RunResult:
    """Per step: denoise, re-noise one level with fresh noise, denoise again.

    The re-denoised state is always taken; two forward passes per step.
    """
    _check_start(x_T, sched)
    nfe0, rc0 = ctx.nfe_count, ctx.reward_calls
    state = x_T
    for t in range(sched.num_steps, 0, -1):
        state, _ = _advance(ctx, state, cond, mix, guidance, sched)
        noise = keyed_rng(seed, t, 0, 0).standard_normal(state.dim)
        renoised = stochastic_invert(state, 1, noise, sched)
        state, _ = _advance(ctx, renoised, cond, mix, guidance, sched)
    return _finish(state, [], [], ctx, nfe0, rc0, sched, seed)


def run_zsampling(
    ctx: EvalContext,
    x_T: LatentState,
    cond: Condition,
    mix: GaussianMixture,
    guidance: GuidanceConfig,
    sched: NoiseSchedule,
    inversion_guidance: GuidanceConfig | None = None,
    seed: int = 0,
) -> RunResult:
    """Per step: denoise, deterministically re-invert along a weakly guided
    prediction, then denoise again; fully deterministic, three passes per step.

    The inversion prediction defaults to unconditional (scale 0).
    """
    _check_start(x_T, sched)
    inv = inversion_guidance if inversion_guidance is not None else GuidanceConfig(0.0, GuidanceMode.CFG)
    nfe0, rc0 = ctx.nfe_count, ctx.reward_calls
    state = x_T
    for _t in range(sched.num_steps, 0, -1):
        lowered, _ = _advance(ctx, state, cond, mix, guidance, sched)
        pred_inv = predict(ctx, lowered, cond, mix, inv, sched)
        raised = deterministic_invert(lowered, pred_inv.eps, sched)
        state, _ = _advance(ctx, raised, cond, mix, guidance, sched)
    return _finish(state, [], [], ctx, nfe0, rc0, sched, seed)


def _evaluate_candidate(
    ctx: EvalContext,
    cond: Condition,
    mix: GaussianMixture,
    guidance: GuidanceConfig,
    sched: NoiseSchedule,
    reward: RewardSpec,
    origin: LatentState,
    delta: int,
    key: tuple[int, int, int, int],
) -> tuple[float, LatentState]:
    """One zigzag: re-noise ``origin`` by ``delta`` levels with the keyed
    noise, denoise back to its level, and score the result."""
    noise = keyed_rng(*key).standard_normal(origin.dim)
    cand = stochastic_invert(origin, delta, noise, sched)
    for _k in range(origin.t + delta, origin.t - 1, -1):
        cand, cand_x0 = _advance(ctx, cand, cond, mix, guidance, sched)
    return _scored(ctx, reward, cond, cand_x0), cand


def _policy_fires(params: CtrlZParams, seed: int, t: int) -> bool:
    if params.initiation is InitiationPolicy.RANDOM:
        return bool(keyed_rng(seed, t, 0, 0).uniform() < params.random_p)
    return True


def run_ctrlz(
    ctx: EvalContext,
    x_T: LatentState,
    cond: Condition,
    mix: GaussianMixture,
    sched: NoiseSchedule,
    reward: RewardSpec,
    params: CtrlZParams,
    seed: int = 0,
) -> RunResult:
    """Reward-guided sampling with adaptive-depth zigzag exploration.

    Within the exploration window, a step whose clean-estimate score does not
    beat the last accepted score by more than ``threshold`` (a tie is a stall)
    triggers a search: re-noise the pre-step state by an escalating number of
    levels, denoise each of ``n_candidates`` fresh continuations back down,
    and keep the best scoring state seen (the default continuation is part of
    the pool). The search stops as soon as the best score beats the bar, or at
    ``max_depth``, in which case the best candidate is retained anyway and
    the accepted score may decrease.

    ALWAYS skips the acceptance pre-check and explores at every eligible
    step; RANDOM does so with probability ``random_p`` and otherwise accepts
    the step without a reward call, like a plain step.
    """
    return _search(ctx, x_T, cond, mix, sched, reward, params, seed)


def run_sop(
    ctx: EvalContext,
    x_T: LatentState,
    cond: Condition,
    mix: GaussianMixture,
    guidance: GuidanceConfig,
    sched: NoiseSchedule,
    reward: RewardSpec,
    n_candidates: int,
    seed: int = 0,
) -> RunResult:
    """Fixed-depth search over paths: the ``ctrlz`` preset with window=T,
    initiation=always and max_depth=1, with no events logged.

    Every step scores the default continuation plus ``n_candidates``
    one-level re-noised continuations and keeps the best. Ties go to the
    earliest candidate, so the default wins exact ties. The inversion
    distance is clamped to 0 at the top step.
    """
    params = CtrlZParams(
        window=sched.num_steps,
        max_depth=1,
        n_candidates=n_candidates,
        initiation=InitiationPolicy.ALWAYS,
        guidance=guidance,
    )
    return replace(_search(ctx, x_T, cond, mix, sched, reward, params, seed), events=[])


def _search(
    ctx: EvalContext,
    x_T: LatentState,
    cond: Condition,
    mix: GaussianMixture,
    sched: NoiseSchedule,
    reward: RewardSpec | None,
    params: CtrlZParams,
    seed: int,
) -> RunResult:
    """The one search loop behind ``run_ddim``, ``run_ctrlz`` and ``run_sop``."""
    _check_start(x_T, sched)
    if reward is None and params.window > 0:
        raise ValueError("a search with a nonempty window requires a reward")
    T = sched.num_steps
    if params.window > T:
        raise ValueError(f"window {params.window} exceeds total steps {T}")
    explore_guidance = params.guidance
    if params.exploration_guidance is ExplorationGuidance.CFG_IN_EXPLORATION:
        explore_guidance = GuidanceConfig(params.guidance.omega, GuidanceMode.CFG)

    nfe0, rc0 = ctx.nfe_count, ctx.reward_calls
    trace: list[float] = []
    events: list[ExplorationEvent] = []
    r_prev = -math.inf
    state = x_T
    for t in range(T, 0, -1):
        next_state, x0_hat = _advance(ctx, state, cond, mix, params.guidance, sched)
        if t > T - params.window and _policy_fires(params, seed, t):
            r = _scored(ctx, reward, cond, x0_hat)
            if params.initiation is InitiationPolicy.REWARD_BASED and r > r_prev + params.threshold:
                r_prev = r
                trace.append(r)
            else:
                best_score, best_state = r, next_state
                terminated = TerminatedBy.DEPTH_CAP
                for depth in range(1, params.max_depth + 1):  # max_depth >= 1: always entered
                    delta = min(depth, T - t)
                    for i in range(1, params.n_candidates + 1):
                        cand_score, cand_state = _evaluate_candidate(
                            ctx, cond, mix, explore_guidance, sched, reward, state, delta, (seed, t, depth, i)
                        )
                        if cand_score > best_score:
                            best_score, best_state = cand_score, cand_state
                    if best_score > r_prev + params.threshold:
                        terminated = TerminatedBy.THRESHOLD_MET
                        break
                events.append(
                    ExplorationEvent(
                        t=t,
                        trigger=params.initiation.value,
                        depths_tried=depth,
                        candidates_evaluated=depth * params.n_candidates,
                        terminal_depth=delta,
                        terminated_by=terminated,
                        accepted_score=best_score,
                        default_score=r,
                    )
                )
                next_state = best_state
                r_prev = best_score
                trace.append(best_score)
        state = next_state
    return _finish(state, trace, events, ctx, nfe0, rc0, sched, seed)
