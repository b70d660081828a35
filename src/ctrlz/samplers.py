"""The five sampling strategies with exact forward-pass accounting.

All strategies share the guided analytic denoiser and the step operators.
Stochastic strategies derive every noise draw from a stream keyed by
(seed, step, depth, candidate), so reruns are bit-identical and no result
depends on the order in which runs or candidates are evaluated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .dynamics import ConfigError, GuidanceConfig, GuidanceMode, LatentState, Prediction, finite_number, parse_enum
from .dynamics import ddim_step, deterministic_invert, stochastic_invert
from .models import Condition, GaussianMixture, predict
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
    while default steps keep the run's guidance mode. Enum fields take a member or its value.
    """

    window: int = 40
    threshold: float = 0.0
    max_depth: int = 3
    n_candidates: int = 4
    initiation: InitiationPolicy = InitiationPolicy.REWARD_BASED
    random_p: float = 0.5
    exploration_guidance: ExplorationGuidance = ExplorationGuidance.SAME

    def __post_init__(self):
        for name, least in (("window", 0), ("max_depth", 1), ("n_candidates", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ConfigError(name, f"must be an integer >= {least}, got {value!r}")
        if not finite_number(self.threshold):
            raise ConfigError("threshold", f"must be a finite number, got {self.threshold!r}")
        if not finite_number(self.random_p) or not 0.0 <= self.random_p <= 1.0:
            raise ConfigError("random_p", f"must be a number in [0, 1], got {self.random_p!r}")
        parse_enum(self, "initiation", InitiationPolicy)
        parse_enum(self, "exploration_guidance", ExplorationGuidance)


_NO_SEARCH = CtrlZParams(window=0)  # ddim, resampling and zsampling: no step is eligible to explore


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
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


def run_ddim(
    x_T: LatentState,
    cond: Condition,
    mix: GaussianMixture,
    guidance: GuidanceConfig,
    sched: NoiseSchedule,
    seed: int = 0,
) -> RunResult:
    """Plain deterministic sampling, one forward pass per step: the search
    with an empty exploration window, which never reads a reward."""
    return _search(x_T, cond, mix, guidance, sched, None, _NO_SEARCH, seed)


def run_resampling(
    x_T: LatentState,
    cond: Condition,
    mix: GaussianMixture,
    guidance: GuidanceConfig,
    sched: NoiseSchedule,
    seed: int = 0,
) -> RunResult:
    """Per step: denoise, re-noise one level with fresh noise, denoise again.

    The search with an empty window and a one-level stochastic zigzag after
    every step; the re-denoised state is always kept. Two passes per step."""
    def zigzag(state: LatentState, t: int, guided: Callable[..., Prediction]) -> LatentState:
        return stochastic_invert(state, 1, keyed_rng(seed, t, 0, 0).standard_normal(state.dim), sched)

    return _search(x_T, cond, mix, guidance, sched, None, _NO_SEARCH, seed, zigzag)


def run_zsampling(
    x_T: LatentState,
    cond: Condition,
    mix: GaussianMixture,
    guidance: GuidanceConfig,
    sched: NoiseSchedule,
    inversion_omega: float = 0.0,
    seed: int = 0,
) -> RunResult:
    """Per step: denoise, deterministically re-invert along a weakly guided
    prediction, then denoise again; fully deterministic, three passes per step.

    The search with an empty window and a one-level deterministic zigzag after
    every step, inverting along the guided noise estimate at scale ``inversion_omega`` (0: unconditional)."""
    inversion = GuidanceConfig(inversion_omega)

    def zigzag(state: LatentState, t: int, guided: Callable[..., Prediction]) -> LatentState:
        return deterministic_invert(state, guided(state, inversion).eps, sched)

    return _search(x_T, cond, mix, guidance, sched, None, _NO_SEARCH, seed, zigzag)


def run_ctrlz(
    x_T: LatentState,
    cond: Condition,
    mix: GaussianMixture,
    guidance: GuidanceConfig,
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
    return _search(x_T, cond, mix, guidance, sched, reward, params, seed)


def run_sop(
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
        window=sched.num_steps, max_depth=1, n_candidates=n_candidates, initiation=InitiationPolicy.ALWAYS
    )
    return replace(_search(x_T, cond, mix, guidance, sched, reward, params, seed), events=[])


# Once per run: a squared distance over a tiny variance overflows to the right limit, a -inf logit; any
# other overflow yields a non-finite state, which LatentState rejects with NonFiniteError.
@np.errstate(over="ignore")
def _search(
    x_T: LatentState,
    cond: Condition,
    mix: GaussianMixture,
    guidance: GuidanceConfig,
    sched: NoiseSchedule,
    reward: RewardSpec | None,
    params: CtrlZParams,
    seed: int,
    zigzag: Callable[[LatentState, int, Callable[..., Prediction]], LatentState] | None = None,
) -> RunResult:
    """The one loop over steps, behind all five strategies; it makes and counts every ``predict`` and ``score`` call
    of the run. ``zigzag(state, t, guided)``, when given, re-noises each default step's result, which one more
    guided step then denoises; ``guided(state, guidance)`` is the counted forward pass."""
    T = sched.num_steps
    if x_T.t != T:
        raise ValueError(f"start state must sit at level {T}, got {x_T.t}")
    if reward is None and params.window > 0:
        raise ValueError("a search with a nonempty window requires a reward")
    if params.window > T:
        raise ValueError(f"window {params.window} exceeds total steps {T}")
    explore_guidance = guidance
    if params.exploration_guidance is ExplorationGuidance.CFG_IN_EXPLORATION:
        explore_guidance = GuidanceConfig(guidance.omega, GuidanceMode.CFG)
    nfe = reward_calls = 0

    def guided(state: LatentState, config: GuidanceConfig) -> Prediction:
        nonlocal nfe
        nfe += 1
        return predict(state, cond, mix, config, sched)

    def advance(state: LatentState, config: GuidanceConfig) -> tuple[LatentState, np.ndarray]:
        """One guided denoising step; returns the new state and its clean estimate."""
        pred = guided(state, config)
        return ddim_step(state, pred.x0_hat, pred.eps_noise, sched), pred.x0_hat

    trace: list[float] = []
    events: list[ExplorationEvent] = []
    r_prev = -math.inf
    state = x_T
    for t in range(T, 0, -1):
        next_state, x0_hat = advance(state, guidance)
        if zigzag is not None:
            next_state, x0_hat = advance(zigzag(next_state, t, guided), guidance)
        if t > T - params.window and (
            params.initiation is not InitiationPolicy.RANDOM or keyed_rng(seed, t, 0, 0).uniform() < params.random_p
        ):
            reward_calls += 1
            r = score(reward, cond, x0_hat)
            if params.initiation is InitiationPolicy.REWARD_BASED and r > r_prev + params.threshold:
                r_prev = r
            else:
                best_score, best_state = r, next_state
                terminated = TerminatedBy.DEPTH_CAP
                for depth in range(1, params.max_depth + 1):  # max_depth >= 1: always entered
                    delta = min(depth, T - t)
                    for i in range(1, params.n_candidates + 1):
                        # One zigzag: re-noise the pre-step state by delta levels, denoise to level t - 1, score.
                        noise = keyed_rng(seed, t, depth, i).standard_normal(state.dim)
                        cand = stochastic_invert(state, delta, noise, sched)
                        for _k in range(delta + 1):
                            cand, cand_x0 = advance(cand, explore_guidance)
                        reward_calls += 1
                        cand_score = score(reward, cond, cand_x0)
                        if cand_score > best_score:
                            best_score, best_state = cand_score, cand
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
            trace.append(r_prev)
        state = next_state
    return RunResult(state.x, trace, events, nfe_total=nfe, nfe_avg=nfe / T, reward_calls=reward_calls, seed=seed)
