"""An independent reference for the Ctrl-Z search, checked run for run against ``run_ctrlz``.

The reference is written from the method's description, not from the
sampler: denoise step by step; inside the exploration window, score each
step's clean estimate; when the score does not beat the last accepted score
by more than the threshold (a plateau; a tie counts), roll the pre-step state
back to a noisier level, sample alternative continuations back down, and take
the best state seen so far, escalating the rollback depth until the best score
beats the bar or the depth cap is reached. It calls only ``predict``, the step
operators, ``score`` and ``keyed_rng``, keeps its own call counts, and keeps
every state it has seen in one pool, so that "the best so far" is a ``max``
over that pool (the earliest of equal scores wins) rather than a running
comparison.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctrlz import (
    Condition,
    CtrlZParams,
    ExplorationEvent,
    ExplorationGuidance,
    GaussianMixture,
    GuidanceConfig,
    GuidanceMode,
    InitiationPolicy,
    LatentState,
    LogDensity,
    NegDistance,
    Plateau,
    RunResult,
    TerminatedBy,
    build_linear_schedule,
    ddim_step,
    keyed_rng,
    predict,
    run_ctrlz,
    score,
    stochastic_invert,
    subsample,
)

MIX = GaussianMixture(np.array([0.8, 0.2]), np.array([[-3.0, 0.0], [3.0, 0.0]]), np.array([0.7, 0.7]))
CONDITIONS = {"unconditional": Condition(), "reweight": Condition(np.array([0.5, 0.5]))}
REWARDS = {
    "neg_distance": NegDistance(np.array([3.0, 0.0])),
    "log_density": LogDensity(MIX),
    "plateau": Plateau(np.array([3.0, 0.0]), 1.0, 2.5, 0.2, 1.0),
    # Every clean estimate lies beyond the outer radius, where this reward is exactly 0: every score ties.
    "flat": Plateau(np.array([100.0, 0.0]), 1.0, 2.0, 0.0, 1.0),
}
PARENT = build_linear_schedule(1000, 1e-4, 0.02)
SCHEDULES = {steps: subsample(PARENT, steps) for steps in range(1, 51)}


def reference_ctrlz(x_T, cond, mix, guidance, sched, reward, params, seed):
    """Reward-guided sampling with adaptive-depth zigzag exploration, from its description."""
    T = sched.num_steps
    passes = scores = 0
    if params.exploration_guidance is ExplorationGuidance.SAME:
        explore_guidance = guidance
    else:
        explore_guidance = GuidanceConfig(guidance.omega, GuidanceMode.CFG)

    def step_down(state, g):
        """One guided denoising step: the state one level lower and the clean estimate it came from."""
        nonlocal passes
        passes += 1
        pred = predict(state, cond, mix, g, sched)
        return ddim_step(state, pred.x0_hat, pred.eps_noise, sched), pred.x0_hat

    def judge(x0_hat):
        nonlocal scores
        scores += 1
        return score(reward, cond, x0_hat)

    def continuation(state, t, depth, index):
        """Roll ``state`` (level t) back up by ``depth`` levels, no higher than the top, and denoise it to t - 1."""
        rollback = min(depth, T - t)
        noise = keyed_rng(seed, t, depth, index).standard_normal(state.dim)
        x = stochastic_invert(state, rollback, noise, sched)
        for _ in range(rollback + 1):
            x, x0_hat = step_down(x, explore_guidance)
        return judge(x0_hat), x, rollback

    accepted = -math.inf
    trace, events = [], []
    state = x_T
    for t in range(T, 0, -1):
        default, default_x0 = step_down(state, guidance)
        eligible = t > T - params.window
        if eligible and params.initiation is InitiationPolicy.RANDOM:
            eligible = keyed_rng(seed, t, 0, 0).uniform() < params.random_p
        if not eligible:
            state = default
            continue
        default_score = judge(default_x0)
        bar = accepted + params.threshold
        if params.initiation is InitiationPolicy.REWARD_BASED and default_score > bar:
            accepted, state = default_score, default
            trace.append(accepted)
            continue
        pool = [(default_score, default)]
        terminated = TerminatedBy.DEPTH_CAP
        for depth in range(1, params.max_depth + 1):
            for index in range(1, params.n_candidates + 1):
                cand_score, cand, rollback = continuation(state, t, depth, index)
                pool.append((cand_score, cand))
            best_score, best = max(pool, key=lambda entry: entry[0])
            if best_score > bar:
                terminated = TerminatedBy.THRESHOLD_MET
                break
        events.append(
            ExplorationEvent(
                t=t,
                trigger=params.initiation.value,
                depths_tried=depth,
                candidates_evaluated=len(pool) - 1,
                terminal_depth=rollback,
                terminated_by=terminated,
                accepted_score=best_score,
                default_score=default_score,
            )
        )
        accepted, state = best_score, best
        trace.append(accepted)
    return RunResult(state.x, trace, events, passes, passes / T, scores, seed)


@st.composite
def searches(draw):
    T = draw(st.integers(1, 50))
    params = CtrlZParams(
        window=draw(st.sampled_from([0, T]) | st.integers(0, T)),
        threshold=draw(st.sampled_from([0.0, 0.05, 1.0, 1e6]) | st.floats(-0.2, 0.5)),
        max_depth=draw(st.integers(1, 4)),
        n_candidates=draw(st.integers(1, 3)),
        initiation=draw(st.sampled_from(InitiationPolicy)),
        random_p=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        exploration_guidance=draw(st.sampled_from(ExplorationGuidance)),
    )
    guidance = GuidanceConfig(draw(st.sampled_from([0.0, 1.0, 2.0, 3.5])), draw(st.sampled_from(GuidanceMode)))
    return (
        T,
        params,
        guidance,
        draw(st.sampled_from(sorted(CONDITIONS))),
        draw(st.sampled_from(sorted(REWARDS))),
        draw(st.integers(0, 2**32)),
    )


def ctrlz_case(T, window, threshold, max_depth, n_candidates, initiation, exploration="same", mode="cfg", reward="neg_distance"):
    params = CtrlZParams(
        window=window, threshold=threshold, max_depth=max_depth, n_candidates=n_candidates,
        initiation=initiation, exploration_guidance=exploration,
    )
    return T, params, GuidanceConfig(2.0, mode), "reweight", reward, 7


@settings(max_examples=120, deadline=None, derandomize=True)
@given(searches())
@example(ctrlz_case(50, 50, 0.0, 3, 2, "reward_based", reward="flat"))  # ties are stalls, at every eligible step
@example(ctrlz_case(50, 50, 1e6, 3, 2, "reward_based"))  # every exploration ends at the depth cap
@example(ctrlz_case(12, 12, 0.0, 2, 3, "always", "cfg_in_exploration", "cfg++", "plateau"))  # explores at t = T
@example(ctrlz_case(1, 1, 0.0, 2, 1, "random", reward="log_density"))  # one step: every rollback is clamped to 0
def test_ctrlz_matches_reference_search(case):
    T, params, guidance, cond_name, reward_name, seed = case
    sched, cond, reward = SCHEDULES[T], CONDITIONS[cond_name], REWARDS[reward_name]
    x_T = LatentState(keyed_rng(seed, 0).standard_normal(MIX.dim), T)
    expected = reference_ctrlz(x_T, cond, MIX, guidance, sched, reward, params, seed)
    assert run_ctrlz(x_T, cond, MIX, guidance, sched, reward, params, seed) == expected
