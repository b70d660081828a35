import math

import numpy as np
import pytest

import ctrlz.samplers as samplers_mod
from ctrlz import (
    Condition,
    CtrlZParams,
    EvalContext,
    ExplorationGuidance,
    GaussianMixture,
    GuidanceConfig,
    GuidanceMode,
    InitiationPolicy,
    LatentState,
    NegDistance,
    NoiseSchedule,
    Plateau,
    TerminatedBy,
    keyed_rng,
    run_ctrlz,
    run_ddim,
    run_resampling,
    run_sop,
    run_zsampling,
)

CFG = GuidanceConfig(1.0, GuidanceMode.CFG)
REWARD = NegDistance(np.array([3.0, 0.0]))


def start_state(sched, seed=7):
    return LatentState(keyed_rng(seed, 0).standard_normal(2), sched.num_steps)


def test_ddim_nfe_is_one_per_step(sched50, two_mode_mix, balanced_cond):
    ctx = EvalContext()
    res = run_ddim(ctx, start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50)
    assert res.nfe_total == 50
    assert res.nfe_avg == 1.0
    assert ctx.nfe_count == 50
    assert res.reward_calls == 0 and res.reward_trace == []


def test_ddim_reruns_are_bit_identical(sched50, two_mode_mix, balanced_cond):
    a = run_ddim(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, seed=7)
    b = run_ddim(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, seed=7)
    assert a == b
    assert a.reward_trace == [] and a.reward_calls == 0


def test_ddim_flow_contracts_to_mean_for_tiny_spread(sched50):
    mix = GaussianMixture(np.array([1.0]), np.array([[1.2, -0.7]]), np.array([1e-4]))
    res = run_ddim(EvalContext(), start_state(sched50), Condition.unconditional(), mix, CFG, sched50)
    assert np.max(np.abs(res.x0 - mix.means[0])) <= 1e-6


def test_resampling_nfe_and_determinism(sched50, two_mode_mix, balanced_cond):
    a = run_resampling(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, seed=3)
    b = run_resampling(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, seed=3)
    assert a == b
    assert a.nfe_total == 100 and a.nfe_avg == 2.0
    c = run_resampling(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, seed=4)
    assert not np.array_equal(a.x0, c.x0)


def test_resampling_degenerates_to_ddim_when_ratios_are_one():
    # Constant alpha-bars make every inversion coefficient vanish, so the
    # injected noise never enters and both strategies walk the same trajectory.
    sched = NoiseSchedule(5, np.ones(6))
    mix = GaussianMixture(np.array([1.0]), np.array([[0.5, 0.5]]), np.array([1.0]))
    cond = Condition.unconditional()
    x_T = LatentState(np.array([0.3, -0.8]), 5)
    res = run_resampling(EvalContext(), x_T, cond, mix, CFG, sched, seed=1)
    ref = run_ddim(EvalContext(), x_T, cond, mix, CFG, sched)
    assert np.array_equal(res.x0, ref.x0)


def test_zsampling_nfe_and_determinism(sched50, two_mode_mix, balanced_cond):
    a = run_zsampling(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, seed=9)
    b = run_zsampling(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, seed=9)
    assert a == b
    assert a.nfe_total == 150 and a.nfe_avg == 3.0


def test_zsampling_inversion_guidance_changes_output(sched50, two_mode_mix, balanced_cond):
    weak = run_zsampling(
        EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50,
        inversion_guidance=GuidanceConfig(0.0, GuidanceMode.CFG),
    )
    strong = run_zsampling(
        EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50,
        inversion_guidance=GuidanceConfig(1.0, GuidanceMode.CFG),
    )
    assert not np.array_equal(weak.x0, strong.x0)


def test_sop_nfe_accounting(sched50, two_mode_mix, balanced_cond):
    res4 = run_sop(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, REWARD, 4, seed=5)
    assert res4.nfe_total == 5 + 49 * 9
    assert res4.nfe_avg == pytest.approx(8.92)
    res1 = run_sop(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, REWARD, 1, seed=5)
    assert res1.nfe_total == 149
    assert res1.nfe_avg == pytest.approx(2.98)
    assert res4.reward_calls == 50 * 5 and res1.reward_calls == 50 * 2


def test_sop_selected_score_dominates_default(sched50, two_mode_mix, balanced_cond, monkeypatch):
    observed = []
    real_score = samplers_mod.score

    def spy(spec, cond, x0_hat):
        value = real_score(spec, cond, x0_hat)
        observed.append(value)
        return value

    monkeypatch.setattr(samplers_mod, "score", spy)
    n = 3
    res = run_sop(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, REWARD, n, seed=5)
    assert len(observed) == 50 * (n + 1)
    for step in range(50):
        group = observed[step * (n + 1) : (step + 1) * (n + 1)]
        assert res.reward_trace[step] == max(group)
        assert res.reward_trace[step] >= group[0]


def default_params(**overrides):
    base = dict(
        window=40, threshold=0.0, max_depth=3, n_candidates=4,
        initiation=InitiationPolicy.REWARD_BASED, guidance=CFG,
    )
    base.update(overrides)
    return CtrlZParams(**base)


def test_ctrlz_zero_window_is_bitwise_ddim(sched50, two_mode_mix, balanced_cond):
    x_T = start_state(sched50)
    res = run_ctrlz(EvalContext(), x_T, balanced_cond, two_mode_mix, sched50, REWARD, default_params(window=0), seed=7)
    ref = run_ddim(EvalContext(), x_T, balanced_cond, two_mode_mix, CFG, sched50, seed=7)
    assert res == ref
    assert res.nfe_avg == 1.0 and res.reward_calls == 0


def test_ctrlz_always_shallow_nfe_identity(sched50, two_mode_mix, balanced_cond):
    params = default_params(window=50, max_depth=1, n_candidates=1, initiation=InitiationPolicy.ALWAYS)
    ctx = EvalContext()
    res = run_ctrlz(ctx, start_state(sched50), balanced_cond, two_mode_mix, sched50, REWARD, params, seed=7)
    assert res.nfe_total == 149
    assert res.nfe_avg == pytest.approx(2.98)
    assert len(res.events) == 50


def test_ctrlz_first_step_never_triggers_reward_based(sched50, two_mode_mix, balanced_cond):
    params = default_params(window=50)
    res = run_ctrlz(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, sched50, REWARD, params, seed=7)
    assert all(ev.t != 50 for ev in res.events)


def test_ctrlz_window_semantics_and_reward_accounting(sched50, two_mode_mix, balanced_cond):
    params = default_params(window=12)
    res = run_ctrlz(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, sched50, REWARD, params, seed=7)
    assert all(ev.t > 50 - 12 for ev in res.events)
    candidate_calls = sum(ev.candidates_evaluated for ev in res.events)
    assert res.reward_calls == 12 + candidate_calls
    assert len(res.reward_trace) == 12


def test_ctrlz_nfe_matches_closed_form(sched50, two_mode_mix, balanced_cond):
    params = default_params()
    res = run_ctrlz(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, sched50, REWARD, params, seed=11)
    extra = 0
    for ev in res.events:
        for j in range(1, ev.depths_tried + 1):
            delta = min(j, 50 - ev.t)
            extra += params.n_candidates * (delta + 1)
    assert res.nfe_total == 50 + extra


def test_ctrlz_event_invariants(sched50, two_mode_mix, balanced_cond):
    params = default_params()
    events = []
    for seed in range(10):
        res = run_ctrlz(
            EvalContext(), start_state(sched50, seed), balanced_cond, two_mode_mix,
            sched50, REWARD, params, seed=seed,
        )
        events.extend(res.events)
    assert events, "expected at least one exploration across these seeds"
    for ev in events:
        assert ev.accepted_score >= ev.default_score
        assert 1 <= ev.depths_tried <= params.max_depth
        assert ev.candidates_evaluated == ev.depths_tried * params.n_candidates
        assert ev.terminal_depth == min(ev.depths_tried, 50 - ev.t)
        if ev.terminated_by is TerminatedBy.DEPTH_CAP:
            assert ev.depths_tried == params.max_depth


def test_ctrlz_unreachable_threshold_always_hits_depth_cap(sched50, two_mode_mix, balanced_cond):
    params = default_params(window=10, threshold=1e6, max_depth=2, n_candidates=2)
    res = run_ctrlz(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, sched50, REWARD, params, seed=7)
    # First eligible step accepts against -inf; every later one explores to the cap.
    assert len(res.events) == 9
    for ev in res.events:
        assert ev.terminated_by is TerminatedBy.DEPTH_CAP
        assert ev.depths_tried == 2


def test_ctrlz_treats_a_tie_as_a_stall(sched50, two_mode_mix, balanced_cond):
    # The trajectory stays beyond the plateau's outer radius, where this reward
    # is exactly 0: every eligible step after the first ties the accepted score.
    flat = Plateau(np.array([100.0, 0.0]), 1.0, 2.0, 0.0, 1.0)
    params = default_params(window=10, max_depth=2, n_candidates=2)
    res = run_ctrlz(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, sched50, flat, params, seed=7)
    assert res.reward_trace == [0.0] * 10
    assert len(res.events) == 9
    for ev in res.events:
        assert ev.terminated_by is TerminatedBy.DEPTH_CAP
        assert ev.depths_tried == 2


def test_ctrlz_run_order_and_shared_context_do_not_change_results(sched50, two_mode_mix, balanced_cond):
    params = default_params()
    alone = run_ctrlz(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, sched50, REWARD, params, seed=21)
    shared = EvalContext()
    run_ctrlz(shared, start_state(sched50), balanced_cond, two_mode_mix, sched50, REWARD, params, seed=22)
    after = run_ctrlz(shared, start_state(sched50), balanced_cond, two_mode_mix, sched50, REWARD, params, seed=21)
    assert after == alone


def test_ctrlz_random_policy_edge_probabilities(sched50, two_mode_mix, balanced_cond):
    x_T = start_state(sched50)
    never = run_ctrlz(
        EvalContext(), x_T, balanced_cond, two_mode_mix, sched50, REWARD,
        default_params(initiation=InitiationPolicy.RANDOM, random_p=0.0), seed=7,
    )
    ref = run_ddim(EvalContext(), x_T, balanced_cond, two_mode_mix, CFG, sched50, seed=7)
    assert never == ref
    surely = run_ctrlz(
        EvalContext(), x_T, balanced_cond, two_mode_mix, sched50, REWARD,
        default_params(initiation=InitiationPolicy.RANDOM, random_p=1.0), seed=7,
    )
    always = run_ctrlz(
        EvalContext(), x_T, balanced_cond, two_mode_mix, sched50, REWARD,
        default_params(initiation=InitiationPolicy.ALWAYS), seed=7,
    )
    # Identical search behavior; only the recorded trigger cause differs.
    assert np.array_equal(surely.x0, always.x0)
    assert surely.reward_trace == always.reward_trace
    assert (surely.nfe_total, surely.reward_calls) == (always.nfe_total, always.reward_calls)
    assert len(surely.events) == len(always.events) == 40
    assert all(ev.trigger == "random" for ev in surely.events)
    assert all(ev.trigger == "always" for ev in always.events)


def test_ctrlz_rejects_bad_arguments(sched50, two_mode_mix, balanced_cond):
    with pytest.raises(ValueError):
        run_ctrlz(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, sched50, None, default_params(), seed=7)
    with pytest.raises(ValueError):
        run_ctrlz(
            EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, sched50, REWARD,
            default_params(window=51), seed=7,
        )
    with pytest.raises(ValueError):
        run_sop(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, None, 4, seed=7)
    with pytest.raises(ValueError):
        run_sop(EvalContext(), start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, REWARD, 0, seed=7)
    with pytest.raises(ValueError):
        CtrlZParams(window=-1)
    with pytest.raises(ValueError):
        CtrlZParams(n_candidates=0)
    with pytest.raises(ValueError):
        CtrlZParams(max_depth=0)
    with pytest.raises(ValueError):
        CtrlZParams(random_p=1.5)
    for field in ("window", "max_depth", "n_candidates"):
        for value in (2.5, "4", True):
            with pytest.raises(ValueError, match=field):
                CtrlZParams(**{field: value})
    for field in ("threshold", "random_p"):
        for value in (True, "x"):
            with pytest.raises(ValueError, match=field):
                CtrlZParams(**{field: value})


def test_samplers_reject_misplaced_start(sched50, two_mode_mix, balanced_cond):
    bad = LatentState(np.zeros(2), 10)
    with pytest.raises(ValueError):
        run_ddim(EvalContext(), bad, balanced_cond, two_mode_mix, CFG, sched50)


def test_cfg_plus_plus_changes_trajectories(sched50, two_mode_mix, balanced_cond):
    x_T = start_state(sched50)
    g_cfg = GuidanceConfig(2.5, GuidanceMode.CFG)
    g_pp = GuidanceConfig(2.5, GuidanceMode.CFG_PLUS_PLUS)
    a = run_ddim(EvalContext(), x_T, balanced_cond, two_mode_mix, g_cfg, sched50)
    b = run_ddim(EvalContext(), x_T, balanced_cond, two_mode_mix, g_pp, sched50)
    assert not np.array_equal(a.x0, b.x0)


def test_ctrlz_partial_cfg_mode_differs_from_same(sched50, two_mode_mix, balanced_cond):
    x_T = start_state(sched50)
    g_pp = GuidanceConfig(2.5, GuidanceMode.CFG_PLUS_PLUS)
    same = run_ctrlz(
        EvalContext(), x_T, balanced_cond, two_mode_mix, sched50, REWARD,
        default_params(guidance=g_pp), seed=7,
    )
    hybrid = run_ctrlz(
        EvalContext(), x_T, balanced_cond, two_mode_mix, sched50, REWARD,
        default_params(guidance=g_pp, exploration_guidance=ExplorationGuidance.CFG_IN_EXPLORATION), seed=7,
    )
    assert not np.array_equal(same.x0, hybrid.x0)
