import dataclasses
import math

import numpy as np
import pytest

import ctrlz.samplers as samplers_mod
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
    NoiseSchedule,
    Plateau,
    RunResult,
    TerminatedBy,
    ddim_step,
    deterministic_invert,
    keyed_rng,
    predict,
    run_ctrlz,
    run_ddim,
    run_resampling,
    run_sop,
    run_zsampling,
    stochastic_invert,
)
from ctrlz.dynamics import ConfigError

CFG = GuidanceConfig(1.0, GuidanceMode.CFG)


def start_state(sched, seed=7):
    return LatentState(keyed_rng(seed, 0).standard_normal(2), sched.num_steps)


def sample_result():
    event = ExplorationEvent(12, "reward_based", 2, 6, 2, TerminatedBy.THRESHOLD_MET, 0.5, 0.25)
    return RunResult(np.array([1.0, -2.0]), [0.1, 0.2], [event], 60, 1.2, 7, 3)


def differ_in(result, name):
    """``result`` with field ``name`` changed in one place: an element, a trace entry, an event's score or the scalar."""
    value = getattr(result, name)
    if isinstance(value, np.ndarray):
        value = value.copy()
        value[0] += 1.0
    elif name == "events":
        value = [dataclasses.replace(value[0], accepted_score=value[0].accepted_score + 1.0)]
    elif isinstance(value, list):
        value = value[:-1] + [value[-1] + 1.0]
    else:
        value = value + 1
    return dataclasses.replace(result, **{name: value})


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunResult)])
def test_run_result_equality_reads_every_field(field):
    result, changed = sample_result(), differ_in(sample_result(), field)
    assert result == sample_result()
    assert result != changed and changed != result
    assert (result == "x") is False


def test_ddim_flow_contracts_to_mean_for_tiny_spread(sched50):
    mix = GaussianMixture(np.array([1.0]), np.array([[1.2, -0.7]]), np.array([1e-4]))
    res = run_ddim(start_state(sched50), Condition(), mix, CFG, sched50)
    assert np.max(np.abs(res.x0 - mix.means[0])) <= 1e-6


def test_resampling_noise_depends_on_seed(sched50, two_mode_mix, balanced_cond):
    a = run_resampling(start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, seed=3)
    c = run_resampling(start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, seed=4)
    assert not np.array_equal(a.x0, c.x0)


def test_resampling_degenerates_to_ddim_when_ratios_are_one():
    # Constant alpha-bars make every inversion coefficient vanish, so the
    # injected noise never enters and both strategies walk the same trajectory.
    sched = NoiseSchedule(np.ones(6))
    mix = GaussianMixture(np.array([1.0]), np.array([[0.5, 0.5]]), np.array([1.0]))
    cond = Condition()
    x_T = LatentState(np.array([0.3, -0.8]), 5)
    res = run_resampling(x_T, cond, mix, CFG, sched, seed=1)
    ref = run_ddim(x_T, cond, mix, CFG, sched)
    assert np.array_equal(res.x0, ref.x0)


def test_zsampling_inversion_guidance_changes_output(sched50, two_mode_mix, balanced_cond):
    weak = run_zsampling(
        start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, inversion_omega=0.0,
    )
    strong = run_zsampling(
        start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, inversion_omega=1.0,
    )
    assert not np.array_equal(weak.x0, strong.x0)


def reference_resampling(x_T, cond, mix, guidance, sched, seed):
    """The loop ``run_resampling`` had before it became a preset of the search."""
    state = x_T
    for t in range(sched.num_steps, 0, -1):
        pred = predict(state, cond, mix, guidance, sched)
        state = ddim_step(state, pred.x0_hat, pred.eps_noise, sched)
        noise = keyed_rng(seed, t, 0, 0).standard_normal(state.dim)
        state = stochastic_invert(state, 1, noise, sched)
        pred = predict(state, cond, mix, guidance, sched)
        state = ddim_step(state, pred.x0_hat, pred.eps_noise, sched)
    return RunResult(state.x, [], [], 2 * sched.num_steps, 2.0, 0, seed)


def reference_zsampling(x_T, cond, mix, guidance, sched, inversion_guidance, seed):
    """The loop ``run_zsampling`` had before it became a preset of the search."""
    state = x_T
    for _t in range(sched.num_steps, 0, -1):
        pred = predict(state, cond, mix, guidance, sched)
        lowered = ddim_step(state, pred.x0_hat, pred.eps_noise, sched)
        raised = deterministic_invert(lowered, predict(lowered, cond, mix, inversion_guidance, sched).eps, sched)
        pred = predict(raised, cond, mix, guidance, sched)
        state = ddim_step(raised, pred.x0_hat, pred.eps_noise, sched)
    return RunResult(state.x, [], [], 3 * sched.num_steps, 3.0, 0, seed)


ORACLE_GUIDANCE = [GuidanceConfig(2.0, GuidanceMode.CFG), GuidanceConfig(2.0, GuidanceMode.CFG_PLUS_PLUS)]
ORACLE_CONDITIONS = [Condition(), Condition(np.array([0.3, 0.7]))]


@pytest.mark.parametrize("guidance", ORACLE_GUIDANCE, ids=["cfg", "cfg++"])
@pytest.mark.parametrize("cond", ORACLE_CONDITIONS, ids=["unconditional", "reweight"])
def test_resampling_matches_reference_loop(guidance, cond, sched50, two_mode_mix):
    for seed in (0, 3, 11):
        x_T = start_state(sched50, seed)
        res = run_resampling(x_T, cond, two_mode_mix, guidance, sched50, seed=seed)
        assert res == reference_resampling(x_T, cond, two_mode_mix, guidance, sched50, seed)


@pytest.mark.parametrize("omega", [0.0, 1.5])
@pytest.mark.parametrize("guidance", ORACLE_GUIDANCE, ids=["cfg", "cfg++"])
@pytest.mark.parametrize("cond", ORACLE_CONDITIONS, ids=["unconditional", "reweight"])
def test_zsampling_matches_reference_loop(omega, guidance, cond, sched50, two_mode_mix):
    inversion = GuidanceConfig(omega, GuidanceMode.CFG)
    for seed in (0, 3, 11):
        x_T = start_state(sched50, seed)
        res = run_zsampling(x_T, cond, two_mode_mix, guidance, sched50, omega, seed=seed)
        assert res == reference_zsampling(x_T, cond, two_mode_mix, guidance, sched50, inversion, seed)


def test_sop_selected_score_dominates_default(sched50, two_mode_mix, balanced_cond, two_mode_reward, monkeypatch):
    observed = []
    real_score = samplers_mod.score

    def spy(spec, cond, x0_hat):
        value = real_score(spec, cond, x0_hat)
        observed.append(value)
        return value

    monkeypatch.setattr(samplers_mod, "score", spy)
    n = 3
    res = run_sop(start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, two_mode_reward, n, seed=5)
    assert len(observed) == 50 * (n + 1)
    for step in range(50):
        group = observed[step * (n + 1) : (step + 1) * (n + 1)]
        assert res.reward_trace[step] == max(group)
        assert res.reward_trace[step] >= group[0]


def default_params(**overrides):
    base = dict(
        window=40, threshold=0.0, max_depth=3, n_candidates=4,
        initiation=InitiationPolicy.REWARD_BASED,
    )
    base.update(overrides)
    return CtrlZParams(**base)


ALWAYS_SHALLOW = default_params(window=50, max_depth=1, n_candidates=1, initiation=InitiationPolicy.ALWAYS)

# Each case's runner and the (nfe_total, reward_calls, len(events)) it reports at T = 50 from any start. With n
# candidates, sop and ctrlz-always pay 1 + n passes at the top step, which has no level to re-noise, 1 + 2n at
# each other step, and n + 1 reward calls per step. The default ctrlz case has no fixed count, because its
# explorations depend on the start; test_ctrlz_nfe_matches_closed_form checks its count.
RUNNERS = {
    "ddim": (lambda x_T, cond, mix, sched, reward: run_ddim(x_T, cond, mix, CFG, sched, seed=3), (50, 0, 0)),
    "resampling": (
        lambda x_T, cond, mix, sched, reward: run_resampling(x_T, cond, mix, CFG, sched, seed=3), (100, 0, 0)
    ),
    "zsampling": (
        lambda x_T, cond, mix, sched, reward: run_zsampling(x_T, cond, mix, CFG, sched, seed=3), (150, 0, 0)
    ),
    "sop": (
        lambda x_T, cond, mix, sched, reward: run_sop(x_T, cond, mix, CFG, sched, reward, 4, seed=3),
        (446, 250, 0),
    ),
    "sop-n1": (
        lambda x_T, cond, mix, sched, reward: run_sop(x_T, cond, mix, CFG, sched, reward, 1, seed=3),
        (149, 100, 0),
    ),
    "ctrlz": (
        lambda x_T, cond, mix, sched, reward: run_ctrlz(x_T, cond, mix, CFG, sched, reward, default_params(), seed=3),
        None,
    ),
    "ctrlz-always": (
        lambda x_T, cond, mix, sched, reward: run_ctrlz(x_T, cond, mix, CFG, sched, reward, ALWAYS_SHALLOW, seed=3),
        (149, 100, 50),
    ),
}


@pytest.mark.parametrize("case", sorted(RUNNERS))
def test_reported_counts_equal_calls(case, sched50, two_mode_mix, balanced_cond, two_mode_reward, monkeypatch):
    assert sched50.num_steps == 50, "the table's counts are for T = 50"
    run, counts = RUNNERS[case]
    # Count the calls themselves, so the oracle does not depend on the run's own counters.
    calls = {"predict": 0, "score": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(samplers_mod, "predict", counting("predict", samplers_mod.predict))
    monkeypatch.setattr(samplers_mod, "score", counting("score", samplers_mod.score))
    # From this start, ctrlz explores 16 times and ends both on the threshold and at the depth cap.
    res = run(start_state(sched50, 3), balanced_cond, two_mode_mix, sched50, two_mode_reward)
    assert (res.nfe_total, res.reward_calls) == (calls["predict"], calls["score"])
    if counts is not None:
        assert (res.nfe_total, res.reward_calls, len(res.events)) == counts
    assert res.nfe_avg == res.nfe_total / 50
    if not calls["score"]:
        assert res.reward_trace == []
    assert run(start_state(sched50, 3), balanced_cond, two_mode_mix, sched50, two_mode_reward) == res


def test_ctrlz_zero_window_is_bitwise_ddim(sched50, two_mode_mix, balanced_cond, two_mode_reward):
    x_T = start_state(sched50)
    res = run_ctrlz(x_T, balanced_cond, two_mode_mix, CFG, sched50, two_mode_reward, default_params(window=0), seed=7)
    ref = run_ddim(x_T, balanced_cond, two_mode_mix, CFG, sched50, seed=7)
    assert res == ref


def test_ctrlz_first_step_never_triggers_reward_based(sched50, two_mode_mix, balanced_cond, two_mode_reward):
    params = default_params(window=50)
    res = run_ctrlz(start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, two_mode_reward, params, seed=7)
    assert all(ev.t != 50 for ev in res.events)


def test_ctrlz_window_semantics_and_reward_accounting(sched50, two_mode_mix, balanced_cond, two_mode_reward):
    params = default_params(window=12)
    res = run_ctrlz(start_state(sched50, 5), balanced_cond, two_mode_mix, CFG, sched50, two_mode_reward, params, seed=7)
    assert res.events, "this start should explore inside the window"
    assert all(ev.t > 50 - 12 for ev in res.events)
    candidate_calls = sum(ev.candidates_evaluated for ev in res.events)
    assert res.reward_calls == 12 + candidate_calls
    assert len(res.reward_trace) == 12


def test_ctrlz_nfe_matches_closed_form(sched50, two_mode_mix, balanced_cond, two_mode_reward):
    params = default_params()
    res = run_ctrlz(
        start_state(sched50, 3), balanced_cond, two_mode_mix, CFG, sched50, two_mode_reward, params, seed=11
    )
    assert {ev.terminated_by for ev in res.events} == set(TerminatedBy)
    extra = 0
    for ev in res.events:
        for j in range(1, ev.depths_tried + 1):
            delta = min(j, 50 - ev.t)
            extra += params.n_candidates * (delta + 1)
    assert res.nfe_total == 50 + extra


def test_ctrlz_event_invariants(sched50, two_mode_mix, balanced_cond, two_mode_reward):
    params = default_params()
    events = []
    for seed in range(10):
        res = run_ctrlz(
            start_state(sched50, seed), balanced_cond, two_mode_mix, CFG,
            sched50, two_mode_reward, params, seed=seed,
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


def test_ctrlz_unreachable_threshold_always_hits_depth_cap(sched50, two_mode_mix, balanced_cond, two_mode_reward):
    params = default_params(window=10, threshold=1e6, max_depth=2, n_candidates=2)
    res = run_ctrlz(start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, two_mode_reward, params, seed=7)
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
    res = run_ctrlz(start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, flat, params, seed=7)
    assert res.reward_trace == [0.0] * 10
    assert len(res.events) == 9
    for ev in res.events:
        assert ev.terminated_by is TerminatedBy.DEPTH_CAP
        assert ev.depths_tried == 2


def test_ctrlz_run_order_does_not_change_results(sched50, two_mode_mix, balanced_cond, two_mode_reward):
    params = default_params()
    alone = run_ctrlz(start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, two_mode_reward, params, seed=21)
    run_ctrlz(start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, two_mode_reward, params, seed=22)
    after = run_ctrlz(start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, two_mode_reward, params, seed=21)
    assert after == alone


def test_ctrlz_random_policy_edge_probabilities(sched50, two_mode_mix, balanced_cond, two_mode_reward):
    x_T = start_state(sched50)
    never = run_ctrlz(
        x_T, balanced_cond, two_mode_mix, CFG, sched50, two_mode_reward,
        default_params(initiation=InitiationPolicy.RANDOM, random_p=0.0), seed=7,
    )
    ref = run_ddim(x_T, balanced_cond, two_mode_mix, CFG, sched50, seed=7)
    assert never == ref
    surely = run_ctrlz(
        x_T, balanced_cond, two_mode_mix, CFG, sched50, two_mode_reward,
        default_params(initiation=InitiationPolicy.RANDOM, random_p=1.0), seed=7,
    )
    always = run_ctrlz(
        x_T, balanced_cond, two_mode_mix, CFG, sched50, two_mode_reward,
        default_params(initiation=InitiationPolicy.ALWAYS), seed=7,
    )
    # Identical search behavior; only the recorded trigger cause differs.
    assert np.array_equal(surely.x0, always.x0)
    assert surely.reward_trace == always.reward_trace
    assert (surely.nfe_total, surely.reward_calls) == (always.nfe_total, always.reward_calls)
    assert len(surely.events) == len(always.events) == 40
    assert all(ev.trigger == "random" for ev in surely.events)
    assert all(ev.trigger == "always" for ev in always.events)


def test_ctrlz_rejects_bad_arguments(sched50, two_mode_mix, balanced_cond, two_mode_reward):
    with pytest.raises(ValueError):
        run_ctrlz(start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, None, default_params(), seed=7)
    with pytest.raises(ValueError):
        run_ctrlz(
            start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, two_mode_reward,
            default_params(window=51), seed=7,
        )
    with pytest.raises(ValueError):
        run_sop(start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, None, 4, seed=7)
    with pytest.raises(ValueError):
        run_sop(start_state(sched50), balanced_cond, two_mode_mix, CFG, sched50, two_mode_reward, 0, seed=7)
    for field, value in (("window", -1), ("n_candidates", 0), ("max_depth", 0), ("random_p", 1.5)):
        with pytest.raises(ValueError) as err:
            CtrlZParams(**{field: value})
        assert err.value.field == field
    for field in ("window", "max_depth", "n_candidates"):
        for value in (2.5, "4", True):
            with pytest.raises(ValueError, match=field) as err:
                CtrlZParams(**{field: value})
            assert err.value.field == field
    for field in ("threshold", "random_p"):
        for value in (True, "x"):
            with pytest.raises(ValueError, match=field) as err:
                CtrlZParams(**{field: value})
            assert err.value.field == field


def test_ctrlz_params_numeric_knobs_follow_one_rule():
    # threshold and random_p share finite_number; the integer knobs share the config's integer test.
    assert CtrlZParams(random_p=np.float64(0.5)) == CtrlZParams(random_p=0.5)
    assert CtrlZParams(threshold=np.float64(0.5)) == CtrlZParams(threshold=0.5)
    for field in ("window", "max_depth", "n_candidates"):
        with pytest.raises(ConfigError, match=f"^{field}: must be an integer"):
            CtrlZParams(**{field: np.int64(2)})
    with pytest.raises(ConfigError, match="^random_p: must be a number in"):
        CtrlZParams(random_p=math.nan)
    with pytest.raises(TypeError):
        CtrlZParams(guidance=CFG)


def test_ctrlz_params_take_enum_values(sched50, two_mode_mix, balanced_cond, two_mode_reward):
    g_pp = GuidanceConfig(2.5, GuidanceMode.CFG_PLUS_PLUS)
    pairs = [
        (CFG, {"initiation": "always"}, {"initiation": InitiationPolicy.ALWAYS}),
        (
            g_pp,
            {"exploration_guidance": "cfg_in_exploration"},
            {"exploration_guidance": ExplorationGuidance.CFG_IN_EXPLORATION},
        ),
    ]
    x_T = start_state(sched50)
    for guidance, by_value, by_member in pairs:
        a, b = default_params(**by_value), default_params(**by_member)
        assert a == b
        assert run_ctrlz(x_T, balanced_cond, two_mode_mix, guidance, sched50, two_mode_reward, a, seed=7) == run_ctrlz(
            x_T, balanced_cond, two_mode_mix, guidance, sched50, two_mode_reward, b, seed=7
        )


ENUM_FIELDS = {
    "mode": lambda value: GuidanceConfig(2.0, value),
    "initiation": lambda value: CtrlZParams(initiation=value),
    "exploration_guidance": lambda value: CtrlZParams(exploration_guidance=value),
}


@pytest.mark.parametrize("value", ["pag", ["cfg"], None], ids=["str", "list", "none"])
@pytest.mark.parametrize("field", sorted(ENUM_FIELDS))
def test_enum_fields_reject_other_values(field, value):
    with pytest.raises(ConfigError, match=f"^{field}: unknown value") as err:
        ENUM_FIELDS[field](value)
    assert err.value.field == field


def test_ctrlz_threshold_beyond_the_float_range_is_a_config_error():
    for threshold in (10**400, -(10**400)):
        with pytest.raises(ConfigError) as err:
            CtrlZParams(threshold=threshold)
        assert err.value.field == "threshold"


@pytest.mark.parametrize("case", sorted(RUNNERS))
def test_samplers_reject_misplaced_start(case, sched50, two_mode_mix, balanced_cond, two_mode_reward):
    bad = LatentState(np.zeros(2), 10)
    with pytest.raises(ValueError, match="start state must sit at level 50, got 10"):
        RUNNERS[case][0](bad, balanced_cond, two_mode_mix, sched50, two_mode_reward)


def test_cfg_plus_plus_changes_trajectories(sched50, two_mode_mix, balanced_cond):
    x_T = start_state(sched50)
    g_cfg = GuidanceConfig(2.5, GuidanceMode.CFG)
    g_pp = GuidanceConfig(2.5, GuidanceMode.CFG_PLUS_PLUS)
    a = run_ddim(x_T, balanced_cond, two_mode_mix, g_cfg, sched50)
    b = run_ddim(x_T, balanced_cond, two_mode_mix, g_pp, sched50)
    assert not np.array_equal(a.x0, b.x0)


def test_ctrlz_partial_cfg_mode_differs_from_same(sched50, two_mode_mix, balanced_cond, two_mode_reward):
    x_T = start_state(sched50)
    g_pp = GuidanceConfig(2.5, GuidanceMode.CFG_PLUS_PLUS)
    same = run_ctrlz(
        x_T, balanced_cond, two_mode_mix, g_pp, sched50, two_mode_reward,
        default_params(), seed=7,
    )
    hybrid = run_ctrlz(
        x_T, balanced_cond, two_mode_mix, g_pp, sched50, two_mode_reward,
        default_params(exploration_guidance=ExplorationGuidance.CFG_IN_EXPLORATION), seed=7,
    )
    assert not np.array_equal(same.x0, hybrid.x0)
