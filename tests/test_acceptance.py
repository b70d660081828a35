"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The experiment battery (two-mode landscape, 200 paired seeds, frozen
master seed) is shared across criteria through module-scoped fixtures.
"""

import json
import math
import time

import numpy as np
import pytest

from ctrlz import (
    Condition,
    CtrlZParams,
    EvalContext,
    GaussianMixture,
    GuidanceConfig,
    GuidanceMode,
    InitiationPolicy,
    LatentState,
    NegDistance,
    build_linear_schedule,
    clean_estimate,
    exact_epsilon,
    keyed_rng,
    run_ctrlz,
    run_ddim,
    run_resampling,
    run_sop,
    run_zsampling,
    subsample,
)
from ctrlz.harness import StrategyConfig, compare, parse_config, run_experiment, write_outputs

MASTER_SEED = 20260810
RUNS = 200
OMEGA = 2.0
CFG = GuidanceConfig(1.0, GuidanceMode.CFG)

NEG_DISTANCE = {"kind": "neg_distance", "target": [3.0, 0.0]}
PLATEAU = {
    "kind": "plateau",
    "target": [3.0, 0.0],
    "inner_radius": 3.5,
    "outer_radius": 7.0,
    "plateau_value": 0.0,
    "peak_value": 1.0,
}


def report(criterion: str, description: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{criterion}] {description}: {status} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"{criterion} failed: {description}"
    assert elapsed < budget, f"{criterion} exceeded runtime budget ({elapsed:.1f}s >= {budget}s)"


def sign_test_p(diffs: np.ndarray) -> float:
    """One-sided exact binomial p-value that positive differences dominate."""
    pos = int(np.sum(diffs > 0))
    neg = int(np.sum(diffs < 0))
    n = pos + neg
    if n == 0:
        return 1.0
    return sum(math.comb(n, k) for k in range(pos, n + 1)) / 2.0**n


def landscape_config(reward, *, dmax=3, n=4, window=40, policy="reward_based", random_p=0.5):
    return parse_config(
        {
            "schedule": {"train_steps": 1000, "infer_steps": 50, "beta_start": 1e-4, "beta_end": 0.02},
            "mixture": {
                "weights": [0.8, 0.2],
                "means": [[-3.0, 0.0], [3.0, 0.0]],
                "scales": [0.7, 0.7],
            },
            "condition": {"kind": "reweight", "weights": [0.5, 0.5]},
            "reward": reward,
            "guidance": {"omega": OMEGA, "mode": "cfg"},
            "strategy": {
                "name": "ctrlz",
                "window": window,
                "threshold": 0.0,
                "max_depth": dmax,
                "n_candidates": n,
                "initiation": policy,
                "random_p": random_p,
            },
            "seeds": {"master_seed": MASTER_SEED, "runs": RUNS},
            "escape": {"target": [3.0, 0.0], "radius": 1.0},
        }
    )


@pytest.fixture(scope="module")
def sampler_setup(sched50, two_mode_mix, balanced_cond):
    x_T = LatentState(keyed_rng(MASTER_SEED, 0).standard_normal(2), 50)
    reward = NegDistance(np.array([3.0, 0.0]))
    return sched50, two_mode_mix, balanced_cond, x_T, reward


@pytest.fixture(scope="module")
def ddim_outcome():
    return run_experiment(landscape_config(NEG_DISTANCE), StrategyConfig("ddim", {}))


@pytest.fixture(scope="module")
def ctrlz_cells():
    cells = {}
    for dmax, n in [(1, 1), (1, 2), (1, 4), (2, 4), (3, 4)]:
        cells[(dmax, n)] = run_experiment(landscape_config(NEG_DISTANCE, dmax=dmax, n=n))
    return cells


@pytest.fixture(scope="module")
def ddim_escape_oracle(sched50):
    """Brute-force escape-rate estimate: an independent vectorized rewrite of
    the guided deterministic flow over 2000 fresh initial noises."""
    w_uncond = np.array([0.8, 0.2])
    w_cond = np.array([0.5, 0.5])
    means = np.array([[-3.0, 0.0], [3.0, 0.0]])
    s2 = np.array([0.7, 0.7]) ** 2

    def batch_eps(x, ab, w):
        m = math.sqrt(ab) * means
        v = ab * s2 + (1.0 - ab)
        diff = m[None, :, :] - x[:, None, :]
        sq = np.sum(diff * diff, axis=2)
        logit = np.log(w)[None, :] - 0.5 * (2 * np.log(2 * math.pi * v)[None, :] + sq / v[None, :])
        logit -= logit.max(axis=1, keepdims=True)
        g = np.exp(logit)
        g /= g.sum(axis=1, keepdims=True)
        return -math.sqrt(1.0 - ab) * np.einsum("nk,nkd->nd", g / v[None, :], diff)

    x = np.random.default_rng(99).standard_normal((2000, 2))
    for t in range(50, 0, -1):
        ab_t = sched50.alpha_bars[t]
        ab_p = sched50.alpha_bars[t - 1]
        e_u = batch_eps(x, ab_t, w_uncond)
        eps = e_u + OMEGA * (batch_eps(x, ab_t, w_cond) - e_u)
        x0 = (x - math.sqrt(1 - ab_t) * eps) / math.sqrt(ab_t)
        x = math.sqrt(ab_p) * x0 + math.sqrt(1 - ab_p) * eps
    return float(np.mean(np.linalg.norm(x - [3.0, 0.0], axis=1) <= 1.0))


def test_a1_nfe_accounting(sampler_setup):
    t0 = time.time()
    sched, mix, cond, x_T, reward = sampler_setup
    ddim = run_ddim(EvalContext(), x_T, cond, mix, CFG, sched)
    resampling = run_resampling(EvalContext(), x_T, cond, mix, CFG, sched, seed=1)
    zsampling = run_zsampling(EvalContext(), x_T, cond, mix, CFG, sched, seed=1)
    sop1 = run_sop(EvalContext(), x_T, cond, mix, CFG, sched, reward, 1, seed=1)
    sop4 = run_sop(EvalContext(), x_T, cond, mix, CFG, sched, reward, 4, seed=1)
    ok = (
        ddim.nfe_avg == 1.0
        and resampling.nfe_avg == 2.0
        and zsampling.nfe_avg == 3.0
        and abs(sop1.nfe_avg - 3.0) <= 0.2
        and abs(sop4.nfe_avg - 9.0) <= 0.2
    )
    report("A1", "per-step forward-pass averages match the reference table", ok, time.time() - t0, 1.0)


def test_a2_ctrlz_deterministic_nfe_identity(sampler_setup):
    t0 = time.time()
    sched, mix, cond, x_T, reward = sampler_setup
    params = CtrlZParams(
        window=50, threshold=0.0, max_depth=1, n_candidates=1,
        initiation=InitiationPolicy.ALWAYS, guidance=CFG,
    )
    res = run_ctrlz(EvalContext(), x_T, cond, mix, sched, reward, params, seed=MASTER_SEED)
    ok = res.nfe_total == 149 and res.nfe_avg == pytest.approx(2.98)
    report("A2", "always-on shallow search costs exactly 149 passes", ok, time.time() - t0, 1.0)


def test_a3_posterior_mean_oracle(sched50):
    t0 = time.time()
    rng = np.random.default_rng(314)
    worst_single = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        mu = rng.uniform(-4, 4, size=d)
        s = float(rng.uniform(0.3, 2.5))
        mix = GaussianMixture(np.array([1.0]), mu[None, :], np.array([s]))
        t = int(rng.integers(1, 51))
        ab = sched50.alpha_bars[t]
        x = LatentState(rng.uniform(-6, 6, size=d), t)
        got = clean_estimate(x, exact_epsilon(x, Condition.unconditional(), mix, sched50), sched50)
        v = ab * s**2 + (1 - ab)
        expected = mu + (math.sqrt(ab) * s**2 / v) * (x.x - math.sqrt(ab) * mu)
        worst_single = max(
            worst_single, float(np.max(np.abs(got - expected)) / max(1.0, np.max(np.abs(expected))))
        )

    worst_multi = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        w = rng.uniform(0.05, 1.0, size=k)
        w /= w.sum()
        mus = rng.uniform(-4, 4, size=(k, d))
        s = rng.uniform(0.3, 2.5, size=k)
        mix = GaussianMixture(w, mus, s)
        t = int(rng.integers(1, 51))
        ab = sched50.alpha_bars[t]
        x = LatentState(rng.uniform(-6, 6, size=d), t)
        got = clean_estimate(x, exact_epsilon(x, Condition.unconditional(), mix, sched50), sched50)
        dens = np.empty(k)
        post = np.empty((k, d))
        for i in range(k):
            m = math.sqrt(ab) * mus[i]
            v = ab * s[i] ** 2 + (1 - ab)
            gap = x.x - m
            dens[i] = w[i] * math.exp(-gap @ gap / (2 * v)) / (2 * math.pi * v) ** (d / 2)
            post[i] = mus[i] + (math.sqrt(ab) * s[i] ** 2 / v) * gap
        expected = (dens / dens.sum()) @ post
        worst_multi = max(
            worst_multi, float(np.max(np.abs(got - expected)) / max(1.0, np.max(np.abs(expected))))
        )
    ok = worst_single <= 1e-9 and worst_multi <= 1e-9
    report("A3", "clean estimates equal closed-form posterior means", ok, time.time() - t0, 5.0)


def test_a4_inversion_marginal_statistics(sched50):
    t0 = time.time()
    n = 100_000
    rng = np.random.default_rng(2718)
    x0 = np.array([1.5, -0.8])
    ok = True
    for t in (5, 20, 40):
        for delta in (1, 5, 10):
            ab_t = sched50.alpha_bars[t]
            ab_up = sched50.alpha_bars[t + delta]
            x_t = math.sqrt(ab_t) * x0 + math.sqrt(1 - ab_t) * rng.standard_normal((n, 2))
            ratio = ab_up / ab_t
            x_up = math.sqrt(ratio) * x_t + math.sqrt(1 - ratio) * rng.standard_normal((n, 2))
            mean_se = math.sqrt((1 - ab_up) / n)
            var_se = (1 - ab_up) * math.sqrt(2 / (n - 1))
            mean_err = np.abs(x_up.mean(axis=0) - math.sqrt(ab_up) * x0)
            var_err = np.abs(x_up.var(axis=0, ddof=1) - (1 - ab_up))
            ok = ok and np.all(mean_err <= 4 * mean_se) and np.all(var_err <= 4 * var_se)
    report("A4", "re-noised states match forward marginal moments", ok, time.time() - t0, 10.0)


def test_a5_escape_rate_experiment(ddim_escape_oracle, ddim_outcome, ctrlz_cells):
    t0 = time.time()
    oracle = ddim_escape_oracle
    harness_ddim = ddim_outcome.stats.escape_rate
    ctrlz_escape = ctrlz_cells[(3, 4)].stats.escape_rate

    plateau_cfg = landscape_config(PLATEAU)
    plateau_ctrlz = run_experiment(plateau_cfg).stats.escape_rate
    plateau_sop = run_experiment(plateau_cfg, StrategyConfig("sop", {"n_candidates": 4})).stats.escape_rate

    ok = (
        abs(harness_ddim - oracle) <= 0.05
        and ctrlz_escape >= oracle + 0.25
        and plateau_ctrlz >= plateau_sop - 0.02
    )
    print(
        f"    oracle ddim={oracle:.3f}, harness ddim={harness_ddim:.3f}, ctrlz={ctrlz_escape:.3f}, "
        f"plateau ctrlz={plateau_ctrlz:.3f} vs sop4={plateau_sop:.3f}"
    )
    report("A5", "adaptive search escapes the misaligned basin", ok, time.time() - t0, 120.0)


def test_a6_depth_width_scaling_trend(ctrlz_cells):
    t0 = time.time()
    pairs = [
        ((1, 4), (2, 4), "depth 1->2"),
        ((2, 4), (3, 4), "depth 2->3"),
        ((1, 1), (1, 2), "width 1->2"),
        ((1, 2), (1, 4), "width 2->4"),
    ]
    ok = True
    for lo, hi, tag in pairs:
        diffs = np.array(ctrlz_cells[hi].final_rewards) - np.array(ctrlz_cells[lo].final_rewards)
        p = sign_test_p(diffs)
        mean_lo = ctrlz_cells[lo].stats.mean_final_reward
        mean_hi = ctrlz_cells[hi].stats.mean_final_reward
        print(f"    {tag}: mean {mean_lo:+.4f} -> {mean_hi:+.4f}, sign-test p={p:.2e}")
        ok = ok and mean_hi >= mean_lo and p <= 0.05
    report("A6", "deeper and wider search both improve mean reward", ok, time.time() - t0, 300.0)


def test_a7_initiation_policy_ordering(ddim_outcome):
    t0 = time.time()
    always = run_experiment(landscape_config(NEG_DISTANCE, policy="always"))
    random_half = run_experiment(landscape_config(NEG_DISTANCE, policy="random", random_p=0.5))
    reward_narrow = run_experiment(landscape_config(NEG_DISTANCE, window=10))

    ordered = [
        ("always", always),
        ("random(0.5)", random_half),
        ("reward-based(window=10)", reward_narrow),
        ("ddim", ddim_outcome),
    ]
    for name, oc in ordered:
        print(f"    {name}: mean reward {oc.stats.mean_final_reward:+.4f}, nfe {oc.stats.mean_nfe_avg:.3f}")

    outer = sign_test_p(np.array(always.final_rewards) - np.array(ddim_outcome.final_rewards))
    ok = outer <= 0.05

    n = RUNS
    for (_, hi), (_, lo) in zip(ordered, ordered[1:]):
        pooled_se = math.sqrt(
            (hi.stats.std_final_reward**2 + lo.stats.std_final_reward**2) / n
        )
        ok = ok and hi.stats.mean_final_reward >= lo.stats.mean_final_reward - pooled_se

    nfes = [ddim_outcome.stats.mean_nfe_avg, random_half.stats.mean_nfe_avg, always.stats.mean_nfe_avg]
    ok = ok and nfes[0] < nfes[1] < nfes[2]
    print(f"    outer sign-test p={outer:.2e}; nfe chain {nfes[0]:.2f} < {nfes[1]:.2f} < {nfes[2]:.2f}")
    report("A7", "more frequent initiation raises reward and compute", ok, time.time() - t0, 300.0)


def test_a8_algorithm_invariant_suite(sampler_setup):
    t0 = time.time()
    sched, mix, cond, _, reward = sampler_setup
    ok = True
    events_seen = 0
    full = CtrlZParams(window=50, guidance=CFG)
    starts, alone = {}, {}
    for seed in range(12):
        x_T = starts[seed] = LatentState(keyed_rng(seed, 0).standard_normal(2), 50)
        params = CtrlZParams(window=0, guidance=CFG)
        res_zero = run_ctrlz(EvalContext(), x_T, cond, mix, sched, reward, params, seed=seed)
        ref = run_ddim(EvalContext(), x_T, cond, mix, CFG, sched, seed=seed)
        ok = ok and res_zero == ref

        res = alone[seed] = run_ctrlz(EvalContext(), x_T, cond, mix, sched, reward, full, seed=seed)
        ok = ok and all(ev.t != 50 for ev in res.events)
        ok = ok and all(ev.accepted_score >= ev.default_score for ev in res.events)
        events_seen += len(res.events)

    shared = EvalContext()
    for seed in reversed(range(12)):
        ok = ok and run_ctrlz(shared, starts[seed], cond, mix, sched, reward, full, seed=seed) == alone[seed]
    ok = ok and events_seen > 0
    report("A8", "window, dominance, first-step and run-order invariants hold", ok, time.time() - t0, 30.0)


def test_a9_harness_io(tmp_path):
    t0 = time.time()
    cfg = parse_config(
        {
            "schedule": {"train_steps": 1000, "infer_steps": 50, "beta_start": 1e-4, "beta_end": 0.02},
            "mixture": {"weights": [0.8, 0.2], "means": [[-3.0, 0.0], [3.0, 0.0]], "scales": [0.7, 0.7]},
            "condition": {"kind": "reweight", "weights": [0.5, 0.5]},
            "reward": NEG_DISTANCE,
            "guidance": {"omega": OMEGA, "mode": "cfg"},
            "strategy": {"name": "ddim"},
            "seeds": {"master_seed": MASTER_SEED, "runs": 3},
            "escape": {"target": [3.0, 0.0], "radius": 1.0},
        }
    )
    names = ["ddim", "resampling", "zsampling"]
    outcomes = compare(cfg, names)
    write_outputs(tmp_path / "a", outcomes)
    write_outputs(tmp_path / "b", compare(cfg, names))

    stable = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("runs.csv", "events.jsonl", "summary.json", "histograms.csv")
    )
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    nfe_ok = (
        summary["ddim"]["mean_nfe_avg"] == 1.0
        and summary["resampling"]["mean_nfe_avg"] == 2.0
        and summary["zsampling"]["mean_nfe_avg"] == 3.0
    )
    rows = (tmp_path / "a" / "runs.csv").read_text().splitlines()[1:]
    csv_nfe = {}
    for row in rows:
        parts = row.split(",")
        csv_nfe.setdefault(parts[1], set()).add(parts[5])
    nfe_ok = nfe_ok and csv_nfe == {"ddim": {"1.0"}, "resampling": {"2.0"}, "zsampling": {"3.0"}}

    total_events = sum(len(r.events) for oc in outcomes.values() for r in oc.results)
    hist_rows = (tmp_path / "a" / "histograms.csv").read_text().splitlines()[1:]
    counted = sum(int(r.split(",")[2]) for r in hist_rows)
    reconciled = counted == 2 * total_events  # every event lands in both histograms

    ok = stable and nfe_ok and reconciled
    report("A9", "emitted files reproduce accounting and are byte-stable", ok, time.time() - t0, 10.0)
