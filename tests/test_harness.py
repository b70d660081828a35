import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctrlz
from ctrlz.cli import main as cli_main
from ctrlz.dynamics import GuidanceConfig
from ctrlz.harness import (
    STRATEGY_NAMES,
    ConfigError,
    StrategyConfig,
    compare,
    parse_config,
    run_experiment,
    sweep,
    write_outputs,
)
from ctrlz.models import Condition, GaussianMixture
from ctrlz.rewards import LogDensity, NegDistance, Plateau
from ctrlz.schedule import NoiseSchedule

from conftest import landscape_config, shipped_doc


def base_doc(**overrides):
    """The shipped two-mode landscape on a short schedule, with a small search and few runs."""
    return {
        **shipped_doc(),
        "schedule": {"train_steps": 200, "infer_steps": 20, "beta_start": 1e-4, "beta_end": 0.02},
        "strategy": {"name": "ctrlz", "window": 15, "threshold": 0.0, "max_depth": 2, "n_candidates": 2},
        "seeds": {"master_seed": 5, "runs": 4},
        **overrides,
    }


PLATEAU = {"kind": "plateau", "target": [3.0, 0.0], "inner_radius": 1.0, "outer_radius": 2.0}


def refuse_allocation(num_steps, beta_start, beta_end):
    raise MemoryError(f"Unable to allocate {num_steps * 8 / 2**30:.0f} GiB for {num_steps} float64 betas")


# The test swaps in refuse_allocation for this case, so no test allocates 745 GiB to see it fail.
OUT_OF_MEMORY = lambda d: d["schedule"].update(train_steps=10**11)  # noqa: E731


def bad_mean_entry(value):
    """Make the means two 1024-entry rows, with ``value`` at index 700 of the first."""

    def mutate(d):
        row = [0.5] * 1024
        row[700] = value
        d["mixture"].update(means=[row, [-0.5] * 1024])

    return mutate


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda d: d.pop("mixture"), "config.mixture"),
        (lambda d: d["mixture"].update(weights=[0.5, 0.6]), "config.mixture.weights"),
        (lambda d: d["mixture"].update(scales=[0.7]), "config.mixture.scales"),
        (lambda d: d["schedule"].update(infer_steps=500), "config.schedule.infer_steps"),
        (lambda d: d["strategy"].update(name="beam"), "config.strategy.name"),
        (lambda d: d["reward"].update(kind="hpsv2"), "config.reward.kind"),
        (lambda d: d["condition"].update(kind="reweight", weights=[1.0]), "config.condition.weights"),
        (lambda d: d["seeds"].update(runs=0), "config.seeds.runs"),
        (lambda d: d["escape"].update(target=[1.0]), "config.escape.target"),
        (lambda d: d["guidance"].update(mode="pag"), "config.guidance.mode"),
        pytest.param(lambda d: d["guidance"].update(omega=math.inf), "config.guidance.omega", id="omega-inf"),
        pytest.param(lambda d: d["guidance"].update(omega=math.nan), "config.guidance.omega", id="omega-nan"),
        pytest.param(
            lambda d: d["mixture"]["means"][1].__setitem__(0, math.inf), "config.mixture.means[1][0]", id="mean-inf"
        ),
        pytest.param(lambda d: d["mixture"].update(scales=[0.7, math.inf]), "config.mixture.scales[1]", id="scale-inf"),
        # One bad entry in a long row of floats, which _vector checks in one pass, is still named by its index.
        *(
            pytest.param(bad_mean_entry(value), "config.mixture.means[0][700]", id=f"mean-700-{name}")
            for name, value in [("bool", True), ("str", "x"), ("none", None), ("nan", math.nan), ("int-10e309", 10**309)]
        ),
        pytest.param(lambda d: d["mixture"].update(means="ab"), "config.mixture.means", id="means-string"),
        pytest.param(lambda d: d["reward"].update(target=[math.inf, 0.0]), "config.reward.target[0]", id="target-inf"),
        pytest.param(
            lambda d: d["mixture"].update(weights=[0.8 + 1e-10, 0.2]), "config.mixture.weights", id="weight-sum-1e-10"
        ),
        pytest.param(
            lambda d: d["condition"].update(weights=[0.5 + 1e-10, 0.5]), "config.condition.weights", id="cond-sum-1e-10"
        ),
        pytest.param(
            lambda d: d.update(condition={"kind": "component", "component": True}),
            "config.condition.component",
            id="component-bool",
        ),
        pytest.param(lambda d: d["schedule"].update(infer_step=20), "config.schedule.infer_step", id="schedule-typo"),
        pytest.param(lambda d: d.update(guidence={"omega": 2.0}), "config.guidence", id="unknown-section"),
        pytest.param(
            lambda d: d["schedule"].update(train_steps=1000, infer_steps=50, beta_start=0.5, beta_end=0.99),
            "config.schedule.beta_start",
            id="alpha-bar-underflow",
        ),
        pytest.param(lambda d: d["schedule"].update(beta_end=1.0), "config.schedule.beta_end", id="beta-end-at-one"),
        pytest.param(
            lambda d: d["schedule"].update(train_steps=10**30), "config.schedule.train_steps", id="train-steps-beyond-numpy"
        ),
        pytest.param(
            lambda d: d["schedule"].update(train_steps=2**63), "config.schedule.train_steps", id="train-steps-beyond-int64"
        ),
        pytest.param(OUT_OF_MEMORY, "config.schedule.train_steps", id="train-steps-out-of-memory"),
        pytest.param(
            lambda d: d.update(condition={"kind": "unconditional", "weights": "junk"}),
            "config.condition.weights",
            id="unconditional-weights",
        ),
        pytest.param(
            lambda d: d["condition"].update(component="x"), "config.condition.component", id="reweight-component"
        ),
        pytest.param(
            lambda d: d.update(reward={"kind": "log_density", "target": "junk"}),
            "config.reward.target",
            id="log-density-target",
        ),
        pytest.param(lambda d: d["seeds"].update(master_seed=2**64), "config.seeds.master_seed", id="seed-beyond-u64"),
        # Range checks that the domain constructors make; the harness names the field.
        pytest.param(lambda d: d["mixture"].update(scales=[0.7, 1e151]), "config.mixture.scales", id="scale-above-cap"),
        pytest.param(lambda d: d["mixture"].update(scales=[0.0, 0.7]), "config.mixture.scales", id="scale-zero"),
        pytest.param(
            lambda d: d["mixture"].update(scales=[1e-200, 0.7]), "config.mixture.scales", id="scale-square-underflows"
        ),
        pytest.param(lambda d: d["mixture"].update(weights=[1.0, 0.0]), "config.mixture.weights", id="weight-zero"),
        pytest.param(
            lambda d: d["condition"].update(weights=[1.5, -0.5]), "config.condition.weights", id="cond-weight-negative"
        ),
        pytest.param(lambda d: d["guidance"].update(omega=-1), "config.guidance.omega", id="omega-negative"),
        pytest.param(
            lambda d: d.update(reward={**PLATEAU, "inner_radius": 2.0, "outer_radius": 2.0}),
            "config.reward.inner_radius",
            id="plateau-radii",
        ),
        pytest.param(
            lambda d: d.update(reward={**PLATEAU, "plateau_value": 1.0, "peak_value": 1.0}),
            "config.reward.plateau_value",
            id="plateau-values",
        ),
        pytest.param(
            lambda d: d["reward"].update(inner_radius=1.0), "config.reward.inner_radius", id="neg-distance-inner-radius"
        ),
    ],
)
def test_parse_config_names_offending_field(mutate, field, monkeypatch):
    if mutate is OUT_OF_MEMORY:
        monkeypatch.setattr(ctrlz.harness, "build_linear_schedule", refuse_allocation)
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.field == field


def test_integer_means_build_the_mixture_of_their_float_spelling():
    floats = parse_config(base_doc()).build()[1]
    doc = base_doc()
    doc["mixture"].update(means=[[-3, 0], [3, 0]])
    ints = parse_config(doc).build()[1]
    assert floats.means.tolist() == [[-3.0, 0.0], [3.0, 0.0]]
    for name in ("weights", "means", "scales"):
        a, b = getattr(ints, name), getattr(floats, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_escape_defaults_to_unit_radius_around_reward_target():
    doc = base_doc()
    del doc["escape"]
    cfg = parse_config(doc)
    assert cfg.escape is not None
    assert cfg.escape.target == (3.0, 0.0)
    assert cfg.escape.radius == 1.0


def test_plateau_defaults_come_from_its_type():
    cfg = parse_config(base_doc(reward={"kind": "plateau", "target": [3.0, 0.0]}))
    reward = cfg.build()[3]
    assert isinstance(reward, Plateau)
    assert reward.target.tolist() == [3.0, 0.0]
    assert (reward.inner_radius, reward.outer_radius, reward.plateau_value, reward.peak_value) == (1.0, 2.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "reward,key,message",
    [
        ({"kind": "log_density", "mix": 1}, "mix", "unknown key"),  # LogDensity's mixture is the mixture section's
        ({"kind": "plateau", "target": [3.0, 0.0], "radius": 1.0}, "radius", "unknown key"),
        ({"kind": "neg_distance", "target": [3.0, 0.0], "peak_value": 1.0}, "peak_value", "not read by kind"),
    ],
)
def test_reward_keys_are_its_types_fields(reward, key, message):
    with pytest.raises(ConfigError) as err:
        parse_config(base_doc(reward=reward))
    assert err.value.field == f"config.reward.{key}"
    assert message in str(err.value)


def test_guidance_defaults_and_keys_are_its_types():
    doc = base_doc()
    del doc["guidance"]
    assert parse_config(doc).build()[4] == GuidanceConfig()
    with pytest.raises(ConfigError) as err:
        parse_config(base_doc(guidance={"omega": 2.0, "scale": 1.0}))
    assert err.value.field == "config.guidance.scale"
    assert "unknown key" in str(err.value)


def test_guidance_range_error_keeps_the_types_message():
    with pytest.raises(ConfigError) as err:
        parse_config(base_doc(guidance={"omega": "x"}))
    assert str(err.value) == "config.guidance.omega: must be a finite number >= 0, got 'x'"


def test_run_experiment_is_deterministic():
    cfg = parse_config(base_doc())
    a = run_experiment(cfg)["ctrlz"]
    b = run_experiment(cfg)["ctrlz"]
    assert a.stats == b.stats
    assert a.results == b.results


def test_single_cell_sweep_matches_run_experiment():
    cfg = parse_config(base_doc())
    cell = sweep(cfg, [2], [2])["ctrlz[dmax=2,n=2]"]
    direct = run_experiment(cfg)["ctrlz"]
    assert cell.results == direct.results
    assert dataclasses.replace(cell.stats, strategy="ctrlz") == direct.stats


def test_sweep_requires_ctrlz_and_nonempty_grid():
    cfg = parse_config(base_doc(strategy={"name": "ddim"}))
    with pytest.raises(ConfigError):
        sweep(cfg, [1], [1])
    cfg2 = parse_config(base_doc())
    with pytest.raises(ConfigError):
        sweep(cfg2, [], [1])
    for dmax, n in (([0], [1]), ([1], [0]), ([1, -2], [1]), ([1], [True]), ([1, 1], [2]), ([1], [2, 2])):
        with pytest.raises(ConfigError) as err:
            sweep(cfg2, dmax, n)
        assert err.value.field == "grid"


def test_master_seed_accepts_every_u64():
    assert parse_config(base_doc(), master_seed=2**64 - 1).seeds.master_seed == 2**64 - 1


def test_paired_seeds_across_strategies_and_cells():
    cfg = parse_config(base_doc())
    outcomes = compare(cfg, ["ddim", "resampling", "ctrlz"])
    seed_lists = [[r.seed for r in oc.results] for oc in outcomes.values()]
    assert seed_lists[0] == seed_lists[1] == seed_lists[2]
    cells = sweep(cfg, [1, 2], [2])
    cell_seeds = [[r.seed for r in oc.results] for oc in cells.values()]
    assert all(s == cell_seeds[0] for s in cell_seeds)


def test_compare_checks_every_strategy_before_the_first_run(monkeypatch):
    # The config names sop, so ctrlz keeps its default window of 40, beyond these 20 steps.
    cfg = parse_config(base_doc(strategy={"name": "sop", "n_candidates": 2}))
    calls = []
    run_ddim = ctrlz.harness.run_ddim
    monkeypatch.setattr(ctrlz.harness, "run_ddim", lambda *args: calls.append(args) or run_ddim(*args))
    with pytest.raises(ConfigError) as err:
        compare(cfg, STRATEGY_NAMES)
    # The config has no window to edit; the strategy list is what the user can change.
    assert err.value.field == "strategies"
    assert "ctrlz's default window 40 exceeds the 20 sampling steps" in str(err.value)
    assert calls == []


def count_calls(monkeypatch, *names):
    """Wrap each named ``ctrlz.harness`` function to count its calls; returns the counts by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(ctrlz.harness, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(ctrlz.harness, name, counted)
    return calls


def test_compare_builds_the_domain_once_and_binds_each_strategy_once(monkeypatch):
    calls = count_calls(monkeypatch, "build_linear_schedule", "_sampler")
    cfg = parse_config(base_doc(), runs=1)
    ctrlz.models._level_table.cache_clear()
    ctrlz.models._log_weights.cache_clear()
    for _ in range(2):
        compare(cfg, STRATEGY_NAMES)
    # parse_config builds the schedule and checks the strategy; each compare binds each strategy once.
    assert calls == {"build_linear_schedule": 1, "_sampler": 1 + 2 * len(STRATEGY_NAMES)}
    # One level table per (mixture, schedule) and one log w per condition (the reweighted condition and
    # the unconditional branch), all shared by both compares. They hold K-vectors, never a (K, d) array.
    tables, log_ws = ctrlz.models._level_table.cache_info(), ctrlz.models._log_weights.cache_info()
    assert (tables.misses, tables.currsize) == (1, 1) and tables.hits > 0
    assert (log_ws.misses, log_ws.currsize) == (2, 2) and log_ws.hits > 0
    sched, mix, cond, _, _ = cfg.build()
    rows = ctrlz.models._level_table(mix, sched)
    assert len(rows) == sched.num_steps + 1
    log_w = [ctrlz.models._log_weights(mix, c) for c in (cond, ctrlz.models.UNCONDITIONAL)]
    for entry in (*log_w, *(value for row in rows for value in row)):
        assert entry.shape == (mix.n_components,) and not entry.flags.writeable


def test_parse_config_builds_the_domain_once_and_runs_reuse_it(monkeypatch):
    calls = count_calls(monkeypatch, "build_linear_schedule", "_sampler")
    cfg = parse_config(base_doc(), runs=1)
    assert calls == {"build_linear_schedule": 1, "_sampler": 1}
    run_experiment(cfg)
    compare(cfg, ["ddim", "sop"])
    sweep(cfg, [1, 2], [2])
    assert calls == {"build_linear_schedule": 1, "_sampler": 1 + 1 + 2 + 2}


@pytest.mark.parametrize("reward", [{"kind": "neg_distance", "target": [3.0, 0.0]}, {"kind": "log_density"}, PLATEAU])
def test_runs_construct_no_domain_object_after_parse_config(reward, monkeypatch):
    cfg = parse_config(base_doc(reward=reward), runs=2)
    sched, mix, cond, _, guidance = cfg.build()
    built = Counter()
    for cls in (NoiseSchedule, GaussianMixture, Condition, NegDistance, LogDensity, Plateau):
        init = cls.__init__

        def counted(self, *args, init=init, **kwargs):
            built[type(self).__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    passed = []
    for name in ("run_ddim", "run_resampling", "run_zsampling", "run_sop", "run_ctrlz"):
        run = getattr(ctrlz.harness, name)
        monkeypatch.setattr(ctrlz.harness, name, lambda *args, run=run: passed.append(args[1:5]) or run(*args))
    run_experiment(cfg)
    compare(cfg, STRATEGY_NAMES)
    sweep(cfg, [1, 2], [2])
    assert built == Counter()
    # (cond, mix, guidance, sched), in every run_* signature; samplers' own inversion guidance is theirs.
    assert len(passed) == 2 * (1 + len(STRATEGY_NAMES) + 2)
    assert all(a is b for args in passed for a, b in zip(args, (cond, mix, guidance, sched)))


@pytest.mark.parametrize("reward", [{"kind": "neg_distance", "target": [3.0, 0.0]}, {"kind": "log_density"}, PLATEAU])
@pytest.mark.parametrize(
    "condition",
    [{"kind": "unconditional"}, {"kind": "component", "component": 1}, {"kind": "reweight", "weights": [0.5, 0.5]}],
)
def test_bench_worker_set_up_calls_return_the_held_objects(reward, condition):
    # The calls bench/worker.py makes on each config it loads, in its order.
    cfg = parse_config(base_doc(reward=reward, condition=condition))
    sched, mix, cond, rew, guidance = cfg.build()
    assert cfg.strategy.params.get("workers", 1) == 1
    assert cfg.schedule.build() is sched
    worker_mix = cfg.mixture.build()
    assert worker_mix is mix
    assert cfg.condition.build() is cond
    assert cfg.reward.build(worker_mix) is rew
    assert cfg.build_guidance() is guidance


def test_compare_rejects_bad_strategy_lists():
    cfg = landscape_config(runs=2)
    with pytest.raises(ConfigError):
        compare(cfg, [])
    with pytest.raises(ConfigError):
        compare(cfg, ["mcts"])
    with pytest.raises(ConfigError) as err:
        compare(cfg, ["ddim", "ddim", "sop"])
    assert err.value.field == "strategies"
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg, {"mcts": StrategyConfig("mcts", {})})
    assert err.value.field == "config.strategy.name"


def read_outputs(out: Path) -> dict[str, bytes]:
    return {
        name: (out / name).read_bytes()
        for name in ("runs.csv", "events.jsonl", "summary.json", "histograms.csv")
    }


def test_outputs_are_byte_stable_and_reconciled(tmp_path):
    cfg = parse_config(base_doc())
    outcomes = compare(cfg, ["ddim", "ctrlz"])
    write_outputs(tmp_path / "a", outcomes)
    write_outputs(tmp_path / "b", compare(cfg, ["ddim", "ctrlz"]))
    assert read_outputs(tmp_path / "a") == read_outputs(tmp_path / "b")

    lines = (tmp_path / "a" / "runs.csv").read_text().splitlines()
    assert lines[0] == "run_index,strategy,final_reward,escaped,nfe_total,nfe_avg,reward_calls,seed"
    assert len(lines) == 1 + 2 * cfg.seeds.runs

    total_events = sum(len(r.events) for oc in outcomes.values() for r in oc.results)
    events_written = len((tmp_path / "a" / "events.jsonl").read_text().splitlines())
    assert events_written == total_events

    hist_rows = (tmp_path / "a" / "histograms.csv").read_text().splitlines()[1:]
    init_total = sum(int(r.split(",")[2]) for r in hist_rows if r.startswith("initiation,"))
    depth_total = sum(int(r.split(",")[2]) for r in hist_rows if r.startswith("depth,"))
    assert init_total == depth_total == total_events

    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert set(summary) == {"ddim", "ctrlz"}
    assert summary["ddim"]["mean_nfe_avg"] == 1.0
    for stats in summary.values():
        assert sum(stats["initiation_histogram"].values()) == sum(stats["depth_histogram"].values())


def test_histograms_reconcile_with_event_log(tmp_path):
    cfg = parse_config(base_doc())
    outcomes = run_experiment(cfg)
    write_outputs(tmp_path, outcomes)
    events = [json.loads(line) for line in (tmp_path / "events.jsonl").read_text().splitlines()]
    by_step: dict[str, int] = {}
    for ev in events:
        by_step[str(ev["t"])] = by_step.get(str(ev["t"]), 0) + 1
    assert by_step == outcomes["ctrlz"].stats.initiation_histogram


def write_config(tmp_path, doc) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_run_round_trip(tmp_path, capsys):
    path = write_config(tmp_path, base_doc())
    code = cli_main(["run", str(path), "--runs", "2", "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "runs.csv").exists()
    assert "ctrlz" in capsys.readouterr().out


def test_cli_compare_and_sweep(tmp_path, capsys):
    path = write_config(tmp_path, base_doc())
    assert cli_main(["compare", str(path), "--strategies", "ddim,zsampling", "--out", str(tmp_path / "cmp")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"results written to {tmp_path / 'cmp'}"
    rows = (tmp_path / "cmp" / "runs.csv").read_text().splitlines()
    strategies = {row.split(",")[1] for row in rows[1:]}
    assert strategies == {"ddim", "zsampling"}
    assert cli_main(["sweep", str(path), "--dmax", "1,2", "--n", "1", "--out", str(tmp_path / "sw")]) == 0
    summary = json.loads((tmp_path / "sw" / "summary.json").read_text())
    assert set(summary) == {"ctrlz[dmax=1,n=1]", "ctrlz[dmax=2,n=1]"}
    assert capsys.readouterr().out.splitlines()[-1] == f"results written to {tmp_path / 'sw'}"


def test_cli_rejects_a_depth_list_that_is_not_integers(tmp_path, capsys):
    path = write_config(tmp_path, base_doc())
    with pytest.raises(SystemExit) as err:
        cli_main(["sweep", str(path), "--dmax", "1,x", "--out", str(tmp_path / "sw")])
    assert err.value.code == 2
    assert "expected comma-separated integers, got '1,x'" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    doc = base_doc()
    doc["mixture"]["weights"] = [0.5, 0.6]
    path = write_config(tmp_path, doc)
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config.mixture.weights" in capsys.readouterr().err
    # compare gives ctrlz its default window of 40 when the config names another strategy.
    path = write_config(tmp_path, base_doc(strategy={"name": "ddim"}))
    assert cli_main(["compare", str(path), "--out", str(tmp_path / "cmp")]) == 2
    assert "config error: strategies: ctrlz's default window 40 exceeds the 20 sampling steps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config,out,field",
    [
        pytest.param("missing.json", "out", "config", id="missing-config"),
        pytest.param(".", "out", "config", id="config-is-directory"),
        pytest.param("latin1.json", "out", "config", id="config-not-utf8"),
        pytest.param("deep.json", "out", "config", id="config-too-deep"),
        pytest.param("list.json", "out", "config", id="config-not-an-object"),
        pytest.param("config.json", "config.json", "out", id="out-is-file"),
        pytest.param("config.json", "config.json/out", "out", id="out-under-file"),
        pytest.param("config.json", "taken", "out", id="out-file-is-directory"),
    ],
)
def test_cli_unreadable_config_or_out_exits_2(tmp_path, capsys, config, out, field):
    write_config(tmp_path, base_doc())
    (tmp_path / "taken" / "runs.csv").mkdir(parents=True)
    (tmp_path / "latin1.json").write_bytes(b'{"seeds": {"runs": "\xe9"}}')
    (tmp_path / "deep.json").write_text("[" * 100000)
    (tmp_path / "list.json").write_text("[]")
    assert cli_main(["run", str(tmp_path / config), "--out", str(tmp_path / out)]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "strategy,key",
    [
        ({"name": "ctrlz", "max_depth": 2.5}, "max_depth"),
        ({"name": "ctrlz", "n_candidates": 1.5}, "n_candidates"),
        ({"name": "ctrlz", "window": True}, "window"),
        ({"name": "ctrlz", "workers": 1}, "workers"),
        ({"name": "ctrlz", "max_dept": 3}, "max_dept"),
        ({"name": "ctrlz", "initiation": "sometimes"}, "sometimes"),
        ({"name": "ctrlz", "window": 21}, "config.strategy.window"),
        ({"name": "sop", "n_candidates": 0}, "config.strategy.n_candidates"),
        ({"name": "sop", "n_candidates": "4"}, "config.strategy.n_candidates"),
        ({"name": "zsampling", "inversion_omega": -1}, "config.strategy.inversion_omega"),
        ({"name": "zsampling", "inversion_omega": "x"}, "config.strategy.inversion_omega"),
        ({"name": "ddim", "window": 40}, "config.strategy.window"),
        pytest.param({"name": "ctrlz", "threshold": "x"}, "threshold", id="threshold-str"),
        pytest.param({"name": "ctrlz", "random_p": "x"}, "random_p", id="random_p-str"),
        pytest.param({"name": "ctrlz", "max_depth": 0}, "max_depth", id="max_depth-zero"),
        pytest.param({"name": "ctrlz", "guidance": {"omega": 1.0}}, "guidance", id="guidance"),
    ],
)
def test_cli_rejects_bad_strategy_parameters(tmp_path, capsys, strategy, key):
    path = write_config(tmp_path, base_doc(strategy=strategy))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert key in err
    (param,) = set(strategy) - {"name"}
    assert f"config error: config.strategy.{param}:" in err


@pytest.mark.parametrize(
    "flags,field",
    [
        (["--runs", "0"], "config.seeds.runs"),
        (["--runs", "-3"], "config.seeds.runs"),
        (["--seed", "-1"], "config.seeds.master_seed"),
        (["--seed", "18446744073709551616"], "config.seeds.master_seed"),
    ],
)
def test_cli_seed_overrides_are_validated(tmp_path, capsys, flags, field):
    path = write_config(tmp_path, base_doc())
    assert cli_main(["run", str(path), *flags, "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err


def test_cli_numeric_error_exit_code(tmp_path, capsys):
    doc = base_doc()
    doc["guidance"]["omega"] = 1e300
    doc["seeds"]["runs"] = 1
    path = write_config(tmp_path, doc)
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "numeric error" in capsys.readouterr().err


def test_cli_overflowing_summary_statistics_exit_3(tmp_path, capsys):
    # Each final reward is finite, but squaring their deviations overflows.
    doc = base_doc(reward={**PLATEAU, "inner_radius": 3.5, "outer_radius": 7.0, "peak_value": 1e200})
    doc["schedule"].update(train_steps=20, infer_steps=5)
    doc["strategy"]["window"] = 4
    path = write_config(tmp_path, doc)
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "numeric error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_cli_runs_a_config_whose_distance_over_variance_overflows(tmp_path, capsys):
    # Level 0's variance for the 1e-150 scale is 1e-300, so sq / var_t overflows to the right -inf logit.
    doc = base_doc(strategy={"name": "zsampling"}, seeds={"master_seed": 0, "runs": 2})
    doc["schedule"].update(infer_steps=10)
    doc["mixture"].update(means=[[-2e4, 0.0], [3.0, 0.0]], scales=[1e-150, 0.7])
    path = write_config(tmp_path, doc)
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"results written to {tmp_path / 'out'}"


def test_cli_table_stays_narrow_for_large_rewards(tmp_path, capsys):
    doc = shipped_doc("plateau_escape")
    doc["reward"]["peak_value"] = 1e100
    doc["schedule"]["infer_steps"] = 20
    doc["strategy"]["window"] = 10
    path = write_config(tmp_path, doc)
    assert cli_main(["run", str(path), "--runs", "2", "--out", str(tmp_path / "out")]) == 0
    table = capsys.readouterr().out.splitlines()[:-1]  # the last line names the output directory
    assert len(table) == 2
    assert all(len(line) < 80 for line in table), table


def test_cli_module_entry_point(tmp_path):
    path = write_config(tmp_path, base_doc())
    # The child imports the same ctrlz as this process, which pytest's pythonpath may have put on sys.path.
    src = str(Path(ctrlz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "ctrlz", "run", str(path), "--runs", "1", "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("broken", ["events-is-directory", "summary-write-fails"])
def test_failed_output_write_keeps_the_previous_set(tmp_path, capsys, monkeypatch, broken):
    path = write_config(tmp_path, base_doc(strategy={"name": "ddim"}))
    out = tmp_path / "out"
    assert cli_main(["run", str(path), "--runs", "2", "--out", str(out)]) == 0
    if broken == "events-is-directory":
        (out / "events.jsonl").unlink()
        (out / "events.jsonl").mkdir()
    else:
        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(json, "dump", full_disk)  # runs.csv and events.jsonl are written by then
    before = {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()}
    assert cli_main(["run", str(path), "--runs", "3", "--out", str(out)]) == 2
    assert "config error: out: cannot write outputs" in capsys.readouterr().err
    assert {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()} == before


# Runs in a child, so that rebinding the package's functions cannot leak into other tests. The
# shipped config has the benchmark's T, window, depth and widths, so bench/run.py's own checks apply.
TRACED_COMPARE = """
import json, sys
from pathlib import Path
from ctrlz import harness
from tracer import Tracer, layer_times
from run import check_unit, trace_failures
from workloads import WORKLOADS
tracer = Tracer()
tracer.install()
config, out = sys.argv[1], Path(sys.argv[2])
harness.write_outputs(out, harness.compare(harness.load_config(config, runs=2), harness.STRATEGY_NAMES))
tracer.save(out / "spans.npz")
stats = layer_times(out / "spans.npz")
unit = check_unit(out, WORKLOADS["compare_two_mode"], 2)
print(json.dumps({
    "runs": {name: stats[f"samplers.run_{name}"]["calls"] for name in harness.STRATEGY_NAMES},
    "failures": unit["failures"] + trace_failures(stats, [unit]),
    "failed_runs": unit["failed_runs"],
}))
"""


def test_benchmark_tracer_finds_every_site(tmp_path):
    """bench/tracer.py rebinds the package's functions by name; a refactor must keep every site it needs,
    and the traced calls must meet bench/run.py's exact NFE, reward-call, noise-draw and run-count checks."""
    root = Path(__file__).resolve().parents[1]
    src = str(Path(ctrlz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, str(root / "bench")))}
    config = str(write_config(tmp_path, shipped_doc()))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", TRACED_COMPARE, config, str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"runs": {name: 2 for name in STRATEGY_NAMES}, "failures": [], "failed_runs": 0}, proc.stdout


# Every key of the config schema, so that an edit can reach the optional ones too.
FUZZ_KEYS = {
    "schedule": ("family", "train_steps", "infer_steps", "beta_start", "beta_end"),
    "mixture": ("weights", "means", "scales"),
    "condition": ("kind", "component", "weights"),
    "reward": ("kind", "target", "inner_radius", "outer_radius", "plateau_value", "peak_value"),
    "guidance": ("omega", "mode"),
    "strategy": (
        "name", "window", "threshold", "max_depth", "n_candidates", "initiation", "random_p",
        "exploration_guidance", "inversion_omega",
    ),
    "seeds": ("master_seed", "runs"),
    "escape": ("target", "radius"),
}
# Upper bounds of integer draws for count fields, so that every example stays tiny.
FUZZ_COUNTS = {"train_steps": 20, "infer_steps": 5, "runs": 1, "window": 5, "max_depth": 3, "n_candidates": 4}
FUZZ_WORDS = (
    "linear", "unconditional", "component", "reweight", "neg_distance", "log_density", "plateau", "cfg", "cfg++",
    "reward_based", "always", "random", "same", "cfg_in_exploration", *STRATEGY_NAMES,
)
FUZZ_REWARDS = {
    "neg_distance": {"kind": "neg_distance", "target": [3.0, 0.0]},
    "log_density": {"kind": "log_density"},
    "plateau": {"kind": "plateau", "target": [3.0, 0.0], "inner_radius": 1.0, "outer_radius": 2.0},
}
DELETE = "<delete>"


def fuzz_doc(reward: str) -> dict:
    """The shipped two-mode mixture and condition, with ``reward`` and a tiny schedule, search and run count."""
    return {
        **shipped_doc(),
        "schedule": {"train_steps": 20, "infer_steps": 5},
        "reward": dict(FUZZ_REWARDS[reward]),
        "guidance": {"omega": 2.0},
        "strategy": {"name": "ctrlz", "window": 4, "max_depth": 2, "n_candidates": 2},
        "seeds": {"master_seed": 1, "runs": 1},
        "escape": {"target": [3.0, 0.0]},
    }


def fuzz_values(key: str | None):
    number = st.integers(-1, FUZZ_COUNTS[key]) if key in FUZZ_COUNTS else st.integers() | st.floats()
    scalar = st.none() | st.booleans() | number | st.floats() | st.sampled_from(FUZZ_WORDS) | st.text(max_size=3)
    return (
        scalar
        | st.lists(scalar, max_size=3)
        | st.lists(st.lists(st.floats(), max_size=3), max_size=3)
        | st.dictionaries(st.text(max_size=2), scalar, max_size=2)
    )


@st.composite
def fuzz_edits(draw):
    """One edit: (section, key or None for the whole section, new value or DELETE)."""
    section = draw(st.sampled_from([*FUZZ_KEYS, "extra"]))
    key = draw(st.sampled_from([None, *FUZZ_KEYS.get(section, ()), "extra"]))
    return section, key, draw(st.just(DELETE) | fuzz_values(key))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["run", "compare", "sweep"]), st.sampled_from(sorted(FUZZ_REWARDS)), fuzz_edits())
# A scale whose variance overflows, with the reward that also squares it.
@example("run", "neg_distance", ("mixture", "scales", [1e200, 0.7]))
@example("run", "log_density", ("mixture", "scales", [1e200, 0.7]))
# Overflow in the escape distance.
@example("run", "neg_distance", ("escape", "target", [1e308, 1e308]))
# An integer that no float can hold.
@example("run", "neg_distance", ("guidance", "omega", 10**400))
# An integer that no float can hold, where the strategy parameters are checked.
@example("run", "neg_distance", ("strategy", "threshold", 10**400))
# A kind or name that cannot be a dict key.
@example("run", "log_density", ("condition", "kind", []))
@example("run", "neg_distance", ("reward", "kind", []))
@example("run", "neg_distance", ("strategy", "name", []))
def test_cli_exits_0_2_or_3_after_any_one_edit(command, reward, edit):
    """No edit of one field makes the CLI raise; pytest turns any warning into an error too."""
    doc = fuzz_doc(reward)
    section, key, value = edit
    parent = doc if key is None else doc.setdefault(section, {})
    key = section if key is None else key
    if value == DELETE:
        parent.pop(key, None)
    else:
        parent[key] = value
    # The CLI's tables and error lines go to a buffer, shown only if the exit code is wrong.
    printed = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        code = cli_main([command, str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3), printed.getvalue()
