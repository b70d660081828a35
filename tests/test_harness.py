import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctrlz.cli import main as cli_main
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


def base_doc(**overrides):
    doc = {
        "schedule": {"train_steps": 200, "infer_steps": 20, "beta_start": 1e-4, "beta_end": 0.02},
        "mixture": {
            "weights": [0.8, 0.2],
            "means": [[-3.0, 0.0], [3.0, 0.0]],
            "scales": [0.7, 0.7],
        },
        "condition": {"kind": "reweight", "weights": [0.5, 0.5]},
        "reward": {"kind": "neg_distance", "target": [3.0, 0.0]},
        "guidance": {"omega": 2.0, "mode": "cfg"},
        "strategy": {
            "name": "ctrlz",
            "window": 15,
            "threshold": 0.0,
            "max_depth": 2,
            "n_candidates": 2,
        },
        "seeds": {"master_seed": 5, "runs": 4},
        "escape": {"target": [3.0, 0.0], "radius": 1.0},
    }
    doc.update(overrides)
    return doc


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
    ],
)
def test_parse_config_names_offending_field(mutate, field):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.field == field


def test_escape_defaults_to_unit_radius_around_reward_target():
    doc = base_doc()
    del doc["escape"]
    cfg = parse_config(doc)
    assert cfg.escape is not None
    assert cfg.escape.target == (3.0, 0.0)
    assert cfg.escape.radius == 1.0


def test_run_experiment_is_deterministic():
    cfg = parse_config(base_doc())
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.stats == b.stats
    assert a.results == b.results


def test_single_cell_sweep_matches_run_experiment():
    cfg = parse_config(base_doc())
    cell = sweep(cfg, [2], [2])["ctrlz[dmax=2,n=2]"]
    direct = run_experiment(cfg)
    assert cell.final_rewards == direct.final_rewards
    assert cell.stats.mean_nfe_avg == direct.stats.mean_nfe_avg


def test_sweep_requires_ctrlz_and_nonempty_grid():
    cfg = parse_config(base_doc(strategy={"name": "ddim"}))
    with pytest.raises(ConfigError):
        sweep(cfg, [1], [1])
    cfg2 = parse_config(base_doc())
    with pytest.raises(ConfigError):
        sweep(cfg2, [], [1])


def test_paired_seeds_across_strategies_and_cells():
    cfg = parse_config(base_doc())
    outcomes = compare(cfg, ["ddim", "resampling", "ctrlz"])
    seed_lists = [[r.seed for r in oc.results] for oc in outcomes.values()]
    assert seed_lists[0] == seed_lists[1] == seed_lists[2]
    cells = sweep(cfg, [1, 2], [2])
    cell_seeds = [[r.seed for r in oc.results] for oc in cells.values()]
    assert all(s == cell_seeds[0] for s in cell_seeds)


def test_compare_reproduces_reference_nfe_column():
    doc = base_doc()
    doc["schedule"]["infer_steps"] = 50
    doc["schedule"]["train_steps"] = 1000
    doc["seeds"]["runs"] = 2
    cfg = parse_config(doc)
    outcomes = compare(cfg, ["ddim", "resampling", "zsampling"])
    assert outcomes["ddim"].stats.mean_nfe_avg == 1.0
    assert outcomes["resampling"].stats.mean_nfe_avg == 2.0
    assert outcomes["zsampling"].stats.mean_nfe_avg == 3.0
    with pytest.raises(ConfigError):
        compare(cfg, [])
    with pytest.raises(ConfigError):
        compare(cfg, ["mcts"])
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg, StrategyConfig("mcts", {}))
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
    outcomes = {"ctrlz": run_experiment(cfg)}
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


def test_cli_compare_and_sweep(tmp_path):
    path = write_config(tmp_path, base_doc())
    assert cli_main(["compare", str(path), "--strategies", "ddim,zsampling", "--out", str(tmp_path / "cmp")]) == 0
    rows = (tmp_path / "cmp" / "runs.csv").read_text().splitlines()
    strategies = {row.split(",")[1] for row in rows[1:]}
    assert strategies == {"ddim", "zsampling"}
    assert cli_main(["sweep", str(path), "--dmax", "1,2", "--n", "1", "--out", str(tmp_path / "sw")]) == 0
    summary = json.loads((tmp_path / "sw" / "summary.json").read_text())
    assert set(summary) == {"ctrlz[dmax=1,n=1]", "ctrlz[dmax=2,n=1]"}


def test_cli_config_error_exit_code(tmp_path, capsys):
    doc = base_doc()
    doc["mixture"]["weights"] = [0.5, 0.6]
    path = write_config(tmp_path, doc)
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config.mixture.weights" in capsys.readouterr().err


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
    ],
)
def test_cli_rejects_bad_strategy_parameters(tmp_path, capsys, strategy, key):
    path = write_config(tmp_path, base_doc(strategy=strategy))
    assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,field",
    [
        (["--runs", "0"], "config.seeds.runs"),
        (["--runs", "-3"], "config.seeds.runs"),
        (["--seed", "-1"], "config.seeds.master_seed"),
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


def test_cli_module_entry_point(tmp_path):
    path = write_config(tmp_path, base_doc())
    proc = subprocess.run(
        [sys.executable, "-m", "ctrlz", "run", str(path), "--runs", "1", "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "summary.json").exists()


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
    return {
        "schedule": {"train_steps": 20, "infer_steps": 5},
        "mixture": {"weights": [0.8, 0.2], "means": [[-3.0, 0.0], [3.0, 0.0]], "scales": [0.7, 0.7]},
        "condition": {"kind": "reweight", "weights": [0.5, 0.5]},
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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        assert cli_main([command, str(path), "--out", str(Path(tmp) / "out")]) in (0, 2, 3)
