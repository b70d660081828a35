"""Golden digests: the byte-stable output files of a short `run`, `compare` or `sweep` run.

Each shipped config runs all five strategies for 8 runs; the sha256 prefixes
of the four byte-stable files must match the recorded ones. They were
recorded with numpy 2.4.6 on Python 3.11; digests may move with the numpy or
libm version, so re-record them (with the reason) when those change.
"""

import hashlib

import pytest

from ctrlz.harness import STRATEGY_NAMES, compare, parse_config, run_experiment, sweep, write_outputs

from conftest import landscape_config, shipped_doc

FILES = ("runs.csv", "events.jsonl", "summary.json", "histograms.csv")

GOLDEN = {
    "two_mode_escape": ("a5213d75916e56bb", "c6600af69d232fa6", "2879c065a96b1745", "e1edeafc5b1ab4e9"),
    "plateau_escape": ("4faf1b294e92710f", "e45da6ee4900c396", "6b441ae18a37f8f4", "e1edeafc5b1ab4e9"),
}

# two_mode_escape under CFG++, keyed by the ctrlz strategy's exploration_guidance.
GOLDEN_CFG_PLUS_PLUS = {
    "same": ("037091625ea8dc40", "f7935b264a2bd9b1", "93f48a3b3179eff2", "1b16d79611f00c0f"),
    "cfg_in_exploration": ("445f098f6c6e1571", "43b30a7fe613677e", "9cbf56f369eb0a39", "1959fbb521340321"),
}

# two_mode_escape under the log_density reward, the one reward that reads the condition, keyed by condition kind.
CONDITIONS = {"component": {"kind": "component", "component": 1}, "unconditional": {"kind": "unconditional"}}
GOLDEN_CONDITION = {
    "component": ("796abe26f0a3df45", "1b44af4f9d9a2dee", "900e1498f51b87ac", "044e6cd92dd9dbf5"),
    "unconditional": ("da4676bb3674b097", "5b0843f26d05f547", "a7c51d89cb113e7b", "4822e0f9f5fe9dd2"),
}


def digests(tmp_path, outcomes, expected):
    """Write ``outcomes`` to ``tmp_path`` and compare the sha256 prefix of each byte-stable file with ``expected``."""
    write_outputs(tmp_path, outcomes)
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()[:16] for f in FILES)
    assert dict(zip(FILES, got)) == dict(zip(FILES, expected))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_compare_outputs_match_golden_digests(name, tmp_path):
    digests(tmp_path, compare(landscape_config(name, runs=8), STRATEGY_NAMES), GOLDEN[name])


@pytest.mark.parametrize("exploration", sorted(GOLDEN_CFG_PLUS_PLUS))
def test_cfg_plus_plus_compare_matches_golden_digests(exploration, tmp_path):
    doc = shipped_doc()
    doc["guidance"]["mode"] = "cfg++"
    doc["strategy"]["exploration_guidance"] = exploration
    digests(tmp_path, compare(parse_config(doc, runs=8), STRATEGY_NAMES), GOLDEN_CFG_PLUS_PLUS[exploration])


@pytest.mark.parametrize("kind", sorted(GOLDEN_CONDITION))
def test_condition_compare_matches_golden_digests(kind, tmp_path):
    doc = {**shipped_doc(), "condition": CONDITIONS[kind], "reward": {"kind": "log_density"}}
    digests(tmp_path, compare(parse_config(doc, runs=8), STRATEGY_NAMES), GOLDEN_CONDITION[kind])

# two_mode_escape through the two paths no other golden reaches: a sweep, whose histograms.csv sums four
# cells, and the ctrlz initiation policies that skip the acceptance pre-check.
GOLDEN_SWEEP = ("bddce418373e51e2", "d7c87ab86307337d", "c91f186b8906b9ab", "0510868c90d71869")
GOLDEN_INITIATION = {
    "random": ("1d6045cc9ac79d25", "f9893ecda8a37350", "781df90b456eb72e", "37a2d288230502e3"),
    "always": ("edd0ee389f375212", "5456b070409cf3b6", "27a5cfe258bb40b9", "828fece7ca1ee549"),
}


def test_sweep_matches_golden_digests(tmp_path):
    digests(tmp_path, sweep(landscape_config(runs=8), [1, 2], [1, 2]), GOLDEN_SWEEP)


@pytest.mark.parametrize("initiation", sorted(GOLDEN_INITIATION))
def test_initiation_compare_matches_golden_digests(initiation, tmp_path):
    cfg = landscape_config(runs=8, initiation=initiation, random_p=0.5)
    digests(tmp_path, compare(cfg, STRATEGY_NAMES), GOLDEN_INITIATION[initiation])


# two_mode_escape's own strategy cell, as `ctrlz run` executes it.
GOLDEN_RUN = ("014acea7744945e9", "c6600af69d232fa6", "9539b8d5064f82c9", "e1edeafc5b1ab4e9")


def test_run_matches_golden_digests(tmp_path):
    digests(tmp_path, run_experiment(landscape_config(runs=8)), GOLDEN_RUN)
