"""Golden digests: the byte-stable output files of a short `compare` run.

Each shipped config runs all five strategies for 8 runs; the sha256 prefixes
of the four byte-stable files must match the recorded ones. They were
recorded with numpy 2.4.6 on Python 3.11; digests may move with the numpy or
libm version, so re-record them (with the reason) when those change.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from ctrlz.harness import STRATEGY_NAMES, compare, load_config, parse_config, write_outputs

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_compare_outputs_match_golden_digests(name, tmp_path):
    cfg = load_config(CONFIGS / f"{name}.json")
    cfg = dataclasses.replace(cfg, seeds=dataclasses.replace(cfg.seeds, runs=8))
    write_outputs(tmp_path, compare(cfg, STRATEGY_NAMES))
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()[:16] for f in FILES)
    assert dict(zip(FILES, got)) == dict(zip(FILES, GOLDEN[name]))


@pytest.mark.parametrize("exploration", sorted(GOLDEN_CFG_PLUS_PLUS))
def test_cfg_plus_plus_compare_matches_golden_digests(exploration, tmp_path):
    doc = json.loads((CONFIGS / "two_mode_escape.json").read_text())
    doc["guidance"]["mode"] = "cfg++"
    doc["strategy"]["exploration_guidance"] = exploration
    write_outputs(tmp_path, compare(parse_config(doc, runs=8), STRATEGY_NAMES))
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()[:16] for f in FILES)
    assert dict(zip(FILES, got)) == dict(zip(FILES, GOLDEN_CFG_PLUS_PLUS[exploration]))
