"""Golden digests: the byte-stable output files of a short `compare` run.

Each shipped config runs all five strategies for 8 runs; the sha256 prefixes
of the four byte-stable files must match the recorded ones. They were
recorded with numpy 2.4.6 on Python 3.11; digests may move with the numpy or
libm version, so re-record them (with the reason) when those change.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from ctrlz.harness import STRATEGY_NAMES, compare, load_config, write_outputs

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
FILES = ("runs.csv", "events.jsonl", "summary.json", "histograms.csv")

GOLDEN = {
    "two_mode_escape": ("a5213d75916e56bb", "c6600af69d232fa6", "2879c065a96b1745", "e1edeafc5b1ab4e9"),
    "plateau_escape": ("4faf1b294e92710f", "e45da6ee4900c396", "6b441ae18a37f8f4", "e1edeafc5b1ab4e9"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_compare_outputs_match_golden_digests(name, tmp_path):
    cfg = load_config(CONFIGS / f"{name}.json")
    cfg = dataclasses.replace(cfg, seeds=dataclasses.replace(cfg.seeds, runs=8))
    write_outputs(tmp_path, compare(cfg, STRATEGY_NAMES))
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()[:16] for f in FILES)
    assert dict(zip(FILES, got)) == dict(zip(FILES, GOLDEN[name]))
