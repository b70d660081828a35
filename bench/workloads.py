"""Workload definitions and the config files generated for them.

The program under test only ever receives a config file written here; every
number in it derives from the workload name and the benchmark seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20260810  # the shipped master_seed of configs/two_mode_escape.json

SCHEDULE = {"family": "linear", "train_steps": 1000, "infer_steps": 50, "beta_start": 1e-4, "beta_end": 0.02}
T = SCHEDULE["infer_steps"]
SOP_CANDIDATES = 4  # run_sop's default, which `compare` uses for every non-primary strategy
CTRLZ = {"name": "ctrlz", "window": 40, "threshold": 0.0, "max_depth": 3, "n_candidates": 4, "initiation": "reward_based"}

# The two-mode landscape, field for field as shipped in configs/two_mode_escape.json,
# so that at DEFAULT_SEED the compare outputs must match the digests in ROADMAP.md.
TWO_MODE = {
    "schedule": SCHEDULE,
    "mixture": {"weights": [0.8, 0.2], "means": [[-3.0, 0.0], [3.0, 0.0]], "scales": [0.7, 0.7]},
    "condition": {"kind": "reweight", "weights": [0.5, 0.5]},
    "reward": {"kind": "neg_distance", "target": [3.0, 0.0]},
    "guidance": {"omega": 2.0, "mode": "cfg"},
    "strategy": CTRLZ,
    "escape": {"target": [3.0, 0.0], "radius": 1.0},
}

HD_COMPONENTS = 64
HD_DIM = 1024

# Each unit is one `compare(cfg, strategies)` call, or one `sweep(cfg,
# max_depths, candidate_counts)` call where "sweep" is given, plus
# `write_outputs`; "runs" sizes it. Units cycle through "unit_configs"
# configs that differ only in master_seed, so the time of a run does not
# hinge on the search effort of a few seeds (denoise_hd does no search: its
# work per unit is the same at every seed). "kernel_runs" sizes the
# reference kernel timed before each unit.
# Where "reference_runs" is given, one more unit of that size runs at
# DEFAULT_SEED, untimed, and its digests are checked instead.
WORKLOADS = {
    "compare_two_mode": {
        "strategies": ["ddim", "resampling", "zsampling", "sop", "ctrlz"],
        "runs": 4,
        "unit_configs": 16,
        "kernel_runs": 80,
        "reference_runs": 200,  # the shipped run count, which the ROADMAP digests are for
    },
    "sweep_adaptive": {
        "sweep": ([1, 2, 3], [1, 2, 4]),
        "strategies": [f"ctrlz[dmax={d},n={n}]" for d in (1, 2, 3) for n in (1, 2, 4)],  # sweep's labels
        "runs": 4,
        "unit_configs": 16,
        "kernel_runs": 80,
    },
    "denoise_hd": {"strategies": ["ddim", "zsampling"], "runs": 8, "unit_configs": 1, "kernel_runs": 12},
}

def _high_dim_landscape(seed: int) -> dict:
    """K=64 isotropic components in d=1024 with a reweight condition.

    Weights are small integers over their sum, so they sum to 1 within a few
    ulps and pass the mixture's 1e-12 check.
    """
    rng = np.random.default_rng([seed, HD_COMPONENTS, HD_DIM])
    counts = rng.integers(1, 10, HD_COMPONENTS)
    cond_counts = rng.integers(1, 10, HD_COMPONENTS)
    means = np.round(rng.normal(0.0, 1.0, (HD_COMPONENTS, HD_DIM)), 4).tolist()
    scales = np.round(rng.uniform(0.5, 1.5, HD_COMPONENTS), 3).tolist()
    return {
        "schedule": SCHEDULE,
        "mixture": {"weights": (counts / counts.sum()).tolist(), "means": means, "scales": scales},
        "condition": {"kind": "reweight", "weights": (cond_counts / cond_counts.sum()).tolist()},
        "reward": {"kind": "neg_distance", "target": means[0]},
        "guidance": {"omega": 2.0, "mode": "cfg"},
        "strategy": {"name": "ddim"},
    }


def unit_seeds(seed: int, count: int) -> list[int]:
    """master_seed of each unit config: the benchmark seed, then seeds drawn from it."""
    drawn = np.random.default_rng([seed, count]).integers(0, 2**31, count - 1)
    return [seed, *(int(s) for s in drawn)]


def write_config(workload: str, seed: int, runs: int, directory: Path) -> Path:
    """Write the config for ``workload`` with master_seed ``seed`` and return its path."""
    doc = _high_dim_landscape(seed) if workload == "denoise_hd" else dict(TWO_MODE)
    doc["seeds"] = {"master_seed": seed, "runs": runs}
    path = directory / f"{workload}-{seed}-{runs}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path
