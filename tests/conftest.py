"""The one place a test reads ``configs/``: ``shipped_doc`` and ``landscape_config`` load a shipped config.

The session fixture ``two_mode`` is two_mode_escape parsed once, and ``sched50``, ``two_mode_mix``,
``balanced_cond`` and ``two_mode_reward`` are its built schedule, mixture, condition and reward. A config
is read only when a test asks for it, so a config that fails to parse errors only the tests that read it.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ctrlz.harness import parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shipped_doc(name="two_mode_escape"):
    """A fresh copy of the JSON document ``configs/<name>.json``."""
    return json.loads((CONFIGS / f"{name}.json").read_text())


def landscape_config(name="two_mode_escape", runs=None, **strategy):
    """The shipped config ``configs/<name>.json``, its strategy section updated by ``strategy``."""
    doc = shipped_doc(name)
    doc["strategy"].update(strategy)
    return parse_config(doc, runs=runs)


# One NaN or infinite entry, first or last, in vectors of length 1, 2 and 1024: a finiteness check must see every
# entry. The finite vector near the float limit sums to a non-finite value, so a check by sum or dot product fails it.
NON_FINITE_VECTORS = [
    pytest.param(np.insert(np.ones(size - 1), 0 if place == "first" else size - 1, value), id=f"{name}-{place}-{size}")
    for name, value in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf))
    for place in ("first", "last")
    for size in (1, 2, 1024)
]
NEAR_FLOAT_LIMIT = np.array([1.7e308, 1.7e308, -1.7e308, -1.7e308])


@pytest.fixture(scope="session")
def two_mode():
    return landscape_config()


@pytest.fixture(scope="session")
def sched50(two_mode):
    return two_mode.build()[0]


@pytest.fixture(scope="session")
def two_mode_mix(two_mode):
    return two_mode.build()[1]


@pytest.fixture(scope="session")
def balanced_cond(two_mode):
    return two_mode.build()[2]


@pytest.fixture(scope="session")
def two_mode_reward(two_mode):
    return two_mode.build()[3]
