"""Span tracer that instruments ctrlz from outside the package.

The package imports functions by name (``from .models import predict``), so
wrapping a function where it is defined is not enough: every module attribute
that refers to it is rebound to the wrapper. Spans (name, start, end, parent,
run id) are appended to flat arrays in memory and saved as one ``.npz`` file
when the traced process ends. A span's run id is the index of the enclosing
``samplers.run_*`` call, or -1 outside any sampler run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Public functions of each layer, as "<module>.<function>" under ctrlz.
LAYERS = (
    "models.predict",
    "models.exact_epsilon",
    "dynamics.ddim_step",
    "dynamics.stochastic_invert",
    "dynamics.deterministic_invert",
    "dynamics.clean_estimate",
    "dynamics.guided_epsilon",
    "seeding.keyed_rng",
    "rewards.score",
    "samplers.run_ddim",
    "samplers.run_resampling",
    "samplers.run_zsampling",
    "samplers.run_sop",
    "samplers.run_ctrlz",
    "harness.load_config",
    "harness.run_experiment",
    "harness.write_outputs",
    "schedule.build_linear_schedule",
    "schedule.subsample",
)

# Names the package resolves at call time; install() fails unless each one is rebound.
REQUIRED_SITES = (
    "ctrlz.samplers.predict",
    "ctrlz.samplers.keyed_rng",
    "ctrlz.harness.keyed_rng",
    "ctrlz.samplers.score",
    "ctrlz.harness.score",
    "ctrlz.models.exact_epsilon",
    "ctrlz.models.clean_estimate",
    "ctrlz.dynamics.clean_estimate",
    "ctrlz.harness.run_ddim",
    "ctrlz.harness.run_resampling",
    "ctrlz.harness.run_zsampling",
    "ctrlz.harness.run_sop",
    "ctrlz.harness.run_ctrlz",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._run = array("i")
        self._stack = [-1]
        self._current_run = -1
        self._runs_started = 0

    def wrap(self, name: str, fn, starts_run: bool = False):
        """Return ``fn`` recording one span named ``name`` per call."""
        name_id = len(self.names)
        self.names.append(name)
        names, starts, ends, parents, runs, stack = (
            self._name, self._start, self._end, self._parent, self._run, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            if starts_run:
                outer_run = self._current_run
                self._current_run = self._runs_started
                self._runs_started += 1
            runs.append(self._current_run)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if starts_run:
                    self._current_run = outer_run

        return traced

    def install(self) -> None:
        """Rebind every ctrlz module attribute that refers to a layer function."""
        wrappers = {}
        for layer in LAYERS:
            module, function = layer.split(".")
            fn = getattr(sys.modules[f"ctrlz.{module}"], function)
            wrappers[id(fn)] = (fn, self.wrap(layer, fn, starts_run=function.startswith("run_")))
        rebound = set()
        for module_name, module in sorted(sys.modules.items()):
            if module_name != "ctrlz" and not module_name.startswith("ctrlz."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    rebound.add(f"{module_name}.{attr}")
        missing = sorted(set(REQUIRED_SITES) - rebound)
        if missing:
            raise RuntimeError(f"tracer could not rebind {missing}")

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.uint16),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            run=np.frombuffer(self._run, dtype=np.int32),
        )


def layer_times(path) -> dict[str, dict]:
    """Per span name: call count, self seconds and per-call inclusive seconds.

    Self time is a span's duration minus the durations of its direct children.
    """
    with np.load(path) as spans:
        names = [str(n) for n in spans["names"]]
        name, parent = spans["name"], spans["parent"]
        duration = spans["end"] - spans["start"]
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    own = duration - child_time
    stats = {}
    for name_id, label in enumerate(names):
        mask = name == name_id
        stats[label] = {"calls": int(mask.sum()), "self_s": float(own[mask].sum()), "durations": duration[mask]}
    return stats
