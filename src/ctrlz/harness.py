"""Configuration-driven experiment runner: seeds and runs batches, aggregates
escape rates and reward statistics, and emits machine-readable results."""

from __future__ import annotations

import csv
import errno
import json
import math
import os
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .dynamics import ConfigError, GuidanceConfig, LatentState, NonFiniteError, finite_number
from .models import Condition, GaussianMixture
from .rewards import LogDensity, NegDistance, Plateau, RewardSpec, score
from .samplers import (
    CtrlZParams,
    RunResult,
    run_ctrlz,
    run_ddim,
    run_resampling,
    run_sop,
    run_zsampling,
)
from .schedule import NoiseSchedule, build_linear_schedule, subsample
from .seeding import keyed_rng, mix_seed

_OUTPUT_FILES = ("runs.csv", "events.jsonl", "summary.json", "histograms.csv", "meta.json")

# Each config kind is one entry. A condition kind names the key it reads; a strategy, the parameters it reads.
_CONDITIONS = {"unconditional": None, "component": "component", "reweight": "weights"}
_STRATEGIES = {
    "ddim": (),
    "resampling": (),
    "zsampling": ("inversion_omega",),
    "sop": ("n_candidates",),
    "ctrlz": tuple(f.name for f in fields(CtrlZParams)),
}
STRATEGY_NAMES = tuple(_STRATEGIES)
# A reward kind names its type. The type's fields, all but the mixture that its own section gives,
# are the keys the kind reads, and their defaults are the only defaults.
_REWARDS = {"neg_distance": NegDistance, "log_density": LogDensity, "plateau": Plateau}
_REWARD_FIELDS = {kind: {f.name: f for f in fields(reward) if f.name != "mix"} for kind, reward in _REWARDS.items()}

_SECTIONS: dict[str, tuple[str, ...] | None] = {
    "schedule": ("family", "train_steps", "infer_steps", "beta_start", "beta_end"),
    "mixture": ("weights", "means", "scales"),
    "condition": ("kind", "component", "weights"),
    "reward": ("kind", *dict.fromkeys(name for names in _REWARD_FIELDS.values() for name in names)),
    "guidance": tuple(f.name for f in fields(GuidanceConfig)),
    "strategy": None,  # _sampler checks the strategy's keys
    "seeds": ("master_seed", "runs"),
    "escape": ("target", "radius"),
}


def _get(d: Mapping[str, Any], key: str, path: str) -> Any:
    if key not in d:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return d[key]


def _section(doc: Mapping[str, Any], key: str, default: Any = None) -> Mapping[str, Any]:
    value = _get(doc, key, "config") if default is None else doc.get(key, default)
    if not isinstance(value, Mapping):
        raise ConfigError(f"config.{key}", "expected an object")
    for name in value:
        if _SECTIONS[key] is not None and name not in _SECTIONS[key]:
            raise ConfigError(f"config.{key}.{name}", "unknown key")
    return value


def _built(section: str, build: Callable[[], Any]) -> Any:
    """Call ``build``; a constructor's range error names its argument, which becomes ``config.<section>.<argument>``."""
    try:
        return build()
    except ConfigError as exc:
        raise ConfigError(f"config.{section}.{exc.field}", exc.message) from None


def _positive_int(value: Any, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(path, f"expected positive integer, got {value!r}")
    return value


def _number(value: Any, path: str, index: int | None = None) -> float:
    if not finite_number(value):
        raise ConfigError(path if index is None else f"{path}[{index}]", f"expected finite number, got {value!r}")
    return float(value)


def _nonempty_list(value: Any) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes)) and len(value) > 0


def _vector(value: Any, path: str, dim: int | None = None) -> tuple[float, ...]:
    if not _nonempty_list(value):
        raise ConfigError(path, "expected a nonempty list of numbers")
    if dim is not None and len(value) != dim:
        raise ConfigError(path, f"expected {dim} numbers, the dimension of the mixture means")
    # One pass over a list of finite exact floats, what JSON gives; any other list is checked entry by entry,
    # so the first bad entry is named by its index.
    if set(map(type, value)) == {float} and all(map(math.isfinite, value)):
        return tuple(value)
    return tuple(_number(v, path, i) for i, v in enumerate(value))


def _schedule(train_steps: int, infer_steps: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """``infer_steps`` evenly spaced levels of a linear ``train_steps``-step schedule."""
    if infer_steps > train_steps:
        raise ConfigError("infer_steps", "cannot exceed train_steps")
    try:
        return subsample(build_linear_schedule(train_steps, beta_start, beta_end), infer_steps)
    except MemoryError as exc:
        raise ConfigError("train_steps", f"too large to allocate: {exc}") from None
    except ValueError as exc:
        raise ConfigError("beta_end" if beta_end >= 1 else "beta_start", str(exc)) from None


@dataclass(frozen=True)
class Built:
    """A config section's domain object, which ``parse_config`` built once; ``build`` returns it.

    ``bench/worker.py`` calls ``cfg.<section>.build()`` and ``cfg.reward.build(mix)``, so the
    schedule, mixture, condition and reward sections are held in this accessor.
    """

    value: Any

    def build(self, *mix: GaussianMixture) -> Any:
        return self.value


@dataclass(frozen=True)
class StrategyConfig:
    name: str
    params: Mapping[str, Any]


@dataclass(frozen=True)
class SeedConfig:
    master_seed: int
    runs: int


@dataclass(frozen=True)
class EscapeConfig:
    target: tuple[float, ...]
    radius: float


@dataclass(frozen=True)
class ExperimentConfig:
    schedule: Built  # NoiseSchedule
    mixture: Built  # GaussianMixture
    condition: Built  # Condition
    reward: Built  # RewardSpec
    strategy: StrategyConfig
    guidance: GuidanceConfig
    seeds: SeedConfig
    escape: EscapeConfig | None

    def build_guidance(self) -> GuidanceConfig:
        # bench/worker.py calls this name.
        return self.guidance

    def build(self) -> tuple[NoiseSchedule, GaussianMixture, Condition, RewardSpec, GuidanceConfig]:
        """The config's domain objects, as ``parse_config`` built them."""
        return self.schedule.value, self.mixture.value, self.condition.value, self.reward.value, self.guidance


def parse_config(doc: Mapping[str, Any], master_seed: int | None = None, runs: int | None = None) -> ExperimentConfig:
    """Validate a JSON-style mapping into an ExperimentConfig, building each section as it is read.

    ``master_seed`` and ``runs``, when given, replace the seeds entries and
    are checked like them. Raises ConfigError naming the offending field on
    the first problem found.
    """
    if not isinstance(doc, Mapping):
        raise ConfigError("config", "top level must be an object")
    for key in doc:
        if key not in _SECTIONS:
            raise ConfigError(f"config.{key}", "unknown section")

    sch = _section(doc, "schedule", {})
    if sch.get("family", "linear") != "linear":
        raise ConfigError("config.schedule.family", f"unsupported family {sch['family']!r}")
    sargs = {
        "train_steps": _positive_int(sch.get("train_steps", 1000), "config.schedule.train_steps"),
        "infer_steps": _positive_int(sch.get("infer_steps", 50), "config.schedule.infer_steps"),
        "beta_start": _number(sch.get("beta_start", 1e-4), "config.schedule.beta_start"),
        "beta_end": _number(sch.get("beta_end", 0.02), "config.schedule.beta_end"),
    }
    sched = _built("schedule", lambda: _schedule(**sargs))

    mx = _section(doc, "mixture")
    weights = _vector(_get(mx, "weights", "config.mixture"), "config.mixture.weights")
    means_raw = _get(mx, "means", "config.mixture")
    if not _nonempty_list(means_raw):
        raise ConfigError("config.mixture.means", "expected a nonempty list of vectors")
    dim = len(_vector(means_raw[0], "config.mixture.means[0]"))
    means = tuple(_vector(m, f"config.mixture.means[{i}]", dim) for i, m in enumerate(means_raw))
    scales = _vector(_get(mx, "scales", "config.mixture"), "config.mixture.scales")
    mix = _built("mixture", lambda: GaussianMixture(weights, means, scales))

    cn = _section(doc, "condition", {})
    ckind = cn.get("kind", "unconditional")
    if not isinstance(ckind, str) or ckind not in _CONDITIONS:
        raise ConfigError("config.condition.kind", f"unknown kind {ckind!r}")
    for name in cn:
        if name not in ("kind", _CONDITIONS[ckind]):
            raise ConfigError(f"config.condition.{name}", f"not read by kind {ckind!r}")
    cweights: tuple[float, ...] | None = None  # None keeps the mixture's own weights
    if ckind == "component":
        comp = _get(cn, "component", "config.condition")
        if not isinstance(comp, int) or isinstance(comp, bool) or not 0 <= comp < len(weights):
            raise ConfigError("config.condition.component", f"index {comp!r} out of range")
        cweights = tuple(float(k == comp) for k in range(len(weights)))
    if ckind == "reweight":
        cweights = _vector(_get(cn, "weights", "config.condition"), "config.condition.weights")
    cond = _built("condition", lambda: Condition(cweights))
    _built("condition", lambda: cond.effective_weights(mix))

    rw = _section(doc, "reward")
    rkind = _get(rw, "kind", "config.reward")
    if not isinstance(rkind, str) or rkind not in _REWARDS:
        raise ConfigError("config.reward.kind", f"unknown kind {rkind!r}")
    for name in rw:
        if name not in ("kind", *_REWARD_FIELDS[rkind]):
            raise ConfigError(f"config.reward.{name}", f"not read by kind {rkind!r}")
    rargs: dict[str, Any] = {}
    for name, field in _REWARD_FIELDS[rkind].items():
        if name in rw or field.default is MISSING:  # a key not given is left out, so the type's default applies
            path = f"config.reward.{name}"
            value = _get(rw, name, "config.reward")
            rargs[name] = _vector(value, path, dim) if name == "target" else _number(value, path)
    rtype = _REWARDS[rkind]
    reward = _built("reward", lambda: rtype(mix) if rtype is LogDensity else rtype(**rargs))

    gd = _section(doc, "guidance", {})
    guidance = _built("guidance", lambda: GuidanceConfig(**gd))

    st = _section(doc, "strategy", {})
    strategy = StrategyConfig(st.get("name", "ddim"), {k: v for k, v in st.items() if k != "name"})

    sd = _section(doc, "seeds", {})
    master_seed = sd.get("master_seed", 0) if master_seed is None else master_seed
    if not isinstance(master_seed, int) or isinstance(master_seed, bool) or not 0 <= master_seed < 2**64:
        raise ConfigError("config.seeds.master_seed", f"expected an integer in [0, 2**64), got {master_seed!r}")
    runs = _positive_int(sd.get("runs", 1) if runs is None else runs, "config.seeds.runs")
    seeds = SeedConfig(master_seed, runs)

    escape: EscapeConfig | None = None
    if "escape" in doc or "target" in rargs:
        es = _section(doc, "escape", {"target": rargs.get("target")})
        etarget = _vector(_get(es, "target", "config.escape"), "config.escape.target", dim)
        radius = _number(es.get("radius", 1.0), "config.escape.radius")
        if radius <= 0:
            raise ConfigError("config.escape.radius", "must be > 0")
        escape = EscapeConfig(etarget, radius)

    _sampler(strategy, guidance, sched.num_steps)
    return ExperimentConfig(Built(sched), Built(mix), Built(cond), Built(reward), strategy, guidance, seeds, escape)


def load_config(path: str | Path, master_seed: int | None = None, runs: int | None = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers invalid JSON and bytes that are not UTF-8; RecursionError, nesting too deep to parse.
        raise ConfigError("config", f"cannot read {str(path)!r}: {exc}") from None
    return parse_config(doc, master_seed, runs)


@dataclass
class AggregateStats:
    """Deterministic aggregation of a batch of runs for one strategy/cell."""

    strategy: str
    runs: int
    mean_final_reward: float
    std_final_reward: float
    escape_rate: float | None
    mean_nfe_avg: float
    mean_reward_calls: float
    initiation_histogram: dict[str, int]
    depth_histogram: dict[str, int]


@dataclass
class StrategyOutcome:
    stats: AggregateStats
    results: list[RunResult]
    final_rewards: list[float]
    escaped: list[bool] | None


def _sampler(strategy: StrategyConfig, guidance: GuidanceConfig, steps: int) -> Callable[..., RunResult]:
    """Check a strategy's name and its parameters for ``steps`` sampling steps.

    Returns its sampler with the parameters bound, called as
    ``run(x_T, cond, mix, sched, reward, seed)``. Each call looks up the
    ``run_*`` function anew, so rebinding it on this module (as a tracer does)
    takes effect.
    """
    path = "config.strategy"
    name, params = strategy.name, strategy.params
    if not isinstance(name, str) or name not in _STRATEGIES:
        raise ConfigError(f"{path}.name", f"unknown strategy {name!r}")
    for key in params:
        if key not in _STRATEGIES[name]:
            raise ConfigError(f"{path}.{key}", f"not a parameter of strategy {name!r}")
    if name == "ctrlz":
        ctrlz = _built("strategy", lambda: CtrlZParams(**params))
        if ctrlz.window > steps:
            raise ConfigError(f"{path}.window", f"{ctrlz.window} exceeds the {steps} sampling steps")
        return lambda x_T, cond, mix, sched, reward, seed: run_ctrlz(x_T, cond, mix, guidance, sched, reward, ctrlz, seed)
    if name == "sop":  # n_candidates, its rule and its default are the search's
        n = _built("strategy", lambda: CtrlZParams(**params)).n_candidates
        return lambda x_T, cond, mix, sched, reward, seed: run_sop(x_T, cond, mix, guidance, sched, reward, n, seed)
    if name == "zsampling":
        omega = _number(params.get("inversion_omega", 0.0), f"{path}.inversion_omega")
        if omega < 0:
            raise ConfigError(f"{path}.inversion_omega", "must be >= 0")
        return lambda x_T, cond, mix, sched, reward, seed: run_zsampling(x_T, cond, mix, guidance, sched, omega, seed)
    if name == "resampling":
        return lambda x_T, cond, mix, sched, reward, seed: run_resampling(x_T, cond, mix, guidance, sched, seed)
    return lambda x_T, cond, mix, sched, reward, seed: run_ddim(x_T, cond, mix, guidance, sched, seed)


def _histograms(results: Iterable[RunResult]) -> tuple[dict[str, int], dict[str, int]]:
    """Count exploration events by step and by ``terminal_depth:terminated_by``, each in bucket order."""
    events = [ev for res in results for ev in res.events]
    initiation = Counter(str(ev.t) for ev in events)
    depth = Counter(f"{ev.terminal_depth}:{ev.terminated_by.value}" for ev in events)
    return dict(sorted(initiation.items(), key=lambda kv: int(kv[0]))), dict(sorted(depth.items()))


def _aggregate(
    label: str,
    results: list[RunResult],
    cfg: ExperimentConfig,
    cond: Condition,
    reward: RewardSpec,
) -> StrategyOutcome:
    finals = [score(reward, cond, r.x0) for r in results]
    escaped: list[bool] | None = None
    escape_rate: float | None = None
    if cfg.escape is not None:
        target = np.array(cfg.escape.target)
        with np.errstate(over="ignore"):  # a distance too large for a float is +inf: not escaped
            escaped = [bool(np.linalg.norm(r.x0 - target) <= cfg.escape.radius) for r in results]
        escape_rate = sum(escaped) / len(escaped)
    initiation, depth = _histograms(results)
    finals_arr = np.array(finals)
    with np.errstate(over="ignore", invalid="ignore"):  # rewards near the float range can overflow the statistics
        mean = float(finals_arr.mean())
        std = float(finals_arr.std(ddof=1)) if len(finals) > 1 else 0.0
    if not (np.isfinite(mean) and np.isfinite(std)):
        raise NonFiniteError(f"{label}: mean or standard deviation of the final rewards is not finite")
    stats = AggregateStats(
        strategy=label,
        runs=len(results),
        mean_final_reward=mean,
        std_final_reward=std,
        escape_rate=escape_rate,
        mean_nfe_avg=float(np.mean([r.nfe_avg for r in results])),
        mean_reward_calls=float(np.mean([r.reward_calls for r in results])),
        initiation_histogram=initiation,
        depth_histogram=depth,
    )
    return StrategyOutcome(stats, results, finals, escaped)


def run_experiment(cfg: ExperimentConfig, cells: Mapping[str, StrategyConfig] | None = None) -> dict[str, StrategyOutcome]:
    """Run each labelled strategy cell over the configured batch of runs and aggregate it.

    ``cells`` defaults to the configured strategy under its own name. Every
    cell and every call shares the config's domain objects, and every cell is
    bound before the first run. Per-run seeds derive from (master_seed,
    run_index) only, so every cell and every repeated invocation replays
    identical initial noises.
    """
    if cells is None:
        cells = {cfg.strategy.name: cfg.strategy}
    sched, mix, cond, reward, guidance = cfg.build()
    bound = {label: _sampler(strategy, guidance, sched.num_steps) for label, strategy in cells.items()}
    run_seeds = [mix_seed(cfg.seeds.master_seed, run_index) for run_index in range(cfg.seeds.runs)]
    outcomes = {}
    for label, run in bound.items():
        results = []
        for seed in run_seeds:
            x_T = LatentState(keyed_rng(seed, 0).standard_normal(mix.dim), sched.num_steps)
            results.append(run(x_T, cond, mix, sched, reward, seed))
        outcomes[label] = _aggregate(label, results, cfg, cond, reward)
    return outcomes


def compare(cfg: ExperimentConfig, strategies: Sequence[str]) -> dict[str, StrategyOutcome]:
    """Run several strategies over identical per-run seeds."""
    if not strategies:
        raise ConfigError("strategies", "need at least one strategy")
    for name in strategies:
        if name not in STRATEGY_NAMES:
            raise ConfigError("strategies", f"unknown strategy {name!r}")
    if len(set(strategies)) != len(strategies):
        raise ConfigError("strategies", f"a strategy is named twice in {list(strategies)}")
    # A strategy that the config does not name runs at its defaults, which no config field can change.
    window, steps = CtrlZParams().window, cfg.schedule.value.num_steps
    if "ctrlz" in strategies and cfg.strategy.name != "ctrlz" and window > steps:
        raise ConfigError("strategies", f"ctrlz's default window {window} exceeds the {steps} sampling steps")
    chosen = {name: StrategyConfig(name, cfg.strategy.params if cfg.strategy.name == name else {}) for name in strategies}
    return run_experiment(cfg, chosen)


def sweep(
    cfg: ExperimentConfig,
    max_depths: Sequence[int],
    candidate_counts: Sequence[int],
) -> dict[str, StrategyOutcome]:
    """Grid of adaptive-search depth/width settings over paired seeds."""
    if not max_depths or not candidate_counts:
        raise ConfigError("grid", "sweep grid must be nonempty")
    for value in (*max_depths, *candidate_counts):
        _positive_int(value, "grid")
    for values in (max_depths, candidate_counts):
        if len(set(values)) != len(values):
            raise ConfigError("grid", f"repeated value in {list(values)}")
    if cfg.strategy.name != "ctrlz":
        raise ConfigError("config.strategy.name", "sweep requires the ctrlz strategy")
    grid = [(d, n) for d in max_depths for n in candidate_counts]
    cells = {f"ctrlz[dmax={d},n={n}]": {**cfg.strategy.params, "max_depth": d, "n_candidates": n} for d, n in grid}
    return run_experiment(cfg, {label: StrategyConfig("ctrlz", params) for label, params in cells.items()})


def write_outputs(out_dir: str | Path, outcomes: Mapping[str, StrategyOutcome]) -> None:
    """Emit runs.csv, events.jsonl, summary.json and histograms.csv.

    File contents are byte-stable across reruns of the same configuration;
    wall-clock metadata goes to the meta.json sidecar only. The set is written
    into a staging directory and renamed into place only once all of it is
    written, so a failed write leaves the previous set as it was.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in _OUTPUT_FILES:
        if (out / name).is_dir():  # a rename cannot replace a directory: refuse before writing anything
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        with open(staging / "runs.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["run_index", "strategy", "final_reward", "escaped", "nfe_total", "nfe_avg", "reward_calls", "seed"]
            )
            for label, outcome in outcomes.items():
                for i, res in enumerate(outcome.results):
                    escaped = "" if outcome.escaped is None else str(outcome.escaped[i]).lower()
                    writer.writerow(
                        [i, label, repr(outcome.final_rewards[i]), escaped, res.nfe_total, repr(res.nfe_avg), res.reward_calls, res.seed]
                    )

        with open(staging / "events.jsonl", "w") as fh:
            for label, outcome in outcomes.items():
                for i, res in enumerate(outcome.results):
                    for ev in res.events:
                        record = {**vars(ev), "terminated_by": ev.terminated_by.value, "run_index": i, "strategy": label}
                        fh.write(json.dumps(record, sort_keys=True) + "\n")

        summary = {label: vars(outcome.stats) for label, outcome in outcomes.items()}
        with open(staging / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")

        initiation, depth = _histograms(res for outcome in outcomes.values() for res in outcome.results)
        with open(staging / "histograms.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "bucket", "count"])
            writer.writerows(["initiation", bucket, count] for bucket, count in initiation.items())
            writer.writerows(["depth", bucket, count] for bucket, count in depth.items())

        with open(staging / "meta.json", "w") as fh:
            json.dump({"written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}, fh, indent=2)
            fh.write("\n")

        for name in _OUTPUT_FILES:
            os.replace(staging / name, out / name)
    finally:
        shutil.rmtree(staging)
