"""Configuration-driven experiment runner: seeds and runs batches, aggregates
escape rates and reward statistics, and emits machine-readable results."""

from __future__ import annotations

import csv
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .dynamics import GuidanceConfig, GuidanceMode, LatentState
from .models import _MAX_SCALE, _WEIGHT_TOL, Condition, EvalContext, GaussianMixture
from .rewards import LogDensity, NegDistance, Plateau, RewardSpec, score
from .samplers import (
    CtrlZParams,
    ExplorationGuidance,
    InitiationPolicy,
    RunResult,
    run_ctrlz,
    run_ddim,
    run_resampling,
    run_sop,
    run_zsampling,
)
from .schedule import NoiseSchedule, build_linear_schedule, subsample
from .seeding import keyed_rng, mix_seed

STRATEGY_NAMES = ("ddim", "resampling", "zsampling", "sop", "ctrlz")

_SECTIONS: dict[str, tuple[str, ...] | None] = {
    "schedule": ("family", "train_steps", "infer_steps", "beta_start", "beta_end"),
    "mixture": ("weights", "means", "scales"),
    "condition": ("kind", "component", "weights"),
    "reward": ("kind", "target", "inner_radius", "outer_radius", "plateau_value", "peak_value"),
    "guidance": ("omega", "mode"),
    "strategy": None,  # _sampler checks the strategy's keys
    "seeds": ("master_seed", "runs"),
    "escape": ("target", "radius"),
}


class ConfigError(ValueError):
    """Invalid experiment configuration; ``field`` names the offending entry."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


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


def _positive_int(value: Any, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(path, f"expected positive integer, got {value!r}")
    return value


def _number(value: Any, path: str) -> float:
    # Unlike math.isfinite, this comparison does not overflow on a JSON integer beyond the float range.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(path, f"expected finite number, got {value!r}")
    return float(value)


def _vector(value: Any, path: str) -> tuple[float, ...]:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)) or not value:
        raise ConfigError(path, "expected a nonempty list of numbers")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


@dataclass(frozen=True)
class ScheduleConfig:
    train_steps: int
    infer_steps: int
    beta_start: float
    beta_end: float

    def build(self) -> NoiseSchedule:
        return subsample(build_linear_schedule(self.train_steps, self.beta_start, self.beta_end), self.infer_steps)


@dataclass(frozen=True)
class MixtureConfig:
    weights: tuple[float, ...]
    means: tuple[tuple[float, ...], ...]
    scales: tuple[float, ...]

    def build(self) -> GaussianMixture:
        return GaussianMixture(np.array(self.weights), np.array(self.means), np.array(self.scales))


@dataclass(frozen=True)
class ConditionConfig:
    kind: str
    component: int
    weights: tuple[float, ...]

    def build(self) -> Condition:
        if self.kind == "unconditional":
            return Condition.unconditional()
        if self.kind == "component":
            return Condition.for_component(self.component)
        return Condition.reweight(np.array(self.weights))


@dataclass(frozen=True)
class RewardConfig:
    kind: str
    target: tuple[float, ...]
    inner_radius: float
    outer_radius: float
    plateau_value: float
    peak_value: float

    def build(self, mix: GaussianMixture) -> RewardSpec:
        if self.kind == "neg_distance":
            return NegDistance(np.array(self.target))
        if self.kind == "log_density":
            return LogDensity(mix)
        return Plateau(
            np.array(self.target),
            self.inner_radius,
            self.outer_radius,
            self.plateau_value,
            self.peak_value,
        )


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
    schedule: ScheduleConfig
    mixture: MixtureConfig
    condition: ConditionConfig
    reward: RewardConfig
    strategy: StrategyConfig
    guidance_omega: float
    guidance_mode: str
    seeds: SeedConfig
    escape: EscapeConfig | None

    def build_guidance(self) -> GuidanceConfig:
        return GuidanceConfig(self.guidance_omega, GuidanceMode(self.guidance_mode))


def parse_config(doc: Mapping[str, Any], master_seed: int | None = None, runs: int | None = None) -> ExperimentConfig:
    """Validate a JSON-style mapping into an ExperimentConfig.

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
    train_steps = _positive_int(sch.get("train_steps", 1000), "config.schedule.train_steps")
    infer_steps = _positive_int(sch.get("infer_steps", 50), "config.schedule.infer_steps")
    if infer_steps > train_steps:
        raise ConfigError("config.schedule.infer_steps", "cannot exceed train_steps")
    beta_start = _number(sch.get("beta_start", 1e-4), "config.schedule.beta_start")
    beta_end = _number(sch.get("beta_end", 0.02), "config.schedule.beta_end")
    schedule = ScheduleConfig(train_steps, infer_steps, beta_start, beta_end)
    try:
        schedule.build()
    except ValueError as exc:
        raise ConfigError("config.schedule.beta_start", str(exc)) from None

    mx = _section(doc, "mixture")
    weights = _vector(_get(mx, "weights", "config.mixture"), "config.mixture.weights")
    means_raw = _get(mx, "means", "config.mixture")
    if not isinstance(means_raw, Sequence) or len(means_raw) != len(weights):
        raise ConfigError("config.mixture.means", "must list one mean per weight")
    means = tuple(_vector(m, f"config.mixture.means[{i}]") for i, m in enumerate(means_raw))
    if len({len(m) for m in means}) != 1:
        raise ConfigError("config.mixture.means", "all means must share one dimension")
    scales = _vector(_get(mx, "scales", "config.mixture"), "config.mixture.scales")
    if len(scales) != len(weights):
        raise ConfigError("config.mixture.scales", "must list one scale per weight")
    if abs(float(np.sum(weights)) - 1.0) > _WEIGHT_TOL or any(w <= 0 for w in weights):
        raise ConfigError("config.mixture.weights", "weights must be positive and sum to 1")
    if any(not 0 < s <= _MAX_SCALE for s in scales):
        raise ConfigError("config.mixture.scales", f"scales must lie in (0, {_MAX_SCALE:g}]")
    mixture = MixtureConfig(weights, means, scales)
    dim = len(means[0])

    cn = _section(doc, "condition", {})
    ckind = cn.get("kind", "unconditional")
    if ckind not in ("unconditional", "component", "reweight"):
        raise ConfigError("config.condition.kind", f"unknown kind {ckind!r}")
    comp = 0
    cweights: tuple[float, ...] = ()
    if ckind == "component":
        comp = _get(cn, "component", "config.condition")
        if not isinstance(comp, int) or isinstance(comp, bool) or not 0 <= comp < len(weights):
            raise ConfigError("config.condition.component", f"index {comp!r} out of range")
    if ckind == "reweight":
        cweights = _vector(_get(cn, "weights", "config.condition"), "config.condition.weights")
        if len(cweights) != len(weights):
            raise ConfigError("config.condition.weights", "length must match mixture components")
        if any(w < 0 for w in cweights) or abs(float(np.sum(cweights)) - 1.0) > _WEIGHT_TOL:
            raise ConfigError("config.condition.weights", "must be nonnegative and sum to 1")
    condition = ConditionConfig(ckind, comp, cweights)

    rw = _section(doc, "reward")
    rkind = _get(rw, "kind", "config.reward")
    if rkind not in ("neg_distance", "log_density", "plateau"):
        raise ConfigError("config.reward.kind", f"unknown kind {rkind!r}")
    rtarget: tuple[float, ...] = ()
    if rkind in ("neg_distance", "plateau"):
        rtarget = _vector(_get(rw, "target", "config.reward"), "config.reward.target")
        if len(rtarget) != dim:
            raise ConfigError("config.reward.target", "dimension must match mixture means")
    inner = _number(rw.get("inner_radius", 1.0), "config.reward.inner_radius")
    outer = _number(rw.get("outer_radius", 2.0), "config.reward.outer_radius")
    plateau_value = _number(rw.get("plateau_value", 0.0), "config.reward.plateau_value")
    peak_value = _number(rw.get("peak_value", 1.0), "config.reward.peak_value")
    if not 0.0 < inner < outer:
        raise ConfigError("config.reward.inner_radius", "require 0 < inner_radius < outer_radius")
    if not plateau_value < peak_value:
        raise ConfigError("config.reward.plateau_value", "must be < peak_value")
    reward = RewardConfig(rkind, rtarget, inner, outer, plateau_value, peak_value)

    gd = _section(doc, "guidance", {})
    omega = _number(gd.get("omega", 1.0), "config.guidance.omega")
    gmode = gd.get("mode", "cfg")
    if gmode not in ("cfg", "cfg++"):
        raise ConfigError("config.guidance.mode", f"unknown mode {gmode!r}")
    if omega < 0:
        raise ConfigError("config.guidance.omega", "must be >= 0")

    st = _section(doc, "strategy", {})
    strategy = StrategyConfig(st.get("name", "ddim"), {k: v for k, v in st.items() if k != "name"})

    sd = _section(doc, "seeds", {})
    if master_seed is None:
        master_seed = sd.get("master_seed", 0)
    if not isinstance(master_seed, int) or isinstance(master_seed, bool) or not 0 <= master_seed < 2**64:
        raise ConfigError("config.seeds.master_seed", f"expected an integer in [0, 2**64), got {master_seed!r}")
    runs = _positive_int(sd.get("runs", 1) if runs is None else runs, "config.seeds.runs")
    seeds = SeedConfig(master_seed, runs)

    escape: EscapeConfig | None = None
    if "escape" in doc or rtarget:
        es = _section(doc, "escape", {"target": rtarget})
        etarget = _vector(_get(es, "target", "config.escape"), "config.escape.target")
        if len(etarget) != dim:
            raise ConfigError("config.escape.target", "dimension must match mixture means")
        radius = _number(es.get("radius", 1.0), "config.escape.radius")
        if radius <= 0:
            raise ConfigError("config.escape.radius", "must be > 0")
        escape = EscapeConfig(etarget, radius)

    cfg = ExperimentConfig(schedule, mixture, condition, reward, strategy, omega, gmode, seeds, escape)
    _sampler(strategy, cfg.build_guidance(), infer_steps)
    return cfg


def load_config(path: str | Path, master_seed: int | None = None, runs: int | None = None) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from exc
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
    ``run(ctx, x_T, cond, mix, sched, reward, seed)``. Each call looks up the
    ``run_*`` function anew, so rebinding it on this module (as a tracer does)
    takes effect.
    """
    path = "config.strategy"
    name, params = strategy.name, dict(strategy.params)
    if name not in STRATEGY_NAMES:
        raise ConfigError(f"{path}.name", f"unknown strategy {name!r}")
    if name == "ctrlz":
        try:
            for key, kind in (("initiation", InitiationPolicy), ("exploration_guidance", ExplorationGuidance)):
                if key in params:
                    params[key] = kind(params[key])
            ctrlz = CtrlZParams(guidance=guidance, **params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(path, str(exc)) from None
        if ctrlz.window > steps:
            raise ConfigError(f"{path}.window", f"{ctrlz.window} exceeds the {steps} sampling steps")
        return lambda ctx, x_T, cond, mix, sched, reward, seed: run_ctrlz(ctx, x_T, cond, mix, sched, reward, ctrlz, seed)
    known = {"sop": "n_candidates", "zsampling": "inversion_omega"}.get(name)
    for key in params:
        if key != known:
            raise ConfigError(f"{path}.{key}", f"not a parameter of strategy {name!r}")
    if name == "sop":
        n = _positive_int(params.get("n_candidates", 4), f"{path}.n_candidates")
        return lambda ctx, x_T, cond, mix, sched, reward, seed: run_sop(ctx, x_T, cond, mix, guidance, sched, reward, n, seed)
    if name == "zsampling":
        omega = _number(params.get("inversion_omega", 0.0), f"{path}.inversion_omega")
        if omega < 0:
            raise ConfigError(f"{path}.inversion_omega", "must be >= 0")
        inv = GuidanceConfig(omega, GuidanceMode.CFG)
        return lambda ctx, x_T, cond, mix, sched, reward, seed: run_zsampling(ctx, x_T, cond, mix, guidance, sched, inv, seed)
    if name == "resampling":
        return lambda ctx, x_T, cond, mix, sched, reward, seed: run_resampling(ctx, x_T, cond, mix, guidance, sched, seed)
    return lambda ctx, x_T, cond, mix, sched, reward, seed: run_ddim(ctx, x_T, cond, mix, guidance, sched, seed)


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
    initiation: dict[str, int] = {}
    depth: dict[str, int] = {}
    for res in results:
        for ev in res.events:
            initiation[str(ev.t)] = initiation.get(str(ev.t), 0) + 1
            key = f"{ev.terminal_depth}:{ev.terminated_by.value}"
            depth[key] = depth.get(key, 0) + 1
    finals_arr = np.array(finals)
    stats = AggregateStats(
        strategy=label,
        runs=len(results),
        mean_final_reward=float(finals_arr.mean()),
        std_final_reward=float(finals_arr.std(ddof=1)) if len(finals) > 1 else 0.0,
        escape_rate=escape_rate,
        mean_nfe_avg=float(np.mean([r.nfe_avg for r in results])),
        mean_reward_calls=float(np.mean([r.reward_calls for r in results])),
        initiation_histogram=dict(sorted(initiation.items(), key=lambda kv: int(kv[0]))),
        depth_histogram=dict(sorted(depth.items())),
    )
    return StrategyOutcome(stats, results, finals, escaped)


def run_experiment(
    cfg: ExperimentConfig,
    strategy: StrategyConfig | None = None,
    label: str | None = None,
) -> StrategyOutcome:
    """Execute the configured batch of independent runs and aggregate them.

    Per-run seeds derive from (master_seed, run_index) only, so repeated
    invocations and different strategies replay identical initial noises.
    """
    strat = strategy if strategy is not None else cfg.strategy
    sched = cfg.schedule.build()
    mix = cfg.mixture.build()
    cond = cfg.condition.build()
    reward = cfg.reward.build(mix)
    run = _sampler(strat, cfg.build_guidance(), sched.num_steps)
    results = []
    for run_index in range(cfg.seeds.runs):
        run_seed = mix_seed(cfg.seeds.master_seed, run_index)
        x_T = LatentState(keyed_rng(run_seed, 0).standard_normal(mix.dim), sched.num_steps)
        results.append(run(EvalContext(), x_T, cond, mix, sched, reward, run_seed))
    return _aggregate(label or strat.name, results, cfg, cond, reward)


def compare(cfg: ExperimentConfig, strategies: Sequence[str]) -> dict[str, StrategyOutcome]:
    """Run several strategies over identical per-run seeds."""
    if not strategies:
        raise ConfigError("strategies", "need at least one strategy")
    outcomes: dict[str, StrategyOutcome] = {}
    for name in strategies:
        if name not in STRATEGY_NAMES:
            raise ConfigError("strategies", f"unknown strategy {name!r}")
        params = cfg.strategy.params if cfg.strategy.name == name else {}
        outcomes[name] = run_experiment(cfg, StrategyConfig(name, params), label=name)
    return outcomes


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
    if cfg.strategy.name != "ctrlz":
        raise ConfigError("config.strategy.name", "sweep requires the ctrlz strategy")
    outcomes: dict[str, StrategyOutcome] = {}
    for d in max_depths:
        for n in candidate_counts:
            params = dict(cfg.strategy.params)
            params["max_depth"] = d
            params["n_candidates"] = n
            label = f"ctrlz[dmax={d},n={n}]"
            outcomes[label] = run_experiment(cfg, StrategyConfig("ctrlz", params), label=label)
    return outcomes


def write_outputs(out_dir: str | Path, outcomes: Mapping[str, StrategyOutcome]) -> None:
    """Emit runs.csv, events.jsonl, summary.json and histograms.csv.

    File contents are byte-stable across reruns of the same configuration;
    wall-clock metadata goes to the meta.json sidecar only.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "runs.csv", "w", newline="") as fh:
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

    with open(out / "events.jsonl", "w") as fh:
        for label, outcome in outcomes.items():
            for i, res in enumerate(outcome.results):
                for ev in res.events:
                    record = asdict(ev)
                    record["terminated_by"] = ev.terminated_by.value
                    record["run_index"] = i
                    record["strategy"] = label
                    fh.write(json.dumps(record, sort_keys=True) + "\n")

    summary = {label: asdict(outcome.stats) for label, outcome in outcomes.items()}
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    initiation: dict[str, int] = {}
    depth: dict[str, int] = {}
    for outcome in outcomes.values():
        for bucket, count in outcome.stats.initiation_histogram.items():
            initiation[bucket] = initiation.get(bucket, 0) + count
        for bucket, count in outcome.stats.depth_histogram.items():
            depth[bucket] = depth.get(bucket, 0) + count
    with open(out / "histograms.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "bucket", "count"])
        for bucket in sorted(initiation, key=int):
            writer.writerow(["initiation", bucket, initiation[bucket]])
        for bucket in sorted(depth):
            writer.writerow(["depth", bucket, depth[bucket]])

    with open(out / "meta.json", "w") as fh:
        json.dump({"written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}, fh, indent=2)
        fh.write("\n")
