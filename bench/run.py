"""ctrlz benchmark: one workload per invocation, end-to-end or traced.

    python3 bench/run.py --workload compare_two_mode --seed 20260810 --seconds 50 --trace 0

With ``--trace 0`` it times set-up in fresh processes and runs the workload
in one more fresh process, untraced, for ``--seconds``. With ``--trace 1`` it
runs the workload untraced and then traced, half the time each, and reports
the per-layer numbers from the traced run. The reference kernel is timed
before every unit, and unit times are reported at the kernel's nominal speed
(see reference_kernel.py). Either way every unit's outputs are checked (NFE
and reward-call identities, determinism, digests at the default seed) and
the last stdout line is the JSON result. The exit code is 1 when any check
fails.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from tracer import layer_times
from workloads import CTRLZ, DEFAULT_SEED, SOP_CANDIDATES, T, WORKLOADS, unit_seeds, write_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STABLE_FILES = ("runs.csv", "events.jsonl", "summary.json", "histograms.csv")
SETUP_SAMPLES = 15
BLAS_THREADS = "1"
STRATEGIES = ("ddim", "resampling", "zsampling", "sop", "ctrlz")
NO_SPANS = {"calls": 0, "self_s": 0.0, "durations": np.empty(0)}
CALL_LAYERS = (
    "models.predict", "models.exact_epsilon", "dynamics.ddim_step", "dynamics.stochastic_invert",
    "dynamics.deterministic_invert", "dynamics.clean_estimate", "dynamics.guided_epsilon",
    "seeding.keyed_rng", "rewards.score",
)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def launch(args: list[str]) -> dict:
    """Run worker.py in a fresh process and return its result."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_counts(label: str, events: list[dict]) -> tuple[int, int, str | None]:
    """NFE and reward calls a run of ``label`` must report, given its events.

    ``label`` is a strategy name, or ``ctrlz[dmax=D,n=N]`` for a sweep cell.
    """
    if label in ("ddim", "resampling", "zsampling"):
        if events:
            return -1, -1, "non-search strategy logged exploration events"
        return {"ddim": 1, "resampling": 2, "zsampling": 3}[label] * T, 0, None
    if label == "sop":
        n = SOP_CANDIDATES
        return T + n * (2 * T - 1), T * (n + 1), None
    cell = re.fullmatch(r"ctrlz\[dmax=(\d+),n=(\d+)\]", label)
    if cell:
        dmax, n = int(cell[1]), int(cell[2])
    elif label == "ctrlz":
        dmax, n = CTRLZ["max_depth"], CTRLZ["n_candidates"]
    else:
        return -1, -1, f"unknown strategy label {label!r}"
    nfe, candidates = T, 0
    for ev in events:
        tried = ev["depths_tried"]
        if not 1 <= tried <= dmax or ev["candidates_evaluated"] != tried * n:
            return -1, -1, f"event at t={ev['t']} tried {tried} depths, {ev['candidates_evaluated']} candidates"
        if ev["terminal_depth"] != min(tried, T - ev["t"]):
            return -1, -1, f"event at t={ev['t']} has terminal depth {ev['terminal_depth']}"
        nfe += sum(n * (min(j, T - ev["t"]) + 1) for j in range(1, tried + 1))
        candidates += ev["candidates_evaluated"]
    return nfe, CTRLZ["window"] + candidates, None


def check_unit(unit_dir: Path, spec: dict, runs: int) -> dict:
    """Check one unit's outputs run by run; return counts, digests and failures."""
    events = defaultdict(list)
    with open(unit_dir / "events.jsonl") as fh:
        for line in fh:
            ev = json.loads(line)
            events[ev["strategy"], ev["run_index"]].append(ev)
    with open(unit_dir / "runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    failures, per_run, failed_runs = [], [], 0
    for row in rows:
        label, index = row["strategy"], int(row["run_index"])
        nfe, reward_calls = int(row["nfe_total"]), int(row["reward_calls"])
        want_nfe, want_calls, problem = expected_counts(label, events[label, index])
        if problem is None and (nfe, reward_calls) != (want_nfe, want_calls):
            problem = f"NFE {nfe} / reward calls {reward_calls}, expected {want_nfe} / {want_calls}"
        if problem is None and float(row["nfe_avg"]) != nfe / T:
            problem = f"nfe_avg {row['nfe_avg']} is not {nfe} / {T}"
        if problem is not None:
            failed_runs += 1
            print(f"FAILED {unit_dir.name} {label} run {index}: {problem}")
        per_run.append((label.split("[")[0], nfe, reward_calls, events[label, index]))
    labels = Counter(row["strategy"] for row in rows)
    if labels != {name: runs for name in spec["strategies"]}:
        failures.append(f"{unit_dir.name}: expected {runs} runs of each of {spec['strategies']}, got {dict(labels)}")
    digests = {name: hashlib.sha256((unit_dir / name).read_bytes()).hexdigest() for name in STABLE_FILES}
    written = sum(f.stat().st_size for f in unit_dir.iterdir())
    return {"runs": per_run, "failed_runs": failed_runs, "failures": failures, "digests": digests, "bytes": written}


def check_units(out_dir: Path, units: int, configs: int, spec: dict, runs: int) -> tuple[list[dict], list[str]]:
    """Check every unit, and that units of the same config wrote identical files.

    The returned failures are those that no single run can be blamed for.
    """
    checked = [check_unit(out_dir / f"unit{i}", spec, runs) for i in range(units)]
    failures = [f for unit in checked for f in unit["failures"]]
    for i, unit in enumerate(checked[configs:], configs):
        if unit["digests"] != checked[i % configs]["digests"]:
            failures.append(f"unit{i} outputs differ from unit{i % configs}: the workload is not deterministic")
    return checked, failures


def run_workers(workload: str, seed: int, runs: int, work: Path, seconds: float, spans: Path | None = None,
                configs: int | None = None, setups: int = 0):
    """Write the unit configs, run units in one fresh worker, and check every unit."""
    spec = WORKLOADS[workload]
    configs = configs or spec["unit_configs"]
    out = work / f"{'traced' if spans else 'plain'}-{runs}"
    paths = [str(write_config(workload, s, runs, work)) for s in unit_seeds(seed, configs)]
    extra = ["--spans", str(spans)] if spans else []
    result = launch(["--workload", workload, "--config", *paths, "--out", str(out),
                     "--seconds", str(seconds), "--setups", str(setups), *extra])
    checked, failures = check_units(out, len(result["walls"]), configs, spec, runs)
    return result, checked, failures


def normalised(seconds: list[float], kernels: list[float], nominal: float) -> list[float]:
    """Unit times rescaled to the host speed at which the kernel takes ``nominal`` seconds.

    The scale is the nominal time over the mean kernel time of the same run.
    The host switches between a fast and a slow state every few seconds, so
    the median of a run jumps between the two; the mean moves smoothly with
    the share of time spent slow, and that share is the same for the units
    and the kernels interleaved with them.
    """
    scale = nominal / statistics.fmean(kernels)
    return [s * scale for s in seconds]


def reference_check(workload: str, seed: int, work: Path, digests: dict) -> tuple[list[dict], list[str]]:
    """At the default seed, compare digest prefixes with bench/reference.json.

    Returns the extra units run for the check and the failures found.
    """
    if seed != DEFAULT_SEED:
        return [], []
    units, failures = [], []
    reference_runs = WORKLOADS[workload].get("reference_runs")
    if reference_runs is not None:
        _, units, failures = run_workers(workload, seed, reference_runs, work, 0.0, configs=1)
        digests = units[0]["digests"]
    reference = json.loads((BENCH / "reference.json").read_text())["digests"][workload]
    failures += [
        f"{name} digest {digests[name][:16]} differs from reference {prefix}"
        for name, prefix in reference.items()
        if not digests[name].startswith(prefix)
    ]
    return units, failures


def describe(label: str, seconds: list[float]) -> None:
    """Print a timing's sample count, minimum, median and 90th percentile."""
    p90 = statistics.quantiles(seconds, n=10)[-1] if len(seconds) > 1 else seconds[0]
    print(f"{label}: n={len(seconds)} min={min(seconds):.4f} median={statistics.median(seconds):.4f} "
          f"p90={p90:.4f} all=" + " ".join(f"{x:.4f}" for x in seconds))


def search_stats(runs: list[tuple]) -> dict:
    """Search counters over the adaptive (ctrlz) runs among ``runs``."""
    adaptive = [r for r in runs if r[0] == "ctrlz"]
    events = [ev for r in adaptive for ev in r[3]]
    nfe = [r[1] for r in adaptive] or [0]
    total = sum(nfe)
    return {
        "samplers.search.events": len(events),
        "samplers.search.candidates": sum(ev["candidates_evaluated"] for ev in events),
        "samplers.search.accept_frac": (
            sum(ev["accepted_score"] > ev["default_score"] for ev in events) / len(events) if events else 0.0
        ),
        "samplers.search.explore_nfe_frac": (total - T * len(adaptive)) / total if total else 0.0,
        "samplers.search.nfe_per_run_min": min(nfe),
        "samplers.search.nfe_per_run_p50": float(np.median(nfe)),
        "samplers.search.nfe_per_run_max": max(nfe),
    }


def trace_failures(stats: dict, checked: list[dict]) -> list[str]:
    """Exact call counts the traced run must show if every call site was rebound."""
    runs = [r for unit in checked for r in unit["runs"]]
    calls = lambda layer: stats.get(layer, NO_SPANS)["calls"]  # noqa: E731
    nfe = sum(r[1] for r in runs)
    draws = len(runs)  # the harness draws x_T once per run
    for label, _, _, events in runs:
        if label == "resampling":
            draws += T
        elif label == "sop":
            draws += T * SOP_CANDIDATES
        elif label == "ctrlz":
            draws += sum(ev["candidates_evaluated"] for ev in events)
    want = {
        "models.predict": nfe,
        "models.exact_epsilon": 2 * nfe,  # every workload conditions by reweighting: both branches per pass
        "rewards.score": sum(r[2] for r in runs) + len(runs),  # plus the harness's final score per run
        "seeding.keyed_rng": draws,
    }
    for strategy in STRATEGIES:
        want[f"samplers.run_{strategy}"] = sum(r[0] == strategy for r in runs)
    return [f"traced {layer}: {calls(layer)} calls, expected {n}" for layer, n in want.items() if calls(layer) != n]


def layer_metrics(stats: dict, checked: list[dict], traced_unit: float, plain_unit: float) -> dict:
    """Per-layer metrics named as in BENCHMARK.json, per traced unit; a layer never reached reports zeros."""
    units = len(checked)
    metrics = {}
    for layer in CALL_LAYERS:
        entry = stats.get(layer, NO_SPANS)
        metrics[f"{layer}.calls"] = (entry["calls"] // units, "count")
        metrics[f"{layer}.self_s"] = (entry["self_s"] / units, "s")
        metrics[f"{layer}.us_per_call"] = (float(entry["durations"].mean() * 1e6) if entry["calls"] else 0.0, "us")
    for strategy in STRATEGIES:
        entry = stats.get(f"samplers.run_{strategy}", NO_SPANS)
        ms = entry["durations"] * 1e3
        metrics[f"samplers.run_{strategy}.calls"] = (entry["calls"] // units, "count")
        metrics[f"samplers.run_{strategy}.self_s"] = (entry["self_s"] / units, "s")
        metrics[f"samplers.run_{strategy}.ms_p50"] = (float(np.percentile(ms, 50)) if ms.size else 0.0, "ms")
        metrics[f"samplers.run_{strategy}.ms_p99"] = (float(np.percentile(ms, 99)) if ms.size else 0.0, "ms")
    search_units = {"accept_frac": "ratio", "explore_nfe_frac": "ratio", "events": "count", "candidates": "count"}
    for name, value in search_stats([r for unit in checked for r in unit["runs"]]).items():
        unit = search_units.get(name.rsplit(".", 1)[1], "nfe")
        metrics[name] = (value // units if unit == "count" else value, unit)
    per_call = lambda layer: float(np.median(stats[layer]["durations"]))  # noqa: E731
    schedules = stats["schedule.build_linear_schedule"]
    schedule_s = schedules["durations"].sum() + stats.get("schedule.subsample", NO_SPANS)["durations"].sum()
    metrics["harness.load_config.s"] = (per_call("harness.load_config"), "s")
    metrics["harness.run_experiment.self_s"] = (stats["harness.run_experiment"]["self_s"] / units, "s")
    metrics["harness.write_outputs.s"] = (per_call("harness.write_outputs"), "s")
    metrics["harness.write_outputs.bytes"] = (checked[0]["bytes"], "B")
    metrics["schedule.build.s"] = (float(schedule_s / schedules["calls"]), "s")
    metrics["trace.overhead_frac"] = (traced_unit / plain_unit - 1.0, "ratio")
    return metrics


def environment() -> str:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return (f"nproc {os.cpu_count()} python {platform.python_version()} numpy {np.__version__} "
            f"blas {blas.get('name', '?')} {blas.get('version', '?')} blas_threads {BLAS_THREADS}")


def print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def baseline_table(metrics: dict) -> None:
    baseline = json.loads((BENCH / "reference.json").read_text())["baseline_us_per_call"]
    print(f"{'layer':28s} {'traced us':>10s} {'ROADMAP us':>10s} {'ratio':>6s}")
    for layer, us in baseline.items():
        traced = metrics[f"{layer}.us_per_call"][0]
        ratio = f"{traced / us:6.2f}" if traced else "     -"
        print(f"{layer:28s} {traced:10.1f} {us:10.1f} {ratio}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ctrlz").is_dir():
        raise SystemExit(f"no ctrlz package under {ROOT / 'src'}")

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runs = WORKLOADS[args.workload]["runs"]
    nominal = json.loads((BENCH / "reference.json").read_text())["kernel_nominal_s"]
    try:
        if args.trace:
            plain, units, failures = run_workers(args.workload, args.seed, runs, work, args.seconds / 2)
            spans = work / "spans.npz"
            traced, checked, traced_failures = run_workers(args.workload, args.seed, runs, work, args.seconds / 2, spans)
            failures += traced_failures
            stats = layer_times(spans)
            failures += trace_failures(stats, checked)
            if any(a["digests"] != b["digests"] for a, b in zip(checked, units)):
                failures.append("traced outputs differ from untraced outputs")
            plain_norm = normalised(plain["walls"], plain["kernels"], nominal[args.workload])
            traced_norm = normalised(traced["walls"], traced["kernels"], nominal[args.workload])
            describe("untraced unit s", plain["walls"])
            describe("untraced unit s, normalised", plain_norm)
            describe("traced unit s", traced["walls"])
            describe("traced unit s, normalised", traced_norm)
            metrics = layer_metrics(stats, checked, statistics.fmean(traced_norm), statistics.fmean(plain_norm))
            baseline_table(metrics)
            units += checked
        else:
            plain, units, failures = run_workers(args.workload, args.seed, runs, work, args.seconds, setups=SETUP_SAMPLES)
            setups = plain["setups"]
            unit_norm = normalised(plain["walls"], plain["kernels"], nominal[args.workload])
            describe("unit s", plain["walls"])
            describe("kernel s", plain["kernels"])
            describe("unit s, normalised", unit_norm)
            describe("setup s", setups)
            nfe = sum(r[1] for unit in units for r in unit["runs"])
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "norm_wall_s": (statistics.fmean(unit_norm), "s"),
                "norm_nfe_per_s": (nfe / sum(unit_norm), "1/s"),
                "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
            }
        reference_units, reference_failures = reference_check(args.workload, args.seed, work, units[0]["digests"])
        units += reference_units
        failures += reference_failures
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted = sum(len(unit["runs"]) for unit in units)
    failed = attempted if failures else sum(unit["failed_runs"] for unit in units)
    for failure in failures:
        print(f"FAILED {failure}")
    print("digests:", " ".join(f"{name}={digest[:16]}" for name, digest in units[0]["digests"].items()))
    print(environment())
    print(f"workload {args.workload} seed {args.seed} units {len(units)} runs {attempted} "
          f"failed_frac {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print_result(failed == 0, attempted, failed, metrics)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
