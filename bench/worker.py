"""One fresh benchmark process: import ctrlz, load the first config, build the
domain objects, then run units of the workload until the time budget is
spent, timing the reference kernel right before each unit. Unit i runs
config i modulo the number of configs. Between units, at even intervals, it
starts a fresh copy of itself that stops after set-up and times that
set-up. Prints one JSON line with its timings.

Run it through run.py, which pins the BLAS thread count and checks outputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

from reference_kernel import ReferenceKernel
from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True, nargs="+", help="unit configs, used in turn")
    parser.add_argument("--out", help="directory for the units' outputs; omit to stop after set-up")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", help="trace every layer and save the spans to this .npz file")
    parser.add_argument("--setups", type=int, default=0, help="set-up timings to take during the run")
    args = parser.parse_args()

    from ctrlz import harness

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def build(path: str):
        cfg = harness.load_config(path)
        if cfg.strategy.params.get("workers", 1) != 1:
            raise SystemExit("the benchmark generates load from one process: workers must be 1")
        cfg.schedule.build()
        mix = cfg.mixture.build()
        cfg.condition.build()
        cfg.reward.build(mix)
        cfg.build_guidance()
        return cfg

    configs = [build(args.config[0])]
    ready = time.perf_counter()
    if args.out is None:
        print(json.dumps({"ready": ready}))
        return
    configs += [build(path) for path in args.config[1:]]

    spec = WORKLOADS[args.workload]
    kernel = ReferenceKernel(json.loads(Path(args.config[0]).read_text()), spec["kernel_runs"])

    def run_unit(cfg, out_dir: Path) -> None:
        if "sweep" in spec:
            outcomes = harness.sweep(cfg, *spec["sweep"])
        else:
            outcomes = harness.compare(cfg, spec["strategies"])
        harness.write_outputs(out_dir, outcomes)

    if tracer is not None:
        run_unit = tracer.wrap("bench.unit", run_unit)

    def time_setup() -> float:
        probe = [sys.executable, __file__, "--workload", args.workload, "--config", args.config[0]]
        started = time.perf_counter()
        out = subprocess.run(probe, capture_output=True, text=True, check=True, timeout=60).stdout
        return json.loads(out.strip().splitlines()[-1])["ready"] - started

    kernel()  # first touch of the kernel's arrays and code paths, untimed
    walls, kernels, setups = [], [], []
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        kernel()
        middle = time.perf_counter()
        run_unit(configs[len(walls) % len(configs)], Path(args.out) / f"unit{len(walls)}")
        end = time.perf_counter()
        kernels.append(middle - start)
        walls.append(end - middle)
        if len(setups) < args.setups and end - began >= len(setups) * args.seconds / args.setups:
            setups.append(time_setup())
        elif end - began + (end - start) > args.seconds:
            break
    if tracer is not None:
        tracer.save(args.spans)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ready": ready, "walls": walls, "kernels": kernels, "setups": setups, "peak_rss_mb": peak_kb / 1024}))


if __name__ == "__main__":
    main()
