"""Command line entry point: run / sweep / compare over a JSON config."""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .dynamics import NonFiniteError
from .harness import ConfigError, compare, load_config, run_experiment, sweep, write_outputs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctrlz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="path to the experiment JSON config")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--runs", type=int, default=None, help="override run count")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")

    common(sub.add_parser("run", help="run the configured strategy"))

    p_sweep = sub.add_parser("sweep", help="grid over exploration depth and width")
    common(p_sweep)
    p_sweep.add_argument("--dmax", type=_int_list, default=[1, 2, 3], help="comma-separated depths")
    p_sweep.add_argument("--n", type=_int_list, default=[1, 2, 4], help="comma-separated candidate counts")

    p_cmp = sub.add_parser("compare", help="run several strategies on shared seeds")
    common(p_cmp)
    p_cmp.add_argument(
        "--strategies",
        default="ddim,resampling,zsampling,sop,ctrlz",
        help="comma-separated strategy names",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed, args.runs)

        if args.command == "run":
            outcomes = {cfg.strategy.name: run_experiment(cfg)}
        elif args.command == "sweep":
            outcomes = sweep(cfg, args.dmax, args.n)
        else:
            names = [s for s in args.strategies.split(",") if s]
            outcomes = compare(cfg, names)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    write_outputs(args.out, outcomes)
    header = f"{'strategy':28s} {'runs':>5s} {'mean_reward':>12s} {'escape':>7s} {'nfe_avg':>8s}"
    print(header)
    for label, outcome in outcomes.items():
        stats = outcome.stats
        escape = "-" if stats.escape_rate is None else f"{stats.escape_rate:.3f}"
        print(
            f"{label:28s} {stats.runs:5d} {stats.mean_final_reward:12.4f} {escape:>7s} {stats.mean_nfe_avg:8.3f}"
        )
    print(f"results written to {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
