"""Command-line entry point.

Subcommands:
  run                one or more seeded runs, optionally both schemes A/B
  sweep-connections  throughput vs number of CBR connections
  replay             recompute a metric from an emitted trace file

Exit status is 0 on success. When `run` writes its outputs but some runs
failed, it prints "N of M runs failed" on stderr and exits 1; the failed
runs' rows in summary.csv carry their errors. Any other failure prints the
error class and message and exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .config import load_config, validate_config
from .harness import FailedRun, replay_metric, run_experiment, throughput_vs_connections
from .metrics import METRIC_FUNCTIONS


def _parse_seeds(text: str | None, config_seed: int) -> list[int]:
    """A comma-separated list ('1,2,7'), a count ('5' -> seeds 1..5), or
    the config's own seed when the flag is omitted."""
    if text is None:
        return [config_seed]
    if "," in text:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    count = int(text)
    if count < 1:
        raise ValueError("seed count must be >= 1")
    return list(range(1, count + 1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwsnsim",
        description="Discrete-event simulator of priority scheduling in a mobile sensor network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the scenario for one or more seeds")
    p_run.add_argument("--config", help="scenario YAML; omit for stock defaults")
    p_run.add_argument("--scheduler", choices=["mdlps", "data", "both"], default=None,
                       help="scheme to run; 'both' pairs the schemes per seed")
    p_run.add_argument("--seeds", help="comma list ('1,2,7') or count ('5'); "
                       "omit for the config's seed")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--no-traces", action="store_true", help="skip trace files")

    p_sweep = sub.add_parser("sweep-connections", help="throughput vs connection count")
    p_sweep.add_argument("--config", help="scenario YAML; omit for stock defaults")
    p_sweep.add_argument("--max-n", type=int, required=True, help="sweep 1..max-n connections")
    p_sweep.add_argument("--seeds", help="comma list or count; omit for the config's seed")
    p_sweep.add_argument("--scheduler", choices=["mdlps", "data"], default=None)
    p_sweep.add_argument("--out", required=True, help="output directory")

    p_replay = sub.add_parser("replay", help="recompute a metric from a trace file")
    p_replay.add_argument("--trace", required=True, help="trace .jsonl file")
    p_replay.add_argument("--metric", required=True, choices=sorted(METRIC_FUNCTIONS),
                          help="metric to recompute")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config) if args.config else validate_config({})
            scheduler = args.scheduler or cfg.scheduler
            schemes = ["mdlps", "data"] if scheduler == "both" else [scheduler]
            seeds = _parse_seeds(args.seeds, cfg["seed"])
            reports = run_experiment(cfg, seeds, schemes, out_dir=args.out,
                                     write_traces=not args.no_traces)
            print(f"wrote {len(reports)} run(s) to {args.out}")
            failed = sum(1 for rep in reports if isinstance(rep, FailedRun))
            if failed:
                print(f"{failed} of {len(reports)} runs failed", file=sys.stderr)
                return 1
        elif args.command == "sweep-connections":
            cfg = load_config(args.config) if args.config else validate_config({})
            if args.max_n < 1:
                raise ValueError("--max-n must be >= 1")
            series = throughput_vs_connections(
                cfg, list(range(1, args.max_n + 1)), _parse_seeds(args.seeds, cfg["seed"]),
                scheme=args.scheduler, out_dir=args.out)
            for n, v in series:
                print(f"{n}\t{v:.3f} kbit/s")
        elif args.command == "replay":
            value = replay_metric(args.trace, args.metric)
            if isinstance(value, float) and math.isnan(value):
                value = None  # a delay over no final delivery: JSON has no NaN
            print(json.dumps(value, sort_keys=True, default=str))
    except Exception as exc:  # named error + nonzero exit, per the CLI contract
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
