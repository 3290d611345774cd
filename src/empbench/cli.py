"""Command-line interface for the benchmark harness.

Subcommands:

* ``run <config>``       full sweep, writes records.csv, summary.csv (mean
                         squared errors) and tv_summary.csv (mean
                         total-variation distances)
* ``oracle <env>``       print the exact average reward and stationary
                         distribution of the default target policy
* ``env-check <env>``    validate the environment's invariants

Run as ``empbench <subcommand>`` or ``python -m empbench.cli <subcommand>``.
Exit codes: 0 success, 2 invalid configuration, 3 runtime error.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .envs import ENVIRONMENTS, build_environment
from .harness import (ExperimentConfig, InvalidConfig, TvSummaryRow, _cell_context,
                      check_run_args, emit_csv, load_config, run_experiment,
                      summarize_mse, summarize_tv)


def _cmd_run(args) -> int:
    """Run the config's sweep and write its records and both summaries; the
    output directory is created before the sweep starts."""
    cfg = load_config(args.config)
    out = Path(args.out if args.out is not None else cfg.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidConfig(f"cannot create output directory {str(out)!r}: "
                            f"{exc.strerror or exc}") from None
    records = run_experiment(cfg, master_seed=args.seed, workers=args.workers,
                             measure_time=args.timings)
    emit_csv(records, out / "records.csv")
    emit_csv(summarize_mse(records), out / "summary.csv")
    emit_csv(summarize_tv(records), out / "tv_summary.csv", TvSummaryRow)
    print(f"wrote {len(records)} records to {out / 'records.csv'}")
    return 0


def _cmd_oracle(args) -> int:
    *_, value, dist = _cell_context(ExperimentConfig(environment=args.environment),
                                    args.seed)
    print(f"environment = {args.environment}")
    print(f"average_reward = {value:.12g}")
    print("stationary_distribution = "
          + " ".join(format(p, ".12g") for p in dist.probs))
    return 0


def _cmd_env_check(args) -> int:
    mdp = build_environment(args.environment)  # constructor validates invariants
    rows = np.asarray(mdp.transition_rows.sum(axis=1))
    print(f"environment = {args.environment}")
    print(f"num_states = {mdp.num_states}")
    print(f"num_actions = {mdp.num_actions}")
    print(f"max transition row-sum deviation = {np.abs(rows - 1.0).max():.3g}")
    print(f"initial_dist sum deviation = {abs(mdp.initial_dist.sum() - 1.0):.3g}")
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="empbench",
                                     description="off-policy evaluation benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full sweep from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p_run.add_argument("--workers", type=int, default=1,
                       help="processes that run cells in parallel, at most one per "
                            "cell (default 1); each cell solves its sparse corrections "
                            "on max(1, CPUs // processes) threads")
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--timings", action="store_true",
                       help="record real wall times: a method's own assembly and "
                            "estimate plus its own solves' durations (off by default "
                            "so repeated runs emit byte-identical CSV)")
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="print exact target-policy values")
    p_oracle.add_argument("environment", choices=sorted(ENVIRONMENTS))
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_check = sub.add_parser("env-check", help="validate environment invariants")
    p_check.add_argument("environment", choices=sorted(ENVIRONMENTS))
    p_check.set_defaults(func=_cmd_env_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "seed" in args:  # before anything touches the file system
            check_run_args(args.seed, getattr(args, "workers", 1))
        return args.func(args)
    except InvalidConfig as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
