"""Command-line entry points: run a campaign, regenerate a report, or
validate a config and its data without training."""

import os

# One BLAS thread per process, set before anything loads numpy: campaign
# jobs are forked and inherit the parent's already-started BLAS thread
# pool, so setting these later has no effect. A value the user set wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .experiment import emit_report, load_config, prepare, run_campaign, summarize
from .normalization import DATA_MAX, KINDS, LAST_CLOSE, LAST_PRICE


def _print_table(summary: dict) -> None:
    """The summary table of a campaign, from the summary_dict that summarize returns."""
    header = f"{'method':<14}{'FAPV':>22}{'MDD':>22}{'SR (excess)':>24}{'max FAPV':>12}"
    print(header)
    print("-" * len(header))
    mean_fapv = {}
    for kind, method in summary["methods"].items():
        agg, failures = method["aggregates"], method["failures"]
        if agg is None:  # every run failed
            print(f"{kind:<14}all {len(failures)} runs failed")
            continue
        mean_fapv[kind] = agg["fapv"]["mean"]
        cells = [f"{agg[name]['mean']:.4f} +- {agg[name]['half_width']:.4f}"
                 for name in ("fapv", "mdd", "sharpe_excess")]
        print(f"{kind:<14}{cells[0]:>22}{cells[1]:>22}{cells[2]:>24}{method['max_fapv']:>12.4f}")
        if failures:
            print(f"  warning: {len(failures)} failed run(s): " + ", ".join(f"seed {f['seed']}" for f in failures))
    if set(KINDS) <= set(mean_fapv):
        leads = mean_fapv[DATA_MAX] >= max(mean_fapv[LAST_CLOSE], mean_fapv[LAST_PRICE])
        print(f"\ndata_max mean FAPV >= both state normalizations: {leads}")


def _exit_status(summary: dict) -> int:
    """1 when some method has no successful run, else 0."""
    return 0 if all(method["runs"] for method in summary["methods"].values()) else 1


def _cmd_run(args) -> int:
    overrides = {name: getattr(args, name) for name in ("runs", "steps", "workers") if getattr(args, name) is not None}
    config = replace(load_config(args.config), **overrides)
    out_dir = Path(args.out) if args.out else Path("campaign_" + "-".join(config.methods))
    # checked before any run: emit_report can only write into a directory
    existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"output directory {out_dir}: {existing} is not a directory")
    if existing == out_dir and any(out_dir.iterdir()):
        raise FileExistsError(f"output directory {out_dir} is not empty: a campaign needs a new or empty directory")
    summary = emit_report(run_campaign(config), out_dir)  # loads every method's data before any run starts
    print(f"campaign written to {out_dir}")
    _print_table(summary)
    return _exit_status(summary)


def _cmd_report(args) -> int:
    summary = summarize(args.campaign_dir)
    _print_table(summary)
    return _exit_status(summary)


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    train, test, _ = prepare(config)[config.methods[0]]
    window = config.time_window
    print(f"ok: {train.n_assets} assets aligned: {', '.join(train.tickers)}")
    print(f"ok: train slice {train.n_steps} rows ({train.dates[0]}..{train.dates[-1]})")
    print(f"ok: test slice {test.n_steps} rows incl. {window - 1}-row prefix ({test.dates[0]}..{test.dates[-1]})")
    print(f"ok: {train.n_steps - window} decidable training steps, {test.n_steps - window} decidable test steps")
    print(f"ok: normalization '{config.normalization}', {config.runs} run(s) each, {config.steps} training steps")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="portrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a campaign from a config file")
    run_parser.add_argument("config")
    run_parser.add_argument("--out", help="output directory (default campaign_<method>[-<method>...])")
    run_parser.add_argument("--workers", type=int, default=None)
    run_parser.add_argument("--runs", type=int, default=None)
    run_parser.add_argument("--steps", type=int, default=None)
    run_parser.set_defaults(func=_cmd_run)

    report_parser = sub.add_parser("report", help="regenerate aggregates from an emitted campaign")
    report_parser.add_argument("campaign_dir")
    report_parser.set_defaults(func=_cmd_report)

    validate_parser = sub.add_parser("validate", help="check config and data without training")
    validate_parser.add_argument("config")
    validate_parser.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as error:  # a config, data or file error: its message alone
        print(error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
