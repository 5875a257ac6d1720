"""Command-line interface.

Subcommands: ``run``, ``gradcheck``, ``hypcheck``, ``sweep``, ``plot``.
Exit codes: 0 on success, 1 on validation/usage errors, 2 when a check
reports FAIL.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    ExperimentConfig,
    GradCheckReport,
    RunConfig,
    SweepAxis,
    emit_plot,
    gradcheck,
    hypcheck,
    load_config,
    run_experiment,
    sweep,
)

_VIOLATION_KEYS = ("A1", "A2", "A3", "A4", "A5", "A6")


class _UsageError(Exception):
    def __init__(self, usage: str, message: str) -> None:
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as exit code 1 instead
    of argparse's default 2 (reserved here for check failures)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(self.format_usage(), message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="linrep",
        description="Multi-task linear representation learning experiments.",
    )
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the config master seed")
    common.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="trial worker processes, at most one per trial and CPU (default 1)",
    )
    common.add_argument("--out", type=Path, default=None, help="override the output directory")

    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    run_p = sub.add_parser("run", parents=[common], help="run the configured trials")
    run_p.add_argument("config", type=Path)
    run_p.set_defaults(handler=_cmd_run)

    grad_p = sub.add_parser(
        "gradcheck", parents=[common], help="compare outer gradients to finite differences"
    )
    grad_p.add_argument("config", type=Path)
    grad_p.set_defaults(handler=_cmd_gradcheck)

    hyp_p = sub.add_parser(
        "hypcheck", parents=[common], help="evaluate trajectory-condition margins"
    )
    hyp_p.add_argument("config", type=Path)
    hyp_p.set_defaults(handler=_cmd_hypcheck)

    sweep_p = sub.add_parser("sweep", parents=[common], help="sweep one hyperparameter")
    sweep_p.add_argument("config", type=Path)
    sweep_p.add_argument(
        "--axis", required=True, choices=[axis.value for axis in SweepAxis]
    )
    sweep_p.add_argument("--values", required=True, help="comma-separated values, e.g. 50,200,800")
    sweep_p.set_defaults(handler=_cmd_sweep)

    plot_p = sub.add_parser("plot", parents=[], help="render a trajectory CSV as SVG")
    plot_p.add_argument("csv", type=Path)
    plot_p.add_argument("-o", "--out", dest="out_svg", type=Path, required=True)
    plot_p.set_defaults(handler=_cmd_plot)
    return parser


def _load(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config)
    if args.seed is not None:
        run = RunConfig.model_validate(
            {**config.run.model_dump(), "master_seed": args.seed}
        )
        config = config.model_copy(update={"run": run})
    return config


def _print_gradcheck(report: GradCheckReport) -> None:
    print(
        f"gradcheck {report.algo.value} {report.mode.value}: {report.status} "
        f"({report.points} points, tolerance {report.tolerance:g})"
    )
    print(f"  max rel err head: {report.max_rel_err_head:.3e}")
    print(f"  max rel err rep:  {report.max_rel_err_rep:.3e}")


def _print_violations(first_violation: dict) -> None:
    parts = []
    for key in _VIOLATION_KEYS:
        value = first_violation.get(key)
        parts.append(f"{key}={'none' if value is None else value}")
    print("first violations: " + " ".join(parts))


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load(args)
    artifacts = run_experiment(config, out_dir=args.out, jobs=args.jobs)
    for path in (artifacts.trajectory_csv, artifacts.mean_csv, artifacts.summary_json):
        print(f"wrote {path}")
    summary = artifacts.summary
    print(f"final_dist_mean: {summary['final_dist_mean']}")
    print(f"final_dist_std: {summary['final_dist_std']}")
    print(f"diverged: {summary['diverged']}/{config.run.trials}")
    if summary["log_slope"] is not None:
        print(
            f"log_slope: {summary['log_slope']:.6g} (r_squared: {summary['r_squared']:.4f})"
        )
    if summary["hyp_first_violation"] is not None:
        _print_violations(summary["hyp_first_violation"])
    if artifacts.gradcheck_report is not None:
        _print_gradcheck(artifacts.gradcheck_report)
        if not artifacts.gradcheck_report.passed:
            return 2
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    report = gradcheck(_load(args))
    _print_gradcheck(report)
    return 0 if report.passed else 2


def _cmd_hypcheck(args: argparse.Namespace) -> int:
    result = hypcheck(_load(args), out_dir=args.out)
    print(f"wrote {result.csv_path}")
    _print_violations(result.report.first_violation)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load(args)
    try:
        values = [float(item) for item in args.values.split(",") if item.strip()]
    except ValueError as exc:
        raise ConfigError(f"--values must be comma-separated numbers: {exc}") from exc
    if not values:
        raise ConfigError("--values must contain at least one number")
    result = sweep(
        config, SweepAxis(args.axis), values, out_dir=args.out, jobs=args.jobs
    )
    print(f"wrote {result.csv_path}")
    for cell in result.cells:
        if cell.error is not None:
            print(f"  {cell.axis.value}={cell.value}: ERROR {cell.error}")
        else:
            print(
                f"  {cell.axis.value}={cell.value}: final_dist_mean={cell.final_dist_mean} "
                f"plateau_dist={cell.plateau_dist} diverged={cell.diverged}"
            )
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    out = emit_plot(args.csv, args.out_svg)
    print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc.usage, end="", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
