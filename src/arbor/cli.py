"""Command-line entry points: simulate scenarios and replay capture logs.

Exit codes: 0 on success, 2 on configuration errors, 3 on data errors.  A
command that fails leaves none of its output files behind.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigWarning  # noqa: F401  (re-exported for -W filters)
from .errors import ConfigError, EstimationError
from .runner import build_application, replay
from .sim import jsonl_lines, load_scenario, simulate, write_files

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


def _cmd_sim(args) -> int:
    try:
        scenario = load_scenario(Path(args.scenario).read_text())
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    captures, truth = simulate(scenario)
    try:
        write_files([(path, jsonl_lines(records))
                     for path, records in ((args.out, captures), (args.truth, truth)) if path])
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    print(f"wrote {len(captures)} capture records to {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    if args.metrics and not args.truth:
        print("config error: --metrics needs --truth to score against", file=sys.stderr)
        return EXIT_CONFIG
    try:
        app = build_application(args.config)
    except (EstimationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _, metrics = replay(
            app,
            args.log,
            out_path=args.out,
            truth_path=args.truth,
            metrics_path=args.metrics,
        )
    except (EstimationError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if args.print_tree:
        print(app.tree.print_tree(), end="")
    if metrics is not None:
        print(f"ate_rmse: {metrics.ate_rmse:.6g} m over {metrics.keyframes} keyframes")
        if metrics.calib_rel is not None:
            rel = ", ".join(f"{100 * e:.3g}%" for e in metrics.calib_rel)
            print(f"calibration relative error: {rel}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arbor",
        description="Factor-graph state estimation: simulate and replay 2D scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="simulate a scenario into a capture log")
    p_sim.add_argument("--scenario", required=True, help="scenario YAML path")
    p_sim.add_argument("--out", required=True, help="capture log output (JSONL)")
    p_sim.add_argument("--truth", help="ground-truth log output (JSONL)")
    p_sim.set_defaults(func=_cmd_sim)

    p_run = sub.add_parser("run", help="replay a capture log through the estimator")
    p_run.add_argument("--config", required=True, help="problem YAML path")
    p_run.add_argument("--log", required=True, help="capture log input (JSONL)")
    p_run.add_argument("--out", required=True, help="estimate output (JSONL)")
    p_run.add_argument("--truth", help="ground-truth log for metrics (JSONL)")
    p_run.add_argument("--metrics", help="metrics report output (JSON); needs --truth")
    p_run.add_argument("--print-tree", action="store_true",
                       help="print the final problem tree")
    p_run.set_defaults(func=_cmd_run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
