"""Command-line interface.

``eqkf run <config>`` simulates a scenario and writes a per-step report;
``eqkf check`` runs the verification battery.  Exit codes: 0 on success,
1 when a verification check fails, 2 for configuration parse/validation
problems, 3 when a run hits a numerical failure: in a filter step (the
failing step index is printed on stderr) or in the truth simulation.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import FilterError, ParseError, ValidationError
from . import checks
from .config import config_from_document, decode_document
from .run import emit_report, run_scenario


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _run(args: argparse.Namespace) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return _fail(f"cannot read '{args.config}': {exc}", 2)
    try:
        doc = decode_document(text)
        if isinstance(doc, dict):
            if args.steps is not None:
                doc["steps"] = args.steps
            if args.seed is not None:
                doc["seed"] = args.seed
            if args.feedback is not None:
                doc["feedback"] = args.feedback == "on"
            if args.methods is not None:
                doc["methods"] = [m.strip() for m in args.methods.split(",") if m.strip()]
        config = config_from_document(doc)
    except (ParseError, ValidationError) as exc:
        return _fail(str(exc), 2)
    try:
        report = run_scenario(config)
    except FilterError as exc:
        return _fail(str(exc), 3)
    rendered = emit_report(report, args.format)
    if args.out:
        try:
            # newline="" keeps the report byte-identical across platforms
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(rendered)
        except OSError as exc:
            return _fail(f"cannot write '{args.out}': {exc}", 2)
    else:
        sys.stdout.write(rendered)
    return 0


def _check(args: argparse.Namespace) -> int:
    results = checks.run_default_checks(fast=not args.full)
    for result in results:
        print(result.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqkf",
        description="Constrained Kalman filtering simulation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a scenario and emit a report")
    run_p.add_argument("config", help="path to a scenario document")
    run_p.add_argument("--out", help="write the report to this file instead of stdout")
    run_p.add_argument(
        "--format", choices=("csv", "structured"), default="csv",
        help="report format (default csv)",
    )
    run_p.add_argument(
        "--methods",
        help="comma-separated method tags overriding the config's method list",
    )
    run_p.add_argument("--seed", type=int, help="override the simulation seed")
    run_p.add_argument("--steps", type=int, help="override the step count")
    run_p.add_argument(
        "--feedback", choices=("on", "off"),
        help="override whether constrained estimates feed the recursion",
    )

    check_p = sub.add_parser("check", help="run the verification battery")
    check_p.add_argument(
        "--full", action="store_true",
        help="use full instance counts (substantially slower)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _run(args)
    return _check(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
