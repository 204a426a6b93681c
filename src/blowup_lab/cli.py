"""Command-line entry point.

    blowup-lab run <config.json> [--out DIR] [--verbose]
    blowup-lab compare <report_a.json> <report_b.json>
    blowup-lab schema

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .errors import ConfigError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="blowup-lab",
                                     description="boundary blow-up solution laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--verbose", action="store_true")

    p_cmp = sub.add_parser("compare", help="diff two experiment reports")
    p_cmp.add_argument("report_a", help="a report.json or the run directory holding it")
    p_cmp.add_argument("report_b", help="a report.json or the run directory holding it")

    sub.add_parser("schema", help="print the config JSON schema")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "schema":
            print(json.dumps(harness.CONFIG_SCHEMA, indent=2, sort_keys=True))
            return 0
        if args.command == "compare":
            diff = harness.compare_runs(args.report_a, args.report_b)
            print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
            return 0 if diff.identical else 1
        config = harness.ExperimentConfig.from_file(args.config)
        report = harness.run(config, args.out)
        if args.verbose:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            for c in report.checks:
                print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}")
        print(f"status: {report.status}")
        return 0 if report.status == "pass" else 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
