"""Command-line interface: run, baseline, verify, report.

Exit codes: 0 success, 1 verification failures, 2 invalid configuration or
malformed results file, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .errors import ConfigurationError, HierarchyError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_IO = 3


def _add_override_flags(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--scenario", choices=["parabolic", "optdemo"])
    parser.add_argument("--tolerance", type=float)
    parser.add_argument("--queries", type=int, dest="n_queries")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="results CSV path")
    parser.add_argument("--ml", action=argparse.BooleanOptionalAction,
                        help="include the learned stage (default: on for "
                        "optdemo, off for parabolic)")
    parser.add_argument("--dump-trajectory", help="CSV path for the last "
                        "full-order trajectory of the run")
    parser.add_argument("--dump-basis", help="CSV path for the final reduced basis")
    parser.add_argument("--dump-training", help="CSV path for the final "
                        "training set of the learned stage")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfhier",
        description="Certified adaptive model hierarchy for multi-query runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="adaptive hierarchy over a seeded stream")
    _add_override_flags(p_run)

    p_base = sub.add_parser("baseline", help="reference model only, same stream")
    _add_override_flags(p_base)

    p_verify = sub.add_parser("verify", help="correctness checks of the "
                              "parabolic scenario")
    p_verify.add_argument("--config", help="JSON config file")
    p_verify.add_argument("--seed", type=int)

    p_report = sub.add_parser("report", help="aggregate a results CSV")
    p_report.add_argument("results", help="results CSV produced by run/baseline")
    p_report.add_argument("--out", help="also write the summary as JSON")
    return parser


# CLI flag (argparse dest) -> path of the config field it overrides
_OVERRIDES = (
    ("scenario", ("scenario",)),
    ("tolerance", ("tolerance",)),
    ("tolerance", ("opt", "TOL_grad")),
    ("n_queries", ("n_queries",)),
    ("seed", ("seed",)),
    ("out", ("output", "results_path")),
    ("ml", ("ml", "enabled")),
    ("dump_trajectory", ("output", "dumps", "trajectory")),
    ("dump_basis", ("output", "dumps", "basis")),
    ("dump_training", ("output", "dumps", "training")),
)


def _load_config(args) -> harness.RunConfig:
    """The config document with every flag applied, validated once, so that
    defaults that depend on the scenario follow an overriding --scenario."""
    data = harness.read_config(args.config) if args.config else {}
    if not isinstance(data, dict):
        raise ConfigurationError("config must be a JSON object")
    for dest, path in _OVERRIDES:
        value = getattr(args, dest, None)
        if value is None:
            continue
        section = data
        for name in path[:-1]:
            section = section.setdefault(name, {})
            if not isinstance(section, dict):
                raise ConfigurationError(
                    f"config section {name!r} must be an object")
        section[path[-1]] = value
    return harness.config_from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command != "report":
        # invalid, missing or unreadable configuration -> exit 2
        try:
            config = _load_config(args)
        except (ConfigurationError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_BAD_CONFIG
    try:
        if args.command in ("run", "baseline"):
            result = (harness.run if args.command == "run"
                      else harness.baseline)(config)
            print(result.summary.format())
            print(f"  wall time: {result.wall_s:.3f} s")
            print(f"results written: {config.output.results_path}")
            return EXIT_OK
        if args.command == "verify":
            result = harness.verify(config)
            print(result.format())
            return EXIT_OK if result.all_passed else EXIT_CHECK_FAILED
        # report: malformed results -> exit 2, unreadable file -> exit 3
        summary = harness.report(args.results)
        print(summary.format())
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(summary.to_dict(), fh, indent=2)
            print(f"summary written: {args.out}")
        return EXIT_OK
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except HierarchyError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
