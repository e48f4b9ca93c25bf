"""Command-line front end.

Subcommands map onto experiments; ``run`` takes any experiment by name.
Every invocation needs a seed (flag or config file), emits one JSON
report to stdout or --out, and exits 0 when all checks pass, 2 on a
failed check or protocol violation, 3 on a config problem.  On exit 2
stderr names each failed check with its value and tolerance.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from math import sqrt

from .harness import ConfigError, ExperimentConfig, canonical_json, open_output, run_experiment
from .metering import ProtocolError

_SUBCOMMANDS = {
    "run": None,  # experiment chosen by flag or config
    "verify-nonsignaling": "nonsignaling",
    "tomography": "tomography",
    "mixture": "mixture",
    "racbox": "racbox",
    "dilation": "dilation",
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 3)."""

    def error(self, message: str):
        raise ConfigError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="JSON config; flags override it")
    parser.add_argument("--seed", type=int, help="mandatory if not in the config")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--mode", choices=["branch-exact", "sampled"])
    parser.add_argument("--out", metavar="FILE", help="write the JSON report here")
    parser.add_argument("--csv", metavar="FILE", help="write per-trial rows here")
    parser.add_argument("--psi", metavar="SPEC", help='e.g. "bloch:0,0" or "amp:1,0,0,0"')
    parser.add_argument("--phi", metavar="SPEC")
    parser.add_argument("--omega", metavar="SPEC", help="Bob's choice qubit")
    parser.add_argument(
        "--alpha-sq",
        type=float,
        dest="alpha_sq",
        metavar="P",
        help="weight of choice |0>; shorthand for real alpha/beta",
    )


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The argument parser, built once per process and reused by every ``main``."""
    parser = _Parser(
        prog="qracbox",
        description="Simulate and verify nonsignaling boxes: PR-boxes, the "
        "classical racbox, and the entanglement-backed quantum RAC box.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    run = sub.add_parser("run", help="run any experiment by name")
    run.add_argument("--experiment", help="one of: qrac, qrac-qubit-only, racbox, "
                     "tomography, mixture, nonsignaling, dilation")
    _add_common(run)
    for name in ("verify-nonsignaling", "tomography", "mixture", "racbox", "dilation"):
        _add_common(sub.add_parser(name, help=f"shortcut for the {_SUBCOMMANDS[name]} experiment"))
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config) as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")

    experiment = _SUBCOMMANDS[args.command]
    if experiment is None:
        experiment = getattr(args, "experiment", None) or data.get("experiment")
        if experiment is None:
            raise ConfigError("run needs --experiment or an experiment in the config")
    data["experiment"] = experiment

    for key in ("seed", "trials", "mode", "psi", "phi", "omega"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    if args.alpha_sq is not None:
        if args.omega is not None:
            raise ConfigError("give either --omega or --alpha-sq, not both")
        if not 0.0 <= args.alpha_sq <= 1.0:
            raise ConfigError("--alpha-sq must be in [0, 1]")
        data["alpha"] = [sqrt(args.alpha_sq), 0.0]
        data["beta"] = [sqrt(1.0 - args.alpha_sq), 0.0]
        data.pop("omega", None)  # a config-file omega is overridden
    if args.out is not None:
        data["out"] = args.out

    return ExperimentConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    try:
        report = run_experiment(config, csv_path=args.csv)
        text = canonical_json(report)
        if config.out:
            with open_output(config.out) as handle:
                handle.write(text + "\n")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except ProtocolError as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return 2

    if not config.out:
        print(text)
    failed = [check for check in report["checks"] if not check["pass"]]
    for check in failed:
        print(
            f"failed check: {check['name']} value {check['value']!r} "
            f"tolerance {check['tolerance']!r}",
            file=sys.stderr,
        )
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
