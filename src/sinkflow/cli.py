"""Command-line entry point.

Subcommands:

* ``run <config.json>`` - execute one experiment described by a JSON config
* ``tabulate <kind>``   - emit a CSV of a closed-form flow: t,mean,variance
  for the measure-valued kinds, t,value for the Euclidean ODE kinds
* ``verify``            - run the standard acceptance battery, printing each
  experiment's verdicts and wall time

The output root defaults to the SINKFLOW_OUT environment variable (falling
back to the current directory); ``--seed`` overrides the config seed.  Exit
codes: 0 when every verdict passed, 1 when a verdict failed or the run has
no verdicts, 2 when the run could not be made (a bad config or argument
raises a :class:`SinkflowError`, reported as one ``sinkflow: error:``
line on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .closed_form import ClosedFormFlow, FlowKind, tabulate
from .errors import DomainError, SinkflowError
from .experiments import ExperimentConfig, execute, verify_battery, write_csv


def _out_root(args) -> Path:
    if args.output is not None:
        return Path(args.output)
    return Path(os.environ.get("SINKFLOW_OUT", "."))


def _read_config(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise DomainError(f"config {path} is not valid JSON: {exc}") from exc


def _cmd_run(args) -> int:
    raw = _read_config(args.config)
    config = ExperimentConfig.from_dict(raw)
    if args.seed is not None:
        config = ExperimentConfig.from_dict(
            {**raw, "numerics": {**config.numerics, "seed": args.seed}})
    report, manifest = execute(config, _out_root(args))
    for v in report.verdicts:
        status = "pass" if v["pass"] else "FAIL"
        print(f"[{status}] {v['check']}: {v['value']!r} (tolerance {v['tolerance']})")
    print(f"config hash {manifest['config_hash']}")
    return 0 if report.passed() else 1


def _cmd_tabulate(args) -> int:
    if args.points < 1:
        raise DomainError(f"--points must be at least 1, got {args.points}")
    if not math.isfinite(args.t_end):
        raise DomainError(f"--t-end must be finite, got {args.t_end}")
    kind = FlowKind(args.kind)
    rows = tabulate(ClosedFormFlow(kind, args.param), np.linspace(0.0, args.t_end, args.points))
    out = _out_root(args)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"tabulate_{kind.value}.csv"
    write_csv(rows, path)
    print(f"wrote {path}")
    return 0


def _cmd_verify(args) -> int:
    combined = verify_battery(_out_root(args), profile=args.profile, seed=args.seed)
    for name, entry in combined["experiments"].items():
        status = "pass" if entry["passed"] else "FAIL"
        print(f"[{status}] {name} ({float(entry['wall_s']):.2f} s, "
              f"{entry['flow_steps']} flow steps)")
        for v in entry["verdicts"]:
            mark = "ok " if v["pass"] else "BAD"
            print(f"    {mark} {v['check']}: {v['value']!r} (tolerance {v['tolerance']})")
    print("all passed" if combined["all_passed"] else "FAILURES present")
    return 0 if combined["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sinkflow")
    parser.add_argument("--output", help="output directory (default: $SINKFLOW_OUT or .)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_tab = sub.add_parser("tabulate", help="tabulate a closed-form flow")
    p_tab.add_argument("kind", choices=[k.value for k in FlowKind])
    p_tab.add_argument("--param", type=float, default=0.5)
    p_tab.add_argument("--t-end", type=float, default=2.0)
    p_tab.add_argument("--points", type=int, default=101)
    p_tab.set_defaults(func=_cmd_tabulate)

    p_ver = sub.add_parser("verify", help="run the acceptance battery")
    p_ver.add_argument("--profile", choices=("full", "quick"), default="full")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SinkflowError as exc:
        print(f"sinkflow: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
