"""Command line entry points: run one experiment, verify a ledger file, or
sweep a config field across values."""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import ExperimentConfig, is_real
from .errors import ConfigError, Dp2GuardError
from .harness import run_experiment
from .ledger import audit_file
from .report import plot_ratio_sweep, refuse_artifacts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="dp2guard",
                                     description="Masked dual-server federated "
                                                 "learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--config", required=True, help="experiment JSON file")
    p_run.add_argument("--out", required=True, help="output directory")

    p_verify = sub.add_parser("verify-ledger", help="check a ledger file's hash chain")
    p_verify.add_argument("path", help="ledger.jsonl to verify")

    p_sweep = sub.add_parser("sweep", help="run a config across several values")
    p_sweep.add_argument("--config", required=True, help="base experiment JSON file")
    p_sweep.add_argument("--vary", required=True,
                         help="field=v1,v2,... (e.g. adv_ratio=0,0.1,0.2)")
    p_sweep.add_argument("--out", required=True, help="output directory")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify-ledger":
            return _cmd_verify(args)
        return _cmd_sweep(args)
    except (Dp2GuardError, OSError) as exc:  # e.g. a missing file or a directory
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_json(_read_config(args.config))
    result = run_experiment(cfg, out_dir=args.out)
    last = result.metrics[-1]
    print(f"{cfg.aggregator} on {cfg.dataset}: "
          f"final accuracy {last.accuracy:.4f} after {cfg.rounds} rounds")
    print(f"artifacts in {args.out}/")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    bad, head = audit_file(args.path)
    if bad is None:
        print(f"ok: {head.index + 1} blocks, head {head.hash.hex()}")
        return 0
    print(f"first bad block index: {bad}")
    return 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    field, _, values = args.vary.partition("=")
    if not values:
        raise ConfigError("--vary expects field=v1,v2,...")
    names = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    if field not in names:
        raise ConfigError(f"unknown config field {field!r}")
    base = _json(_read_config(args.config), "config")
    if not isinstance(base, dict):
        raise ConfigError("config must be a JSON object")
    raws = values.split(",")
    parsed = [_json(raw, f"--vary value {raw!r}") for raw in raws]
    # Every value is checked, every config built and every point's
    # directory found fresh before the first run.
    xs = [_sweep_x(raw, value) for raw, value in zip(raws, parsed)]
    configs = [ExperimentConfig.from_dict({**base, field: value}) for value in parsed]
    out_root = Path(args.out)
    refuse_artifacts(out_root, ("sweep.svg",))  # an earlier sweep's plot
    dirs = [out_root / f"{field}={raw}" for raw in raws]
    for i, raw in enumerate(raws):
        if raw in raws[:i]:
            raise ConfigError(f"--vary value {raw!r} is given twice; "
                              "each value writes its own directory")
        refuse_artifacts(dirs[i])
    out_root.mkdir(parents=True, exist_ok=True)

    points = []
    for raw, x, cfg, out_dir in zip(raws, xs, configs, dirs):
        result = run_experiment(cfg, out_dir=out_dir)
        final = result.metrics[-1].accuracy
        points.append((x, final))
        print(f"{field}={raw}: final accuracy {final:.4f}")
    plot_ratio_sweep({f"{base.get('aggregator', 'dp2guard')}": points},
                     out_root / "sweep.svg")
    print(f"sweep plot in {out_root / 'sweep.svg'}")
    return 0


def _sweep_x(raw: str, value) -> float:
    """Where the sweep plot puts a --vary value on its x axis: the value
    must be a finite real number (JSON int or float, not a boolean)."""
    if is_real(value):
        return float(value)
    raise ConfigError(f"--vary value {raw!r} is not a finite number; "
                      "the sweep plots each value on its x axis")


def _read_config(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc


def _json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


if __name__ == "__main__":
    raise SystemExit(main())
