"""Command line front end for scenario runs.

Exit status is 0 when every required invariant passes, 1 when one fails,
and 2 when no report is made or written (unreadable or invalid config or
--set value, refused precondition, unwritable --output).  Reports go to
--output or stdout; per-invariant pass/fail lines go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .scenarios import (SCENARIOS, ConfigError, ScenarioConfig, build_config,
                        emit, run, _FORMATS, _load_yaml)


def _parse_set(entry: str) -> tuple[str, object]:
    if "=" not in entry:
        raise ConfigError(f"--set expects key=value, got {entry!r}")
    key, raw = entry.split("=", 1)
    return key.strip(), _load_yaml(raw, f"--set {entry!r}")


def _parse_sweep_flag(entry: str) -> dict:
    try:
        param, rng = entry.split("=", 1)
        start, stop, steps = rng.split(":")
        return {"parameter": param.strip(), "start": float(start),
                "stop": float(stop), "steps": int(steps)}
    except ValueError:
        raise ConfigError(
            f"--sweep expects param=start:stop:steps, got {entry!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeaslab",
        description="Run measurement-chain and radiation-decoherence scenarios "
                    "and emit structured reports.")
    parser.add_argument("--scenario", choices=SCENARIOS,
                        help="scenario to run (overrides the config file)")
    parser.add_argument("--config", type=Path, help="YAML config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable); the value "
                             "is parsed as YAML")
    parser.add_argument("--sweep", metavar="PARAM=START:STOP:STEPS",
                        help="sweep one parameter over an inclusive grid")
    parser.add_argument("--format", choices=_FORMATS, dest="fmt",
                        help="report format")
    parser.add_argument("--output", type=Path, help="write the report here "
                                                    "instead of stdout")
    parser.add_argument("--tolerance", type=float, help="invariant tolerance")
    parser.add_argument("--seed", type=int, help="seed for randomized checks")
    parser.add_argument("--list-scenarios", action="store_true",
                        help="list scenario names and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_scenarios:
        for name in SCENARIOS:
            print(name)
        return 0
    try:
        data: dict = {}
        if args.config is not None:
            try:
                text = args.config.read_text()
            except (OSError, UnicodeDecodeError) as err:
                raise ConfigError(f"cannot read config file: {err}") from None
            loaded = _load_yaml(text, f"config file {str(args.config)!r}")
            if loaded is not None:
                if not isinstance(loaded, dict):
                    raise ConfigError("config file must hold a YAML mapping")
                data.update(loaded)
        for entry in args.set:
            key, value = _parse_set(entry)
            data[key] = value
        if args.scenario:
            data["scenario"] = args.scenario
        if args.sweep:
            data["sweep"] = _parse_sweep_flag(args.sweep)
        if args.fmt:
            data["format"] = args.fmt
        if args.output:
            data["output"] = str(args.output)
        if args.tolerance is not None:
            data["tolerance"] = args.tolerance
        if args.seed is not None:
            data["seed"] = args.seed
        config: ScenarioConfig = build_config(data)
        report = run(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:  # model preconditions, dimension caps
        print(f"scenario error: {err}", file=sys.stderr)
        return 2
    for inv in report.invariants:
        status = "PASS" if inv.passed else "FAIL"
        req = "" if inv.required else " (informational)"
        print(f"[{status}] {report.scenario}: {inv.name} "
              f"residual={inv.residual:.3e}{req}", file=sys.stderr)
    payload = emit(report, config.fmt)
    if config.output:
        try:
            Path(config.output).write_bytes(payload)
        except OSError as err:
            print(f"cannot write report: {err}", file=sys.stderr)
            return 2
        print(f"report written to {config.output}", file=sys.stderr)
    else:
        sys.stdout.write(payload.decode())
    return 1 if report.failed_required() else 0


if __name__ == "__main__":
    raise SystemExit(main())
