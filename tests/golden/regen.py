"""Rewrite or check the golden report corpus.

    python tests/golden/regen.py                  # rewrite every report file
    python tests/golden/regen.py --check          # compare only; exit 1 on a change
    python tests/golden/regen.py --check NAME...  # the named entries only

Run it from anywhere; it imports qmeaslab from the checkout's ``src/``.  The
configs are `corpus.yaml`; each entry's emitted report, with `wall_time_s`
blanked, is `<name>.json` (or `.csv`) beside it.  `ENV.json` records the
numpy version, the BLAS library and the machine the files were written on,
and a check in another environment stops before any report is compared, so
an environment change is never read as a code change.  Both modes print
every changed field as `name: path: old -> new`.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import sys
from pathlib import Path

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from qmeaslab import scenarios  # noqa: E402

ENV_FILE = HERE / "ENV.json"
_WALL_TIME = re.compile(rb'"wall_time_s": [^,\n]*')


def corpus() -> dict[str, str]:
    """Entry name -> config text, in file order."""
    return yaml.safe_load((HERE / "corpus.yaml").read_text())


def environment() -> dict[str, str]:
    """What the report bytes may depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine()}


def environment_problem() -> str | None:
    """Why the recorded environment is not this one, or None."""
    recorded = json.loads(ENV_FILE.read_text())
    here = environment()
    if recorded != here:
        return (f"the golden reports were written under {recorded} but this is "
                f"{here}: rerun tests/golden/regen.py here and review the diff "
                f"before trusting a comparison")
    return None


def render(text: str) -> tuple[str, bytes]:
    """(file suffix, emitted report bytes with wall_time_s blanked)."""
    config = scenarios.parse_config(text)
    payload = scenarios.emit(scenarios.run(config), config.fmt)
    return config.fmt, _WALL_TIME.sub(b'"wall_time_s": null', payload)


def _json_changes(old, new, path: str = "") -> list[str]:
    if isinstance(old, dict) and isinstance(new, dict):
        return [line for key in dict.fromkeys([*old, *new])
                for line in _json_changes(old.get(key), new.get(key), f"{path}.{key}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for k, (a, b) in enumerate(zip(old, new))
                for line in _json_changes(a, b, f"{path}[{k}]")]
    if old == new and type(old) is type(new):
        return []
    return [f"{path or '.'}: {old!r} -> {new!r}"]


def changes(name: str, fmt: str, old: bytes | None, new: bytes) -> list[str]:
    """One line per changed field (JSON) or line (CSV) of one entry."""
    if old == new:
        return []
    if old is None:
        return [f"{name}: new file"]
    if fmt == "json":
        lines = _json_changes(json.loads(old), json.loads(new))
    else:
        a, b = old.decode().splitlines(), new.decode().splitlines()
        lines = [f"line {k + 1}: {x!r} -> {y!r}"
                 for k, (x, y) in enumerate(zip(a, b)) if x != y]
        if len(a) != len(b):
            lines.append(f"{len(a)} lines -> {len(b)} lines")
    return [f"{name}: {line}" for line in lines or ["bytes differ"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare only, and exit 1 if any report changed")
    parser.add_argument("names", nargs="*", help="corpus entries (default: all)")
    args = parser.parse_args(argv)
    entries = corpus()
    unknown = set(args.names) - set(entries)
    if unknown:
        parser.error(f"not in corpus.yaml: {sorted(unknown)}")
    if args.check:
        problem = environment_problem()
        if problem:
            print(problem)
            return 1
    else:
        ENV_FILE.write_text(json.dumps(environment(), indent=2, sort_keys=True) + "\n")
    changed = 0
    for name in args.names or entries:
        fmt, new = render(entries[name])
        path = HERE / f"{name}.{fmt}"
        old = path.read_bytes() if path.exists() else None
        lines = changes(name, fmt, old, new)
        changed += bool(lines)
        for line in lines:
            print(line)
        if lines and not args.check:
            path.write_bytes(new)
    print(f"{changed} of {len(args.names or entries)} reports changed")
    return 1 if args.check and changed else 0


if __name__ == "__main__":
    sys.exit(main())
