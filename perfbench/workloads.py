"""Seeded scenario configs for the benchmark and the closed-form checks of
their reports.

Sizes are fixed per workload; only amplitudes, phases and the config's own
`seed` come from the benchmark seed.  The program sees nothing but the
generated YAML text.  Standard library only, so this module imports before
(and without) numpy.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from typing import Iterator

# Fixed sizes per workload; BENCHMARK.json and README.md say why each was
# chosen and which layer it loads.
_SIZES = {
    "chain-pointer": "scenario: ch-basic\nn_atoms: 11\nobservable_preset: pointer_only\n",
    "chain-exhaustive": "scenario: ch-basic\nn_atoms: 5\nobservable_preset: sector_preserving\n",
    "radiation-field": "scenario: rd-basic\nmodes: 1\ncutoff: 4\n",
    "cascade-scan": "scenario: ch-cascade\nchains: [2, 2, 1, 1, 1]\nphase_scan_points: 181\n",
}

WORKLOADS = tuple(_SIZES)

# atoms whose IT operator the closed form b = (-1)^N 2 Re(a1* a2) refers to
_CHAIN1_ATOMS = {"chain-pointer": 11, "chain-exhaustive": 5, "cascade-scan": 2}

_INV_SQRT2 = repr(math.sqrt(0.5))


@dataclass(frozen=True)
class Case:
    """One generated config and the amplitudes it encodes."""

    workload: str
    text: str
    mag1: float
    phase1_deg: float
    mag2: float
    phase2_deg: float

    @property
    def cross(self) -> float:
        """2 Re(a1* a2), the interference term of the initial superposition."""
        return 2.0 * self.mag1 * self.mag2 * math.cos(
            math.radians(self.phase2_deg - self.phase1_deg))


def _deg(rng: random.Random) -> float:
    # fixed-point text round-trips exactly and always parses as a YAML float
    return float(f"{rng.uniform(0.0, 360.0):.9f}")


def generate(workload: str, seed: int) -> Iterator[Case]:
    """Endless stream of configs; the same (workload, seed) gives the same
    byte-identical stream."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    while True:
        weight1 = rng.uniform(0.1, 0.9)  # |a1|^2: both branches exist
        mag1, mag2 = math.sqrt(weight1), math.sqrt(1.0 - weight1)
        ph1, ph2 = _deg(rng), _deg(rng)
        lines = [_SIZES[workload],
                 f"a1: [{mag1!r}, {ph1!r}]\n",
                 f"a2: [{mag2!r}, {ph2!r}]\n",
                 f"seed: {rng.randrange(2 ** 31)}\n"]
        if workload == "radiation-field":
            lines.append("photons:\n"
                         f"- {{pattern: [1], c: [{_INV_SQRT2}, {_deg(rng)!r}]}}\n"
                         f"- {{pattern: [2], c: [{_INV_SQRT2}, {_deg(rng)!r}]}}\n")
        yield Case(workload, "".join(lines), mag1, ph1, mag2, ph2)


def _close(name: str, got, want: float, tol: float) -> list[str]:
    if got is None or not abs(got - want) <= tol:
        return [f"{name} = {got!r}, closed form {want!r} (tol {tol})"]
    return []


def check(case: Case, payload: bytes) -> list[str]:
    """Problems found in one emitted JSON report; empty when it verifies.

    Every required invariant must pass, and the expectations must match
    closed forms computed from the generated amplitudes at the report's own
    tolerance.
    """
    report = json.loads(payload)
    tol = report["tolerance"]
    exp = report["expectations"]
    problems = [f"required invariant {inv['name']} failed (residual {inv['residual']})"
                for inv in report["invariants"] if inv["required"] and not inv["passed"]]
    pointer = case.mag1 ** 2 - case.mag2 ** 2
    if case.workload in ("chain-pointer", "chain-exhaustive"):
        b_pure = (-1.0) ** _CHAIN1_ATOMS[case.workload] * case.cross
        problems += _close("mu_z", exp.get("mu_z"), pointer, tol)
        problems += _close("sigma0_z", exp.get("sigma0_z"), pointer, tol)
        problems += _close("b_pure", exp.get("b_pure"), b_pure, tol)
        problems += _close("b_mixed", exp.get("b_mixed"), 0.0, tol)
    elif case.workload == "cascade-scan":
        b_before = (-1.0) ** _CHAIN1_ATOMS[case.workload] * case.cross
        problems += _close("mu_before", exp.get("mu_before"), pointer, tol)
        problems += _close("mu_after", exp.get("mu_after"), 0.0, tol)
        problems += _close("b_before", exp.get("b_before"), b_before, tol)
        problems += _close("b_prime_after", exp.get("b_prime_after"), b_before, tol)
    else:
        problems += _close("branch_overlap", exp.get("branch_overlap"), 0.0, 0.0)
        if not exp.get("c22_max_deviation", math.inf) <= tol:
            problems.append(f"c22_max_deviation {exp.get('c22_max_deviation')!r} > tol")
        if not exp.get("counterexample_deviation", -math.inf) > tol:
            problems.append(
                f"counterexample_deviation {exp.get('counterexample_deviation')!r} <= tol")
    return problems


_WALL_TIME = re.compile(rb'"wall_time_s": [^,\n]*')


def without_wall_time(payload: bytes) -> bytes:
    """The report bytes with the one nondeterministic field blanked."""
    return _WALL_TIME.sub(b'"wall_time_s": null', payload)
