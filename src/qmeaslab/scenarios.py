"""Config-driven scenario runs with structured JSON/CSV reports.

Scenarios: ch-basic, ch-heisenberg, ch-cascade, rd-basic, growth.  Configs
are YAML mappings; complex amplitudes are written as [magnitude,
phase-in-degrees] pairs.  Reports are deterministic for a fixed config and
seed (the wall_time_s field aside).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from typing import Any, Callable

import numpy as np
import yaml

from . import cascade as casc
from . import chain as ch
from . import radiation as rad
from . import sectors as sec
from .hilbert import DEFAULT_DIM_CAP, DEFAULT_TOL
from .pauli import MAX_ENUMERATED_LABELS, PauliString, PauliSum

SCHEMA_VERSION = "1"

SCENARIOS = ("ch-basic", "ch-heisenberg", "ch-cascade", "rd-basic", "growth")

# qubits that fit the dimension cap
_MAX_QUBITS = DEFAULT_DIM_CAP.bit_length() - 1

# rd-basic stacks its closed Glauber family as a members x field_dim float
# array (and evaluates it through complex arrays of the same shape), so a
# wide field is refused at config time above this many entries
_MAX_GLAUBER_FAMILY_ENTRIES = 2 ** 24

# the largest float whose square is finite
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


# ---------------------------------------------------------------------------
# configuration schema

def _amp(value, path: str) -> tuple[float, float]:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in value)):
        raise ConfigError(
            f"{path}: amplitudes are [magnitude, phase-degrees] pairs, got {value!r}")
    if value[0] < 0:
        raise ConfigError(f"{path}: magnitude must be >= 0, got {value[0]}")
    return float(value[0]), float(value[1])


def _to_complex(amp: tuple[float, float]) -> complex:
    mag, deg = amp
    return mag * complex(math.cos(math.radians(deg)), math.sin(math.radians(deg)))


_INV_SQRT2 = float(np.sqrt(0.5))

_COMMON_DEFAULTS: dict[str, Any] = {
    "tolerance": DEFAULT_TOL,
    "seed": 7,
    "format": "json",
    "output": None,
    "sweep": None,
}

_SCENARIO_DEFAULTS: dict[str, dict[str, Any]] = {
    "ch-basic": {
        "n_atoms": 4,
        "a1": [_INV_SQRT2, 0.0],
        "a2": [_INV_SQRT2, 0.0],
        "theta_deg": 90.0,
        "fuzz_cases": 20,
        "observable_preset": "sector_preserving",
    },
    "ch-heisenberg": {
        "n_atoms": 4,
        "j_coupling": 1.0,
    },
    "ch-cascade": {
        "chains": [1, 1],
        "a1": [float(np.sqrt(0.7)), 0.0],
        "a2": [float(np.sqrt(0.3)), 60.0],
        "phase_scan_points": 13,
    },
    "rd-basic": {
        "modes": 1,
        "cutoff": 3,
        "photons": [
            {"pattern": [1], "c": [_INV_SQRT2, 0.0]},
            {"pattern": [2], "c": [_INV_SQRT2, 0.0]},
        ],
        "background": [],
        "a1": [_INV_SQRT2, 0.0],
        "a2": [_INV_SQRT2, 0.0],
        "system_factor_cases": 100,
        "observable_preset": "glauber",
    },
    "growth": {
        "n_emit": 2,
        "depth": 10,
        "bound": 2 ** 62,
    },
}

_SWEEPABLE: dict[str, tuple[str, ...]] = {
    "ch-basic": ("a1_phase_deg", "a2_phase_deg", "theta_deg"),
    "ch-heisenberg": ("j_coupling",),
    "ch-cascade": ("a1_phase_deg", "a2_phase_deg"),
    "rd-basic": ("a1_phase_deg", "a2_phase_deg"),
    "growth": (),
}


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    start: float
    stop: float
    steps: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    tolerance: float
    seed: int
    fmt: str
    output: str | None
    sweep: SweepSpec | None
    params: dict[str, Any]


def _parse_sweep(raw, scenario: str) -> SweepSpec | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError(f"sweep: expected a mapping, got {type(raw).__name__}")
    unknown = set(raw) - {"parameter", "start", "stop", "steps"}
    if unknown:
        raise ConfigError(f"sweep.{sorted(unknown)[0]}: unknown key")
    try:
        spec = SweepSpec(str(raw["parameter"]), _real_text(raw["start"], "sweep.start"),
                         _real_text(raw["stop"], "sweep.stop"),
                         _int_at_least(raw["steps"], 1, "sweep.steps"))
    except KeyError as missing:
        raise ConfigError(f"sweep: missing key {missing.args[0]!r}") from None
    if spec.parameter not in _SWEEPABLE[scenario]:
        raise ConfigError(
            f"sweep.parameter: {spec.parameter!r} is not sweepable for {scenario} "
            f"(allowed: {_SWEEPABLE[scenario]}); magnitude sweeps would violate "
            "|a1|^2+|a2|^2 = 1")
    return spec


def _int_at_least(value, minimum: int, path: str) -> int:
    """An integer field (YAML booleans rejected) with its lower bound."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(
            f"{path}: requires an integer {path} >= {minimum}, got {value!r}")
    return value


def _real(value, path: str) -> float:
    """A finite real field (YAML booleans rejected)."""
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not math.isfinite(value)):
        raise ConfigError(f"{path}: requires a finite real number, got {value!r}")
    return float(value)


def _real_text(value, path: str) -> float:
    """A finite real that may arrive as text: YAML 1.1 reads exponent
    notation without a dot (`1e-10`) as a string, so a string that parses
    as a number is taken as that number."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(
                f"{path}: requires a finite real number, got {value!r}") from None
    return _real(value, path)


def _tolerance(value) -> float:
    """A finite real >= 1e-14, written as a number or as numeric text: every
    self-check runs at the tolerance, and below 1e-14 rounding fails them."""
    tol = _real_text(value, "tolerance")
    if tol <= 0.0:
        raise ConfigError(f"tolerance: requires tolerance > 0, got {tol!r}")
    if tol < 1e-14:
        raise ConfigError(f"tolerance: requires tolerance >= 1e-14, where float rounding "
                          f"no longer fails the self-checks, got {tol!r}")
    return tol


def _occupations(value, path: str, cutoff: int) -> tuple[int, ...]:
    """A list of photon occupation numbers, each an integer in [0, cutoff)."""
    if not isinstance(value, list):
        raise ConfigError(f"{path}: requires a list of occupation numbers, got {value!r}")
    for k, n in enumerate(value):
        if _int_at_least(n, 0, f"{path}[{k}]") >= cutoff:
            raise ConfigError(
                f"{path}[{k}]: requires an occupation below cutoff = {cutoff}, got {n}")
    return tuple(value)


def _glauber_family_entries(modes: int, cutoff: int) -> int:
    """members x field_dim of the closed Glauber family on `modes` modes:
    16 system Paulis times 2M + M(M-1)/2 number functions, plus every
    pairwise product."""
    g = 16 * (2 * modes + modes * (modes - 1) // 2)
    return (g + g * (g + 1) // 2) * cutoff ** modes


def _check_rd_basic(params: dict[str, Any]):
    """Photon patterns, background and field size of an rd-basic config.
    The run's background check adds one mode to the model, so its layout
    and its closed Glauber family bound those of the model itself."""
    modes = _int_at_least(params["modes"], 1, "modes")
    cutoff = _int_at_least(params["cutoff"], 2, "cutoff")
    _int_at_least(params["system_factor_cases"], 0, "system_factor_cases")
    if not isinstance(params["photons"], list) or not params["photons"]:
        raise ConfigError("photons: at least one {pattern, c} entry is required")
    seen: set[tuple[int, ...]] = set()
    weight = 0.0
    for k, entry in enumerate(params["photons"]):
        path = f"photons[{k}]"
        if not isinstance(entry, dict) or set(entry) != {"pattern", "c"}:
            raise ConfigError(f"{path}: entries are mappings with keys pattern and c")
        pattern = _occupations(entry["pattern"], f"{path}.pattern", cutoff)
        if len(pattern) != modes:
            raise ConfigError(f"{path}.pattern: requires one occupation per mode "
                              f"(modes = {modes}), got {list(pattern)}")
        if sum(pattern) < 1:
            raise ConfigError(f"{path}.pattern: the vacuum cannot be an emission "
                              f"pattern, got {list(pattern)}")
        if pattern in seen:
            raise ConfigError(f"{path}.pattern: duplicate pattern {list(pattern)}")
        seen.add(pattern)
        weight += _amp(entry["c"], f"{path}.c")[0] ** 2
    if abs(weight - 1.0) > 1e-9:
        raise ConfigError(
            f"photons: amplitudes must satisfy sum |c_j|^2 = 1, got {weight}")
    field_modes = len(_occupations(params["background"], "background", cutoff)) + modes
    dim = 4 * cutoff ** (field_modes + 1)
    if dim > DEFAULT_DIM_CAP:
        raise ConfigError(
            f"modes/cutoff/background: the background check's layout of dim 4 * "
            f"cutoff^(modes + len(background) + 1) = {dim} must fit the dimension "
            f"cap {DEFAULT_DIM_CAP}")
    entries = _glauber_family_entries(field_modes + 1, cutoff)
    if entries > _MAX_GLAUBER_FAMILY_ENTRIES:
        raise ConfigError(
            f"modes/cutoff/background: the closed Glauber family of the background "
            f"check has members x field_dim = {entries} entries, above the bound "
            f"{_MAX_GLAUBER_FAMILY_ENTRIES}")


def _check_params(scenario: str, params: dict[str, Any], tol: float):
    """Type and range checks naming the violated precondition."""
    if scenario in ("ch-basic", "ch-heisenberg"):
        n = _int_at_least(params["n_atoms"], 2 if scenario == "ch-heisenberg" else 1,
                          "n_atoms")
        qubits = n + 1 if scenario == "ch-basic" else n
        if qubits > _MAX_QUBITS:
            raise ConfigError(
                f"n_atoms: the layout of {qubits} qubits must fit the dimension cap "
                f"2^{_MAX_QUBITS}, got n_atoms = {n}")
    if scenario == "ch-basic":
        _real(params["theta_deg"], "theta_deg")
        _int_at_least(params["fuzz_cases"], 0, "fuzz_cases")
        preset = params["observable_preset"]
        if preset not in sec.CHAIN_PRESETS:
            raise ConfigError(
                f"observable_preset: expected one of {sec.CHAIN_PRESETS}, got {preset!r}")
        if preset in ("all_strings", "sector_preserving") and n + 1 > MAX_ENUMERATED_LABELS:
            raise ConfigError(
                f"observable_preset: {preset} enumerates 4^(n_atoms + 1) Pauli strings "
                f"and requires n_atoms + 1 <= {MAX_ENUMERATED_LABELS}, got n_atoms = {n}")
    if scenario == "ch-heisenberg":
        j = abs(_real(params["j_coupling"], "j_coupling"))
        # the single flip's residual is exactly 2|J|: the one bond term
        # J (XX + YY) it breaks maps |du...> to 2J |ud...>
        if 0.0 < 2.0 * j <= tol:
            raise ConfigError(
                f"j_coupling: requires 2|J| > tolerance {tol} (or J = 0) so that the "
                f"single flip is not an eigenstate within tolerance, got 2|J| = {2.0 * j!r}")
        # the residual's norm squares 2J, which overflows above this bound
        if 2.0 * j > _SQRT_FLOAT_MAX:
            raise ConfigError(
                f"j_coupling: requires 2|J| <= sqrt(float max) = {_SQRT_FLOAT_MAX!r} so that "
                f"the single flip's residual norm is finite, got 2|J| = {2.0 * j!r}")
        # the ground eigenvalue sums n_atoms - 1 terms J in order, and is
        # compared with J (n_atoms - 1): n_atoms - 3 rounded additions (0 + J
        # and J + J are exact) and one rounded product, each off by at most
        # half an ulp of a magnitude below |J| (n_atoms - 1)(1 + n_atoms eps)
        scale = j * (n - 1) * (1.0 + n * np.finfo(float).eps)
        floor = (n - 2) / 2 * math.ulp(scale)
        if tol < floor:
            raise ConfigError(
                f"tolerance: ch-heisenberg compares a sum of n_atoms - 1 couplings with "
                f"J (n_atoms - 1) and requires tolerance >= (n_atoms - 2)/2 ulp(|J| "
                f"(n_atoms - 1)(1 + n_atoms eps)) = {floor!r}, got {tol!r}")
    if scenario == "ch-cascade":
        chains = params["chains"]
        if not isinstance(chains, list) or len(chains) < 2:
            raise ConfigError(
                f"chains: cascade scenarios require a list of m >= 2 chains, got {chains!r}")
        for k, size in enumerate(chains):
            _int_at_least(size, 1, f"chains[{k}]")
        if 1 + sum(chains) > _MAX_QUBITS:
            raise ConfigError(
                f"chains: the layout of 1 + sum(chains) = {1 + sum(chains)} qubits must "
                f"fit the dimension cap 2^{_MAX_QUBITS}, got {chains!r}")
        _int_at_least(params["phase_scan_points"], 0, "phase_scan_points")
    if scenario == "rd-basic":
        _check_rd_basic(params)
        if params["observable_preset"] not in ("glauber", "with_vacuum_connector"):
            raise ConfigError(
                "observable_preset: expected glauber or with_vacuum_connector, "
                f"got {params['observable_preset']!r}")
    if scenario == "growth":
        n_emit = _int_at_least(params["n_emit"], 2, "n_emit")
        depth = _int_at_least(params["depth"], 0, "depth")
        bound = _int_at_least(params["bound"], 1, "bound")
        try:
            count = rad.cascade_growth(n_emit, depth, bound)
        except OverflowError:
            raise ConfigError(
                f"bound: requires n_emit^depth = {n_emit}^{depth} <= bound, "
                f"got bound = {bound}") from None
        if count > sys.float_info.max:
            raise ConfigError(
                f"depth/bound: the report's float final_count requires n_emit^depth <= "
                f"float max {sys.float_info.max!r}, got {n_emit}^{depth}")
    for key in ("a1", "a2"):
        if key in params:
            _amp(params[key], key)
    if "a1" in params and "a2" in params:
        mags = (_amp(params["a1"], "a1")[0], _amp(params["a2"], "a2")[0])
        w = mags[0] ** 2 + mags[1] ** 2
        if abs(w - 1.0) > 1e-9:
            raise ConfigError(
                f"a1/a2: amplitudes must satisfy |a1|^2 + |a2|^2 = 1, got {w}")
        if tol >= max(mags):  # a branch is kept only where its amplitude exceeds tol
            raise ConfigError(f"tolerance: requires tolerance < max(|a1|, |a2|) = "
                              f"{max(mags)} so that a branch is kept, got {tol!r}")
        if scenario == "rd-basic" and min(mags) <= tol:
            # one branch leaves no superposition for the vacuum connector
            raise ConfigError(
                "a1/a2: rd-basic needs two branches, i.e. min(|a1|, |a2|) > "
                f"tolerance {tol}, got {min(mags)}")
    if scenario == "ch-cascade":
        # recording B splits the state into eigenbranches of weight
        # (1 +- <B>)/2 with |<B>| = |2 Re(a1* a2)|; one branch leaves no
        # joint IT operator for the later stages and the terminal witness
        a1 = _to_complex(_amp(params["a1"], "a1"))
        a2 = _to_complex(_amp(params["a2"], "a2"))
        w_min = 0.5 * (1.0 - abs(2.0 * (a1.conjugate() * a2).real))
        if w_min <= tol:
            raise ConfigError(
                "a1/a2: the cascade needs two B eigenbranches after stage 2, i.e. "
                f"(1 - |2 Re(a1* a2)|)/2 > tolerance {tol}, got {w_min}")


def build_config(data: dict[str, Any]) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a mapping, got {type(data).__name__}")
    if "scenario" not in data:
        raise ConfigError("scenario: key is required")
    scenario = data["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"scenario: unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    defaults = dict(_SCENARIO_DEFAULTS[scenario])
    allowed = set(_COMMON_DEFAULTS) | set(defaults) | {"scenario"}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"{key}: unknown key for scenario {scenario!r} "
                              f"(allowed: {sorted(allowed)})")
    merged = {**_COMMON_DEFAULTS, **defaults,
              **{k: v for k, v in data.items() if k != "scenario"}}
    fmt = merged["format"]
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format: expected json or csv, got {fmt!r}")
    sweep = _parse_sweep(merged["sweep"], scenario)
    params = {k: v for k, v in merged.items()
              if k not in ("tolerance", "seed", "format", "output", "sweep")}
    tolerance = _tolerance(merged["tolerance"])
    seed = _int_at_least(merged["seed"], 0, "seed")
    output = merged["output"]
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output: expected a path string or null, got {output!r}")
    _check_params(scenario, params, tolerance)
    if sweep is not None:
        for value in map(float, sweep.values()):
            try:
                _check_params(scenario, _apply_sweep_value(params, sweep.parameter, value),
                              tolerance)
            except ConfigError as err:
                raise ConfigError(f"sweep: at {sweep.parameter} = {value!r}: {err}") from None
    return ScenarioConfig(
        scenario=scenario,
        tolerance=tolerance,
        seed=seed,
        fmt=fmt,
        output=output,
        sweep=sweep,
        params=params,
    )


def _load_yaml(text: str, what: str = "config"):
    """The YAML value of `text`; malformed YAML is a ConfigError naming `what`."""
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ConfigError(f"{what} is not valid YAML: {err}") from err


def parse_config(text: str) -> ScenarioConfig:
    return build_config(_load_yaml(text) or {})


# ---------------------------------------------------------------------------
# reports

def _shallow_dict(report) -> dict[str, Any]:
    """Every field of a report dataclass by name, values as they are (no
    deep copy, unlike dataclasses.asdict)."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


@dataclass(frozen=True)
class InvariantResult:
    name: str
    residual: float
    threshold: float
    passed: bool
    required: bool = True

    def as_dict(self) -> dict[str, Any]:
        return _shallow_dict(self)


@dataclass(frozen=True)
class RunReport:
    scenario: str
    parameters: dict[str, Any]
    tolerance: float
    seed: int
    expectations: dict[str, float | None]
    invariants: tuple[InvariantResult, ...]
    verdicts: tuple[dict[str, Any], ...]
    extras: dict[str, Any]
    sweep: dict[str, Any] | None
    wall_time_s: float
    schema_version: str = SCHEMA_VERSION

    def failed_required(self) -> bool:
        return any(r.required and not r.passed for r in self.invariants)

    def as_dict(self) -> dict[str, Any]:
        return {**_shallow_dict(self), "invariants": [r.as_dict() for r in self.invariants],
                "verdicts": list(self.verdicts)}


def emit(report: RunReport, fmt: str | None = None) -> bytes:
    fmt = fmt or "json"
    if fmt == "json":
        return (json.dumps(report.as_dict(), indent=2, sort_keys=True,
                           allow_nan=False) + "\n").encode()
    if fmt != "csv":
        raise ConfigError(f"format: expected json or csv, got {fmt!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if report.sweep is not None:
        columns = list(report.sweep["columns"])
        writer.writerow(columns)
        for row in report.sweep["rows"]:
            writer.writerow([row.get(c) for c in columns])
    else:
        writer.writerow(["name", "value"])
        for name in report.expectations:
            writer.writerow([name, report.expectations[name]])
    return buf.getvalue().encode()


# ---------------------------------------------------------------------------
# scenario bodies

def _inv(name: str, residual: float, tol: float, required: bool = True,
         passed: bool | None = None) -> InvariantResult:
    ok = (residual <= tol) if passed is None else passed
    return InvariantResult(name, float(residual), float(tol), bool(ok), required)


def _verdict_dict(set_name: str, v: sec.DiscriminationVerdict) -> dict[str, Any]:
    return {"set": set_name, "max_deviation": float(v.max_deviation),
            "distinguishable": bool(v.distinguishable),
            "witness": v.witness_name}


def _random_amplitudes(rng: np.random.Generator) -> tuple[complex, complex]:
    raw = rng.normal(size=4)
    a = complex(raw[0], raw[1])
    b = complex(raw[2], raw[3])
    n = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / n, b / n


def _run_ch_basic(params, tol, rng):
    n = params["n_atoms"]
    a1 = _to_complex(_amp(params["a1"], "a1"))
    a2 = _to_complex(_amp(params["a2"], "a2"))
    theta = math.radians(params["theta_deg"])
    model = ch.ChainModel(n, a1, a2, theta)
    atoms = model.atoms
    psi = ch.full_passage(model)
    closed = ch.closed_form_final(model)
    closed_residual = float(np.linalg.norm(psi.amplitudes - closed.amplitudes))
    fidelity = abs(psi.inner(closed))
    mu = ch.pointer_operator(atoms)
    b = ch.it_operator(atoms)
    z0 = PauliSum.from_string(PauliString.single(ch.SYSTEM_LABEL, "Z"))
    audit = ch.it_commutator_audit(n)
    it_cross = float(np.real(np.conj(a1) * a2 + a1 * np.conj(a2)))

    expectations: dict[str, float | None] = {
        "sigma0_z": sec.op_expectation(z0, psi, tol),
        "mu_z": sec.op_expectation(mu, psi, tol),
        "b_pure": sec.op_expectation(b, psi, tol),
        "it_cross": it_cross,
        "closed_form_residual": closed_residual,
        "fidelity": fidelity,
        "eq5_constant_re": float(audit.constant.real),
        "eq5_constant_im": float(audit.constant.imag),
    }
    invariants = [
        _inv("closed_form_matches_stepwise", closed_residual, tol),
        _inv("eq5_proportionality", 0.0 if audit.proportional else 1.0, tol),
    ]
    verdicts: list[dict[str, Any]] = []
    fuzz_worst = 0.0
    for _ in range(params["fuzz_cases"]):
        ra1, ra2 = _random_amplitudes(rng)
        rmodel = ch.ChainModel(n, ra1, ra2, theta)
        rpsi = ch.full_passage(rmodel)
        rclosed = ch.closed_form_final(rmodel)
        fuzz_worst = max(fuzz_worst,
                         float(np.linalg.norm(rpsi.amplitudes - rclosed.amplitudes)))
    expectations["fuzz_worst_residual"] = fuzz_worst
    invariants.append(_inv("closed_form_fuzz", fuzz_worst, tol))

    complete_flip = ch._complete_flip(theta)
    extras: dict[str, Any] = {"pointer_branches": complete_flip,
                              "fuzz_cases": params["fuzz_cases"]}
    if complete_flip:
        decomp = ch.final_branches(model, tol)
        b_mixed = sec.op_expectation_mixed(b, decomp, tol)
        strict = ch.strict_check(z0, mu, psi, tol=tol)
        b_pure = expectations["b_pure"]
        expected_b = ((-1.0) ** n) * it_cross
        expectations.update({
            "b_mixed": b_mixed,
            "strict_q": strict.q_expect,
            "strict_qo": strict.qo_expect,
            "strict_delta": strict.delta,
            "b_pure_expected": expected_b,
        })
        half_cross = 0.5 * it_cross
        expectations["b_half_cross_ratio"] = (
            b_pure / half_cross if abs(half_cross) > 1e-9 else None)
        invariants += [
            _inv("strict_delta_zero", abs(strict.delta), tol),
            _inv("b_mixed_zero", abs(b_mixed), tol),
            _inv("b_pure_magnitude", abs(abs(b_pure) - abs(it_cross)), tol),
        ]
        preset_name = params["observable_preset"]
        preset = sec.chain_observable_preset(preset_name, n, tol)
        v_preset = sec.discriminate(psi, decomp, preset, tol)
        verdicts.append(_verdict_dict(preset.name, v_preset))
        with_b = sec.chain_observable_preset("with_B", n, tol)
        v_b = sec.discriminate(psi, decomp, with_b, tol)
        verdicts.append(_verdict_dict(with_b.name, v_b))
        if preset_name in ("sector_preserving", "pointer_only"):
            invariants.append(_inv("preset_cannot_discriminate",
                                   v_preset.max_deviation, tol))
        # amplitudes with a vanishing interference term are excluded from
        # the discrimination claim; report the exclusion instead
        generic = abs(it_cross) > 0.1
        extras["b_excluded_amplitudes"] = not generic
        if generic:
            invariants.append(_inv("with_B_discriminates",
                                   0.0 if v_b.distinguishable else 1.0, tol))
    return expectations, invariants, verdicts, extras


def _run_ch_heisenberg(params, tol, rng):
    n = params["n_atoms"]
    j = float(params["j_coupling"])
    h = ch.heisenberg_hamiltonian(n, j)
    from .hilbert import HilbertLayout, basis_state

    layout = HilbertLayout.qubits(ch.atom_labels(n))
    ground = basis_state(layout, [0] * n)
    flipped = basis_state(layout, [1] + [0] * (n - 1))
    res_g, lam_g = ch.eigenstate_residual(h, ground, tol)
    res_f, lam_f = ch.eigenstate_residual(h, flipped, tol)
    identity_res, _ = ch.eigenstate_residual(PauliSum.identity(), ground, tol)
    expectations = {
        "lambda_ground": lam_g,
        "lambda_expected": j * (n - 1),
        "ground_residual": res_g,
        "single_flip_lambda": lam_f,
        "single_flip_residual": res_f,
        "identity_residual": identity_res,
    }
    invariants = [
        _inv("allup_is_eigenstate", res_g, tol),
        _inv("eigenvalue_matches_J(N-1)", abs(lam_g - j * (n - 1)), tol),
        _inv("single_flip_not_eigenstate", res_f, tol,
             passed=res_f > tol or j == 0.0),
        _inv("identity_trivially_eigenstate", identity_res, tol),
    ]
    return expectations, invariants, [], {}


def _run_ch_cascade(params, tol, rng):
    a1 = _to_complex(_amp(params["a1"], "a1"))
    a2 = _to_complex(_amp(params["a2"], "a2"))
    chains = tuple(params["chains"])
    model = casc.CascadeModel(chains, a1, a2)
    run = casc.run_cascade(model, tol=tol)
    if len(run.stages) < model.m or len(run.final.branches.branches) < 2:
        raise ConfigError(
            "a1/a2: the terminal witness needs two branches at every stage >= 2; "
            f"these amplitudes leave one at stage {len(run.stages)}")
    trade = run.tradeoff(tol)
    witness = run.terminal_witness(tol)
    b1_op = ch.it_operator(model.chain_atoms(1))
    psi = run.stages[0].state
    b1_sq, b2_sq = (float(np.linalg.norm(part) ** 2)
                    for part in casc._pauli_split(psi.layout, psi.amplitudes, b1_op, (), tol))
    bamp1, bamp2 = witness.branch_amplitudes
    expectations: dict[str, float | None] = {
        "mu_before": trade.mu_before,
        "mu_after": trade.mu_after,
        "b_before": trade.b_before,
        "b_prime_after": trade.b_prime_after,
        "b1_sq": b1_sq,
        "b2_sq": b2_sq,
        "terminal_deviation": witness.deviation,
        "terminal_re_b1b2": float(np.real(np.conj(bamp1) * bamp2)),
    }
    invariants = [
        _inv("pointer_erased_after_stage2", abs(trade.mu_after), tol),
        _inv("b_prime_matches_b", abs(trade.b_prime_after - trade.b_before), tol),
        _inv("terminal_support_covers_observer",
             0.0 if witness.covers_observer else 1.0, tol),
    ]
    extras: dict[str, Any] = {
        "terminal_support": list(witness.support),
        "stages": [s.recorded for s in run.stages],
        "terminal_excluded_point": not witness.exists,
    }
    # phases with Re(b1* b2) = 0 are the reported excluded set; the witness
    # claim applies off it
    if witness.exists:
        invariants.append(_inv("terminal_witness_discriminates", 0.0, tol))
    phi, branches2 = run.stages[1].state, run.stages[1].branches
    b2p = casc.build_B2_flip_sum(model.chain_atoms(1), model.chain_atoms(2))
    expectations["b2_flip_sum_pure"] = sec.op_expectation(b2p, phi, tol)
    expectations["b2_flip_sum_mixed"] = sec.op_expectation_mixed(b2p, branches2, tol)
    connector = casc.joint_it_operator(branches2)
    expectations["connector_pure"] = connector.expectation(phi)
    expectations["connector_mixed"] = sum(abs(a) ** 2 * connector.expectation(chi)
                                          for a, chi in branches2.branches)
    invariants.append(_inv("b2_flip_sum_blind_on_mixture",
                           abs(expectations["b2_flip_sum_mixed"]), tol))
    pointer_set = sec.ObservableSet(
        "chain_pointers",
        tuple((f"mu_z(C{k})", ch.pointer_operator(model.chain_atoms(k)))
              for k in range(1, model.m + 1)))
    v = sec.discriminate(phi, branches2, pointer_set, tol)
    invariants.append(_inv("pointers_cannot_discriminate", v.max_deviation, tol))
    extras["pointer_verdict"] = _verdict_dict(pointer_set.name, v)
    # excluded-parameter scan: phases where the terminal witness goes blind
    mag1, _ = _amp(params["a1"], "a1")
    mag2, _ = _amp(params["a2"], "a2")
    degs = [float(d) for d in np.linspace(0.0, 180.0, params["phase_scan_points"])]
    devs = casc.scan_terminal_deviation(casc.CascadeModel(chains, mag1, mag2),
                                        [_to_complex((mag2, d)) for d in degs], tol)
    extras["phase_scan"] = [{"a2_phase_deg": d, "terminal_deviation": float(dev)}
                            for d, dev in zip(degs, devs)]
    extras["excluded_phases_deg"] = [d for d, dev in zip(degs, devs) if dev <= tol]
    return expectations, invariants, [], extras


def _random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def _run_rd_basic(params, tol, rng):
    a1 = _to_complex(_amp(params["a1"], "a1"))
    a2 = _to_complex(_amp(params["a2"], "a2"))
    photons = tuple((tuple(entry["pattern"]),
                     _to_complex(_amp(entry["c"], "photons.c")))
                    for entry in params["photons"])
    model = rad.RadiationModel(a1, a2, params["modes"], params["cutoff"],
                               photons, tuple(params["background"]))
    decomp = rad.build_final_state(model, tol)
    pure = decomp.state()
    field_gens = rad.glauber_field_generators(model)
    c2_max = max(rad.check_no_vacuum_interference(f, model) for _, f in field_gens)
    quad = rad.quadrature_op(model, len(model.background) + 1)  # first emission mode
    quad_c2 = rad.check_no_vacuum_interference(quad, model)
    preset = params["observable_preset"]
    glauber = rad.glauber_generators(model)
    augmented = rad.with_vacuum_connector(model, glauber)
    v_glauber = sec.discriminate(pure, decomp, glauber, tol)
    v_counter = sec.discriminate(pure, decomp, augmented, tol)
    allowed, v_allowed = ((glauber, v_glauber) if preset == "glauber"
                          else (augmented, v_counter))
    bg_model = rad.add_uncorrelated_mode(model, 1)
    v_bg = rad.check_c22(bg_model, rad.glauber_generators(bg_model), tol)
    # per case: a random system factor, then a random field generator
    draws = [(_random_hermitian(rng, 4), field_gens[int(rng.integers(len(field_gens)))][1])
             for _ in range(params["system_factor_cases"])]
    worst_random = 0.0
    if draws:
        systems, fields = map(np.stack, zip(*draws))
        worst_random = float(np.max(sec._kron_deviations(systems, fields, pure, decomp)))
    overlap = abs(decomp.branches[0][1].inner(decomp.branches[-1][1])) \
        if len(decomp.branches) == 2 else 0.0
    expectations = {
        "c2_max_residual": float(c2_max),
        "quadrature_c2": float(quad_c2),
        "c22_max_deviation": float(v_allowed.max_deviation),
        "counterexample_deviation": float(v_counter.max_deviation),
        "background_c22_deviation": float(v_bg.max_deviation),
        "random_factor_worst_deviation": float(worst_random),
        "branch_overlap": float(overlap),
    }
    invariants = [
        _inv("no_vacuum_interference", c2_max, tol),
        _inv("glauber_cannot_discriminate", v_glauber.max_deviation, tol),
        _inv("vacuum_connector_discriminates",
             0.0 if v_counter.distinguishable else 1.0, tol),
        _inv("background_photons_irrelevant",
             abs(v_glauber.max_deviation - v_bg.max_deviation), tol),
        _inv("random_system_factors_blind", worst_random, tol),
        _inv("branch_orthogonality", overlap, tol),
    ]
    verdicts = [_verdict_dict("glauber", v_glauber),
                _verdict_dict("glauber+vacuum_connector", v_counter)]
    extras = {"generator_count": len(allowed),
              "system_factor_cases": params["system_factor_cases"]}
    return expectations, invariants, verdicts, extras


def _run_growth(params, tol, rng):
    n_emit, depth, bound = params["n_emit"], params["depth"], params["bound"]
    counts = [rad.cascade_growth(n_emit, d, bound) for d in range(depth + 1)]
    expectations = {"final_count": float(counts[-1])}
    invariants = [
        _inv("count_matches_power",
             0.0 if counts[-1] == n_emit ** depth else 1.0, tol),
        _inv("strictly_growing",
             0.0 if all(b > a for a, b in zip(counts, counts[1:])) else 1.0, tol),
    ]
    extras = {"counts_by_generation": counts}
    return expectations, invariants, [], extras


_RUNNERS: dict[str, Callable] = {
    "ch-basic": _run_ch_basic,
    "ch-heisenberg": _run_ch_heisenberg,
    "ch-cascade": _run_ch_cascade,
    "rd-basic": _run_rd_basic,
    "growth": _run_growth,
}


def _apply_sweep_value(params: dict[str, Any], parameter: str, value: float) -> dict[str, Any]:
    out = dict(params)
    if parameter == "a1_phase_deg":
        out["a1"] = [_amp(params["a1"], "a1")[0], float(value)]
    elif parameter == "a2_phase_deg":
        out["a2"] = [_amp(params["a2"], "a2")[0], float(value)]
    elif parameter in ("theta_deg", "j_coupling"):
        out[parameter] = float(value)
    else:
        raise ConfigError(f"sweep.parameter: cannot apply {parameter!r}")
    return out


def run(config: ScenarioConfig) -> RunReport:
    """Execute a scenario (or its sweep); deterministic for a fixed config."""
    t0 = time.perf_counter()
    runner = _RUNNERS[config.scenario]
    tol = config.tolerance
    if config.sweep is None:
        rng = np.random.default_rng(config.seed)
        expectations, invariants, verdicts, extras = runner(config.params, tol, rng)
        sweep_payload = None
    else:
        rows = []
        merged: dict[str, list[InvariantResult]] = {}
        expectations, verdicts, extras = {}, [], {}
        for value in config.sweep.values():
            rng = np.random.default_rng(config.seed)
            point_params = _apply_sweep_value(config.params,
                                              config.sweep.parameter, float(value))
            exp, inv, verd, ext = runner(point_params, tol, rng)
            row: dict[str, Any] = {config.sweep.parameter: float(value)}
            row.update(exp)
            rows.append(row)
            for r in inv:
                merged.setdefault(r.name, []).append(r)
        # every row starts with the parameter; a later point may add keys
        columns = list(dict.fromkeys(k for row in rows for k in row))
        sweep_payload = {"parameter": config.sweep.parameter,
                         "columns": columns, "rows": rows}
        invariants = [
            InvariantResult(name,
                            max(r.residual for r in results),
                            results[0].threshold,
                            all(r.passed for r in results),
                            any(r.required for r in results))
            for name, results in merged.items()
        ]
    report = RunReport(
        scenario=config.scenario,
        parameters=dict(sorted(config.params.items())),
        tolerance=tol,
        seed=config.seed,
        expectations=expectations,
        invariants=tuple(invariants),
        verdicts=tuple(verdicts),
        extras=extras,
        sweep=sweep_payload,
        wall_time_s=time.perf_counter() - t0,
    )
    return report
