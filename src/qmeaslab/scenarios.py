"""Config-driven scenario runs with structured JSON/CSV reports.

Scenarios: ch-basic, ch-heisenberg, ch-cascade, rd-basic.  Configs
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
from functools import partial
from typing import Any, Callable

import numpy as np
import yaml

from . import cascade as casc
from . import chain as ch
from . import radiation as rad
from . import sectors as sec
from .hilbert import DEFAULT_DIM_CAP, DEFAULT_TOL
from .pauli import MAX_ENUMERATED_LABELS, PauliSum

SCHEMA_VERSION = "1"

# report formats; the first is the default
_FORMATS = ("json", "csv")

# qubits that fit the dimension cap
_MAX_QUBITS = DEFAULT_DIM_CAP.bit_length() - 1

# libyaml's safe loader where PyYAML was built with it, else the pure-Python one
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# rd-basic's closed Glauber family keeps each distinct field row once but
# still indexes every member (generator indices, factor ids, deviations), so
# a many-mode field is refused at config time above this many members: a run
# whose family is the widest admitted one (11 field modes, 760,760 members)
# peaks near 330 MB of resident memory, and 12 modes would take twice that
_MAX_GLAUBER_FAMILY_MEMBERS = 10 ** 6

# the largest float whose square is finite
_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)

# ch-basic claims with_B discriminates only where |2 Re(a1* a2)| exceeds this
_B_EXCLUSION = 0.1

# the (a1, a2) pair of ch-basic's fixed passage, as config amplitudes
_FIXED_PAIR = ([0.6, 0.0], [0.8, 70.0])


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


# ---------------------------------------------------------------------------
# configuration schema: the kinds, each a check (value, path) that raises
# ConfigError; the bound of a kind made with functools.partial is its
# keyword.  Each scenario's table, `_SPECS` below the runners, gives every
# key its kind and default.

def _amp(value, path: str):
    """A [magnitude, phase-degrees] pair, both finite, the magnitude >= 0
    and its square finite."""
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in value)):
        raise ConfigError(
            f"{path}: amplitudes are [magnitude, phase-degrees] pairs, got {value!r}")
    if not (abs(value[0]) <= _SQRT_FLOAT_MAX and abs(value[1]) <= sys.float_info.max):
        raise ConfigError(f"{path}: requires a finite magnitude <= sqrt(float max) and a "
                          f"finite phase, got {value!r}")
    if value[0] < 0:
        raise ConfigError(f"{path}: magnitude must be >= 0, got {value[0]}")


def _to_complex(amp) -> complex:
    mag, deg = amp
    return mag * complex(math.cos(math.radians(deg)), math.sin(math.radians(deg)))


_INV_SQRT2 = float(np.sqrt(0.5))

_COMMON_DEFAULTS: dict[str, Any] = {
    "tolerance": DEFAULT_TOL,
    "seed": 7,
    "format": _FORMATS[0],
    "output": None,
    "sweep": None,
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
                         _int_at_least(raw["steps"], "sweep.steps", 1))
    except KeyError as missing:
        raise ConfigError(f"sweep: missing key {missing.args[0]!r}") from None
    sweepable = _SPECS[scenario].sweepable
    if spec.parameter not in sweepable:
        raise ConfigError(
            f"sweep.parameter: {spec.parameter!r} is not sweepable for {scenario} "
            f"(allowed: {sweepable}); magnitude sweeps would violate "
            "|a1|^2+|a2|^2 = 1")
    return spec


def _int_at_least(value, path: str, minimum: int) -> int:
    """An integer field (YAML booleans rejected) with its lower bound."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(
            f"{path}: requires an integer {path} >= {minimum}, got {value!r}")
    return value


def _real(value, path: str) -> float:
    """A finite real field (YAML booleans rejected).  The float range bounds
    it, so .nan, .inf and an integer too large for a float are refused."""
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not abs(value) <= sys.float_info.max):
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


def _occupations(value, path: str):
    """A list of photon occupation numbers, each an integer >= 0."""
    if not isinstance(value, list):
        raise ConfigError(f"{path}: requires a list of occupation numbers, got {value!r}")
    for k, n in enumerate(value):
        _int_at_least(n, f"{path}[{k}]", 0)


def _one_of(value, path: str, choices: tuple[str, ...]):
    """One of a fixed list of names."""
    if value not in choices:
        listed = " or ".join(choices) if len(choices) == 2 else f"one of {choices}"
        raise ConfigError(f"{path}: expected {listed}, got {value!r}")


def _chains(value, path: str):
    """A cascade's chain sizes: m >= 2 integers, each >= 1."""
    if not isinstance(value, list) or len(value) < 2:
        raise ConfigError(
            f"{path}: cascade scenarios require a list of m >= 2 chains, got {value!r}")
    for k, size in enumerate(value):
        _int_at_least(size, f"{path}[{k}]", 1)


def _photons(value, path: str):
    """A list of {pattern, c} mappings: occupations and an amplitude.  The
    pattern rules are the radiation model's own (see `_radiation_model`)."""
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of {{pattern, c}} entries, got {value!r}")
    for k, entry in enumerate(value):
        where = f"{path}[{k}]"
        if not isinstance(entry, dict) or set(entry) != {"pattern", "c"}:
            raise ConfigError(f"{where}: entries are mappings with keys pattern and c")
        _occupations(entry["pattern"], f"{where}.pattern")
        _amp(entry["c"], f"{where}.c")


def _glauber_family_members(modes: int) -> int:
    """Members of the closed Glauber family on `modes` modes: 16 system
    Paulis times 2M + M(M-1)/2 number functions, plus every pairwise
    product."""
    g = 16 * (2 * modes + modes * (modes - 1) // 2)
    return g + g * (g + 1) // 2


def _single_branch(stage: int) -> ConfigError:
    return ConfigError("a1/a2: the terminal witness needs two branches at every stage >= 2; "
                       f"these amplitudes leave one at stage {stage}")


def _check_params(scenario: str, params: dict[str, Any], tol: float):
    """The kind of every key, then the cross-key preconditions, each error
    naming the violated one."""
    for key, (kind, _) in _SPECS[scenario].keys.items():
        kind(params[key], key)
    if scenario in ("ch-basic", "ch-heisenberg"):
        n = params["n_atoms"]
        qubits = n + 1 if scenario == "ch-basic" else n
        if qubits > _MAX_QUBITS:
            raise ConfigError(
                f"n_atoms: the layout of {qubits} qubits must fit the dimension cap "
                f"2^{_MAX_QUBITS}, got n_atoms = {n}")
    if scenario == "ch-basic":
        preset = params["observable_preset"]
        if preset in ("all_strings", "sector_preserving") and n + 1 > MAX_ENUMERATED_LABELS:
            raise ConfigError(
                f"observable_preset: {preset} enumerates 4^(n_atoms + 1) Pauli strings "
                f"and requires n_atoms + 1 <= {MAX_ENUMERATED_LABELS}, got n_atoms = {n}")
    if scenario == "ch-heisenberg":
        j = abs(float(params["j_coupling"]))
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
    if scenario == "ch-cascade" and 1 + sum(params["chains"]) > _MAX_QUBITS:
        raise ConfigError(
            f"chains: the layout of 1 + sum(chains) = {1 + sum(params['chains'])} qubits "
            f"must fit the dimension cap 2^{_MAX_QUBITS}, got {params['chains']!r}")
    if scenario == "rd-basic":
        # the run's background check adds one mode to the model, so its
        # layout and its closed Glauber family bound those of the model
        field_modes = len(params["background"]) + params["modes"]
        cutoff = params["cutoff"]
        dim = 4 * cutoff ** (field_modes + 1)
        if dim > DEFAULT_DIM_CAP:
            raise ConfigError(
                f"modes/cutoff/background: the background check's layout of dim 4 * "
                f"cutoff^(modes + len(background) + 1) = {dim} must fit the dimension "
                f"cap {DEFAULT_DIM_CAP}")
        members = _glauber_family_members(field_modes + 1)
        if members > _MAX_GLAUBER_FAMILY_MEMBERS:
            raise ConfigError(
                f"modes/background: the closed Glauber family of the background check "
                f"on modes + len(background) + 1 = {field_modes + 1} field modes has "
                f"{members} members, above the bound {_MAX_GLAUBER_FAMILY_MEMBERS}")
    if "a1" in params:
        mags = (float(params["a1"][0]), float(params["a2"][0]))
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
        a1, a2 = _to_complex(params["a1"]), _to_complex(params["a2"])
        # |<B>| in the measured state, and B's deviation from its pointer branches
        cross = abs(2.0 * (a1.conjugate() * a2).real)
    if (scenario == "ch-basic" and ch._complete_flip(math.radians(params["theta_deg"]))
            and _B_EXCLUSION < cross <= tol):
        raise ConfigError(f"a1/a2/tolerance: at the complete flip, B's deviation "
                          f"|2 Re(a1* a2)| > {_B_EXCLUSION} must also exceed tolerance "
                          f"{tol} (with_B must discriminate), got {cross!r}")
    if scenario == "ch-cascade":
        # recording B splits the state into eigenbranches of weight
        # (1 +- <B>)/2; one branch leaves no joint IT operator for the later
        # stages and the terminal witness
        w_min = 0.5 * (1.0 - cross)
        if w_min <= tol:
            raise ConfigError(
                "a1/a2: the cascade needs two B eigenbranches after stage 2, i.e. "
                f"(1 - |2 Re(a1* a2)|)/2 > tolerance {tol}, got {w_min}")
        # a stage keeps a branch only where its amplitude exceeds tol
        lost = int(casc._closed_form_terminal(params["chains"], a1, [a2], tol)[1][0])
        if lost:
            raise _single_branch(lost)
    if scenario == "rd-basic":
        model = _radiation_model(params)
        # the vacuum connector XX (x) (|ref><p_0| + h.c.), alone or times a
        # Glauber member, sees the superposition only through Re(a1* a2 c_0)
        seen = 2.0 * abs((model.a1.conjugate() * model.a2
                          * model.photon_amplitudes[0][1]).real)
        if seen <= tol:
            raise ConfigError(
                "a1/a2/photons[0].c: the vacuum connector sees the superposition only "
                f"through 2|Re(a1* a2 c_0)|, which must exceed tolerance {tol}, got {seen!r}")


def _radiation_model(params: dict[str, Any]) -> rad.RadiationModel:
    """The model of an rd-basic config whose kinds are checked.  The model
    owns the photon and occupation rules; its refusal is the ConfigError."""
    photons = tuple((tuple(entry["pattern"]), _to_complex(entry["c"]))
                    for entry in params["photons"])
    try:
        return rad.RadiationModel(_to_complex(params["a1"]), _to_complex(params["a2"]),
                                  params["modes"], params["cutoff"], photons,
                                  tuple(params["background"]))
    except ValueError as err:
        raise ConfigError(str(err)) from None


def build_config(data: dict[str, Any]) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a mapping, got {type(data).__name__}")
    if "scenario" not in data:
        raise ConfigError("scenario: key is required")
    scenario = data["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"scenario: unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    keys = _SPECS[scenario].keys
    allowed = set(_COMMON_DEFAULTS) | set(keys) | {"scenario"}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"{key}: unknown key for scenario {scenario!r} "
                              f"(allowed: {sorted(allowed)})")
    merged = {**_COMMON_DEFAULTS, **{k: default for k, (_, default) in keys.items()},
              **{k: v for k, v in data.items() if k != "scenario"}}
    fmt = merged["format"]
    _one_of(fmt, "format", _FORMATS)
    sweep = _parse_sweep(merged["sweep"], scenario)
    params = {k: merged[k] for k in keys}
    tolerance = _tolerance(merged["tolerance"])
    seed = _int_at_least(merged["seed"], "seed", 0)
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
        return yaml.load(text, Loader=_YAML_LOADER)
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
    fmt = fmt or _FORMATS[0]
    _one_of(fmt, "format", _FORMATS)
    if fmt == "json":
        return (json.dumps(report.as_dict(), indent=2, sort_keys=True,
                           allow_nan=False) + "\n").encode()
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


def _run_ch_basic(params, tol, rng):
    n = params["n_atoms"]
    a1, a2 = _to_complex(params["a1"]), _to_complex(params["a2"])
    theta = math.radians(params["theta_deg"])
    model = ch.ChainModel(n, a1, a2, theta)
    atoms = model.atoms
    psi = ch.full_passage(model)
    branch = ch._closed_branch(n, theta)  # the fixed passage's closed form shares it
    closed = ch._closed_form(model.layout, a1, a2, branch)
    closed_residual = float(np.linalg.norm(psi.amplitudes - closed.amplitudes))
    fidelity = abs(psi.inner(closed))
    # a fixed pair with both amplitudes non-zero: the report's own pair may
    # pulse only zeros (a2 = 0), and a fault scaled by a1 hides at a1 = 0
    fixed = ch.ChainModel(n, *map(_to_complex, _FIXED_PAIR), theta)
    fixed_residual = float(np.linalg.norm(
        ch.full_passage(fixed).amplitudes
        - ch._closed_form(fixed.layout, fixed.a1, fixed.a2, branch).amplitudes))
    # the inverse passage, pulses at -theta, gives the ready state back
    echo = psi.amplitudes.copy()
    for atom in atoms:
        ch._pulse(echo, model.layout, ch.SYSTEM_LABEL, atom, -theta)
    echo_residual = float(np.linalg.norm(echo - ch._ready(model.layout, a1, a2)))
    mu = ch.pointer_operator(atoms)
    b = ch.it_operator(atoms)
    audit = ch.it_commutator_audit(n)
    it_cross = float(np.real(np.conj(a1) * a2 + a1 * np.conj(a2)))

    expectations: dict[str, float | None] = {
        "sigma0_z": sec.op_expectation(ch._Z_SYSTEM, psi, tol),
        "mu_z": sec.op_expectation(mu, psi, tol),
        "b_pure": sec.op_expectation(b, psi, tol),
        "it_cross": it_cross,
        "closed_form_residual": closed_residual,
        "fidelity": fidelity,
        "eq5_constant_re": float(audit.constant.real),
        "eq5_constant_im": float(audit.constant.imag),
        "fixed_passage_residual": fixed_residual,
        "echo_residual": echo_residual,
    }
    invariants = [
        _inv("closed_form_matches_stepwise", closed_residual, tol),
        _inv("eq5_proportionality", 0.0 if audit.proportional else 1.0, tol),
        _inv("closed_form_fixed_passage", fixed_residual, tol),
        _inv("echo_restores_ready_state", echo_residual, tol),
    ]
    verdicts: list[dict[str, Any]] = []

    complete_flip = ch._complete_flip(theta)
    extras: dict[str, Any] = {"pointer_branches": complete_flip}
    if complete_flip:
        decomp = ch.final_branches(model, tol)
        b_mixed = sec.op_expectation_mixed(b, decomp, tol)
        strict = ch.strict_check(ch._Z_SYSTEM, mu, psi, tol=tol)
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
        generic = abs(it_cross) > _B_EXCLUSION
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
    a1, a2 = _to_complex(params["a1"]), _to_complex(params["a2"])
    chains = tuple(params["chains"])
    model = casc.CascadeModel(chains, a1, a2)
    run = casc.run_cascade(model, tol=tol)
    if len(run.stages) < model.m or len(run.final.branches.branches) < 2:
        raise _single_branch(len(run.stages))
    trade = run.tradeoff(tol)
    witness = run.terminal_witness(tol)
    b1_op = ch.it_operator(model.chain_atoms(1))
    psi = run.stages[0].state
    b1_sq, b2_sq = (float(np.linalg.norm(part) ** 2)
                    for part in casc._pauli_split(psi, b1_op, (), tol))
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
    # the closed form's deviation and last branch pair against the run's: the
    # pair sees a wrong stage phase that |2 Re(conj(b1) b2)| does not
    *_, (closed1, closed2) = casc._stage_amplitudes(chains, a1, a2)
    closed_residual = max(
        abs(witness.deviation - casc._closed_form_terminal(chains, a1, [a2], tol)[0][0]),
        abs(bamp1 - closed1), abs(bamp2 - closed2))
    invariants = [
        _inv("pointer_erased_after_stage2", abs(trade.mu_after), tol),
        _inv("b_prime_matches_b", abs(trade.b_prime_after - trade.b_before), tol),
        _inv("terminal_support_covers_observer",
             0.0 if witness.covers_observer else 1.0, tol),
        _inv("terminal_closed_form_matches_run", closed_residual, tol),
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
    mag1, mag2 = float(params["a1"][0]), float(params["a2"][0])
    degs = [float(d) for d in np.linspace(0.0, 180.0, params["phase_scan_points"])]
    devs = casc._closed_form_terminal(chains, mag1, [_to_complex((mag2, d)) for d in degs],
                                      tol)[0].tolist()
    extras["phase_scan"] = [{"a2_phase_deg": d, "terminal_deviation": dev}
                            for d, dev in zip(degs, devs)]
    extras["excluded_phases_deg"] = [d for d, dev in zip(degs, devs) if dev <= tol]
    return expectations, invariants, [], extras


def _random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def _run_rd_basic(params, tol, rng):
    model = _radiation_model(params)
    decomp = rad.build_final_state(model, tol)
    pure = decomp.state()
    field_gens = rad.glauber_field_generators(model)
    c2_max = max(rad.check_no_vacuum_interference(f, model) for _, f in field_gens)
    quad = rad.quadrature_op(model, len(model.background) + 1)  # first emission mode
    quad_c2 = rad.check_no_vacuum_interference(quad, model)
    preset = params["observable_preset"]
    glauber = rad.glauber_generators(model)
    augmented = rad.with_vacuum_connector(model, glauber)  # the connector goes last
    v_glauber, v_counter = sec._prefix_verdicts(pure, decomp, augmented,
                                                (len(glauber), len(augmented)), tol)
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
        worst_random = float(np.max(sec._kron_deviations(systems, fields, decomp)))
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


@dataclass(frozen=True)
class _Spec:
    """A scenario's runner, and for each config key its kind and default."""

    runner: Callable
    keys: dict[str, tuple[Callable, Any]]

    @property
    def sweepable(self) -> tuple[str, ...]:
        """The phase of each amplitude key and each real key; magnitudes
        are not swept, they would break the weight rule."""
        return tuple(f"{key}_phase_deg" if kind is _amp else key
                     for key, (kind, _) in self.keys.items() if kind in (_amp, _real))


_SPECS: dict[str, _Spec] = {
    "ch-basic": _Spec(_run_ch_basic, {
        "n_atoms": (partial(_int_at_least, minimum=1), 4),
        "a1": (_amp, [_INV_SQRT2, 0.0]),
        "a2": (_amp, [_INV_SQRT2, 0.0]),
        "theta_deg": (_real, 90.0),
        "observable_preset": (partial(_one_of, choices=sec.CHAIN_PRESETS),
                              "sector_preserving"),
    }),
    "ch-heisenberg": _Spec(_run_ch_heisenberg, {
        "n_atoms": (partial(_int_at_least, minimum=2), 4),
        "j_coupling": (_real, 1.0),
    }),
    "ch-cascade": _Spec(_run_ch_cascade, {
        "chains": (_chains, [1, 1]),
        "a1": (_amp, [float(np.sqrt(0.7)), 0.0]),
        "a2": (_amp, [float(np.sqrt(0.3)), 60.0]),
        "phase_scan_points": (partial(_int_at_least, minimum=0), 13),
    }),
    "rd-basic": _Spec(_run_rd_basic, {
        "modes": (partial(_int_at_least, minimum=1), 1),
        "cutoff": (partial(_int_at_least, minimum=2), 3),
        "photons": (_photons, [{"pattern": [1], "c": [_INV_SQRT2, 0.0]},
                               {"pattern": [2], "c": [_INV_SQRT2, 0.0]}]),
        "background": (_occupations, []),
        "a1": (_amp, [_INV_SQRT2, 0.0]),
        "a2": (_amp, [_INV_SQRT2, 0.0]),
        "system_factor_cases": (partial(_int_at_least, minimum=0), 100),
        "observable_preset": (partial(_one_of, choices=("glauber", "with_vacuum_connector")),
                              "glauber"),
    }),
}

SCENARIOS = tuple(_SPECS)


def _apply_sweep_value(params: dict[str, Any], parameter: str, value: float) -> dict[str, Any]:
    """`params` at one sweep point: a real key set to `value`, or the phase
    of an amplitude key."""
    key = parameter.removesuffix("_phase_deg")
    return {**params, key: value if key == parameter else [params[key][0], value]}


def run(config: ScenarioConfig) -> RunReport:
    """Execute a scenario (or its sweep); deterministic for a fixed config."""
    t0 = time.perf_counter()
    runner = _SPECS[config.scenario].runner
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
