"""The scenario config tables: every scenario runs or is refused, and the
grammar document lists what the tables hold.

The property: for any config drawn from a scenario's table, `parse_config`
raises ConfigError, or `run` and `emit` succeed with every required
invariant passed and every expectation finite.  Each key is drawn from its
kind, inside its bound or just outside it, and some draws plant one fault
against a cross-key precondition.  Layouts are kept at or below 2^8,
counting rd-basic's background check, which adds one mode.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeaslab.hilbert import StateError
from qmeaslab.scenarios import (SCENARIOS, ConfigError, _COMMON_DEFAULTS, _SPECS, _amp,
                                _chains, _int_at_least, _occupations, _one_of, _photons,
                                _real, emit, parse_config, run)

SQ = math.sqrt(0.5)
MAX_QUBITS = 8  # layouts of at most 2^8

# the largest drawn value of each integer key that sizes a run
UPPER = {"n_atoms": MAX_QUBITS - 1, "phase_scan_points": 4, "system_factor_cases": 3,
         "modes": 2}


def _kind(kind):
    """A kind's check function and its bound (the partial's keywords)."""
    return getattr(kind, "func", kind), getattr(kind, "keywords", {})


def _field_room(data) -> int:
    """Field modes the layout budget still admits beside rd-basic's drawn
    modes and the background check's extra mode."""
    return int(math.log(2 ** MAX_QUBITS // 4 + 0.5, data["cutoff"])) - data["modes"] - 1


def _amplitudes(mags=st.floats(0.0, 1.0)):
    return st.tuples(mags, st.sampled_from([0.0, 30.0, 45.0, 60.0, 90.0, 180.0, 270.0])
                     | st.floats(-720.0, 720.0)).map(list)


@st.composite
def _photon_lists(draw, modes, cutoff):
    """Distinct non-vacuum patterns with normalised amplitudes."""
    patterns = draw(st.lists(st.lists(st.integers(0, cutoff - 1), min_size=modes,
                                      max_size=modes).filter(any),
                             min_size=1, max_size=3, unique_by=tuple))
    cs = [draw(_amplitudes(st.floats(0.05, 1.0))) for _ in patterns]
    total = math.hypot(*(c[0] for c in cs))
    return [{"pattern": p, "c": [c[0] / total, c[1]]} for p, c in zip(patterns, cs)]


def _inside(kind, key, data):
    """A value of `kind` inside its bound, sized to the layout budget."""
    func, bound = _kind(kind)
    if func is _int_at_least:
        if key == "cutoff":  # the background check's layout is 4 cutoff^(modes + 1)
            hi = int((2 ** MAX_QUBITS // 4) ** (1 / (data["modes"] + 1)) + 1e-9)
            return st.integers(bound["minimum"], hi)
        return st.integers(bound["minimum"], UPPER[key])
    if func is _real:
        return st.sampled_from([90.0, 60.0, 0.0, 1.0, -2.5]) | st.floats(-1e3, 1e3)
    if func is _amp:  # a1/a2 are made to meet the weight rule afterwards
        return _amplitudes()
    if func is _one_of:
        return st.sampled_from(bound["choices"])
    if func is _chains:
        return st.lists(st.integers(1, 3), min_size=2, max_size=4).filter(
            lambda c: 1 + sum(c) <= MAX_QUBITS)
    if func is _occupations:  # the background modes
        return st.lists(st.integers(0, data["cutoff"] - 1), max_size=max(0, _field_room(data)))
    if func is _photons:
        return _photon_lists(data["modes"], data["cutoff"])
    raise AssertionError(f"no strategy for the kind of {key}")


def _outside(kind):
    """A value just outside `kind`: below its bound, of the wrong type, or
    not finite."""
    func, bound = _kind(kind)
    if func is _int_at_least:
        lo = bound["minimum"]
        return st.sampled_from([lo - 1, lo + 0.5, float(lo), True, str(lo)])
    if func is _real:
        return st.sampled_from([math.nan, math.inf, -math.inf, True, "abc", 10 ** 400])
    if func is _amp:
        return st.sampled_from([[math.nan, 0.0], [SQ, math.inf], [SQ, -math.inf],
                                [-0.5, 0.0], 0.7, [True, 0.0], [1e300, 0.0], [SQ, 10 ** 400],
                                [SQ, 0.0, 0.0]])
    if func is _one_of:
        return st.just("bogus")
    if func is _chains:
        return st.sampled_from([3, [1], [1, 0], [1, True], [1, 1.5]])
    if func is _occupations:
        return st.sampled_from([3, [-1], [1.5], [True]])
    if func is _photons:
        return st.sampled_from([3, [{"pattern": [1]}], [{"pattern": [1.5], "c": [1, 0]}],
                                [{"pattern": [1], "c": [math.nan, 0]}], [[1]]])
    raise AssertionError("no strategy for this kind")


def _normalise(data):
    w = data["a1"][0] ** 2 + data["a2"][0] ** 2
    if w == 0.0:
        data["a1"][0] = 1.0
    else:
        data["a1"][0], data["a2"][0] = (data[k][0] / math.sqrt(w) for k in ("a1", "a2"))


def _set(**changes):
    return lambda d: d.update(changes)


def _keep_no_branch(d):
    d["tolerance"] = max(d["a1"][0], d["a2"][0])


def _last_pattern(change):
    """Replace the last photon pattern p with change(p, data)."""
    def plant(d):
        d["photons"][-1]["pattern"] = change(d["photons"][-1]["pattern"], d)
    return plant


# per scenario, one fault for each cross-key precondition, in check order,
# with a fragment of the ConfigError that names it
FAULTS = {
    "ch-basic": {
        "dimension cap": ("dimension cap", _set(n_atoms=14)),
        "enumeration limit": (r"n_atoms \+ 1 <= 6", _set(n_atoms=6,
                                                         observable_preset="all_strings")),
        "weight rule": (r"\|a1\|\^2", _set(a1=[1.0, 0.0], a2=[0.5, 0.0])),
        "tolerance keeps a branch": ("so that a branch is kept", _keep_no_branch),
        "B exclusion": ("a1/a2/tolerance", _set(theta_deg=90.0, a1=[SQ, 0.0], a2=[SQ, 80.0],
                                                tolerance=0.2)),
    },
    "ch-heisenberg": {
        "dimension cap": ("dimension cap", _set(n_atoms=15)),
        "vanishing coupling": (r"2\|J\| > tolerance",
                               lambda d: d.update(j_coupling=d["tolerance"] / 4)),
        "overflow": (r"sqrt\(float max\)", _set(j_coupling=1.0e200, tolerance=1.0e190)),
        "eigenvalue floor": ("ulp", _set(n_atoms=8, j_coupling=246.7, tolerance=1e-14)),
    },
    "ch-cascade": {
        "dimension cap": ("dimension cap", _set(chains=[7, 7])),
        "weight rule": (r"\|a1\|\^2", _set(a1=[1.0, 0.0], a2=[0.5, 0.0])),
        "tolerance keeps a branch": ("so that a branch is kept", _keep_no_branch),
        "two B eigenbranches": ("two B eigenbranches", _set(a1=[SQ, 30.0], a2=[SQ, 30.0])),
        "a later stage's two branches": ("stage 4", _set(chains=[2, 1, 1, 2], a1=[1.0, 90.0],
                                                         a2=[1e-13, 90.0], tolerance=0.01)),
    },
    "rd-basic": {
        "field size": ("dimension cap", _set(cutoff=65)),
        "Glauber family": ("Glauber family", _set(
            modes=1, cutoff=2, background=[1] * 10,
            photons=[{"pattern": [1], "c": [1.0, 0.0]}])),
        "weight rule": (r"\|a1\|\^2", _set(a1=[1.0, 0.0], a2=[0.5, 0.0])),
        "tolerance keeps a branch": ("so that a branch is kept", _keep_no_branch),
        "two branches": ("rd-basic needs two branches", _set(a1=[1.0, 0.0], a2=[0.0, 0.0])),
        "vacuum pattern": ("vacuum", _last_pattern(lambda p, d: [0] * d["modes"])),
        "occupation at the cutoff": ("below cutoff", _last_pattern(
            lambda p, d: p[:-1] + [d["cutoff"]])),
        "background at the cutoff": ("below cutoff", lambda d: d.update(
            background=d["background"] + [d["cutoff"]])),
        "pattern length": ("one occupation per mode", _last_pattern(lambda p, d: p + [1])),
        "unnormalised photons": (r"sum \|c_j\|\^2 = 1",
                                 lambda d: d["photons"][0].update(c=[2.0, 0.0])),
        "no photons": ("at least one emission pattern", _set(photons=[])),
        "duplicate pattern": ("duplicate", lambda d: d["photons"].append(dict(d["photons"][0]))),
        "connector blind": ("vacuum connector sees", lambda d: d.update(
            a1=[SQ, 0.0], a2=[SQ, 0.0],
            photons=[{"pattern": [1] * d["modes"], "c": [1.0, 90.0]}])),
    },
}


@st.composite
def configs(draw, scenario):
    keys = _SPECS[scenario].keys
    data = {}
    for key, (kind, _) in keys.items():
        data[key] = draw(_inside(kind, key, data))
    if "a1" in data:
        _normalise(data)
    data["tolerance"] = draw(st.sampled_from([1e-12, 1e-14, 1e-15, 1e-9, 1e-3, 0.05, 0.3]))
    data["seed"] = draw(st.integers(0, 3))
    data["format"] = draw(st.sampled_from(("json", "csv")))
    sweepable = _SPECS[scenario].sweepable
    if sweepable and draw(st.integers(0, 3)) == 0:
        data["sweep"] = {"parameter": draw(st.sampled_from(sweepable)),
                         "start": draw(st.sampled_from([0.0, 45.0, 90.0])),
                         "stop": draw(st.sampled_from([0.0, 90.0, 180.0])),
                         "steps": draw(st.integers(1, 3))}
    plant = draw(st.sampled_from(["none", "none", "kind", "cross"]))
    if plant == "kind":
        key = draw(st.sampled_from(sorted(keys)))
        data[key] = draw(_outside(keys[key][0]))
    elif plant == "cross":
        FAULTS[scenario][draw(st.sampled_from(sorted(FAULTS[scenario])))][1](data)
    return {"scenario": scenario, **data}


def _runs_or_is_refused(data):
    try:
        config = parse_config(yaml.safe_dump(data))
    except ConfigError:
        return
    report = run(config)
    assert not report.failed_required(), [r for r in report.invariants if not r.passed]
    emit(report, config.fmt)
    out = json.loads(emit(report))
    rows = out["sweep"]["rows"] if out["sweep"] else [out["expectations"]]
    values = [v for row in rows for v in row.values() if v is not None]
    assert np.isfinite(values).all(), rows


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_scenario_runs_or_is_refused(scenario):
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(configs(scenario))
    def check(data):
        _runs_or_is_refused(data)

    check()


@pytest.mark.parametrize("scenario, fault", [(s, f) for s in SCENARIOS for f in FAULTS[s]])
def test_each_planted_fault_is_refused(scenario, fault):
    # each fault, planted in the default config, is refused by its own
    # precondition
    data = {"scenario": scenario, "tolerance": 1e-12, **json.loads(json.dumps(
        {k: default for k, (_, default) in _SPECS[scenario].keys.items()}))}
    match, plant = FAULTS[scenario][fault]
    plant(data)
    with pytest.raises(ConfigError, match=match):
        parse_config(yaml.safe_dump(data))


# The weight rule admits |a1|^2 + |a2|^2 within 1e-9 of 1, but the run
# checks the ready chain state's norm within 1e-12 and the branch weights
# within the tolerance: a sum 4e-10 above 1 parses, then fails mid-run.
@pytest.mark.xfail(strict=True, raises=StateError,
                   reason="weight sums the config admits but the run's self-checks refuse")
@pytest.mark.parametrize("text", [
    "scenario: ch-basic\na1: [2.0e-5, 90]\na2: [1.0, 30]\n",
    "scenario: ch-cascade\nchains: [1, 3]\na1: [1.9999999996e-05, 90.0]\na2: [1.0, 30.0]\n"
    "phase_scan_points: 1\ntolerance: 0.05\n",
    "scenario: rd-basic\na1: [2.0e-5, 90]\na2: [1.0, 30]\n",
])
def test_weight_sum_inside_the_rule_but_outside_the_run_checks(text):
    _runs_or_is_refused(yaml.safe_load(text))


# ---------------------------------------------------------------------------
# the grammar document against the tables

GRAMMAR = (Path(__file__).resolve().parents[1] / "docs" / "config-grammar.md").read_text()


def _table_keys(section: str) -> list[str]:
    """The backticked names in the first column of a section's key table."""
    body = re.split(r"\n#+ ", GRAMMAR.split(section, 1)[1], maxsplit=1)[0]
    return [name for row in re.findall(r"^\| (`.*?) \|", body, re.M)
            for name in re.findall(r"`(\w+)`", row)]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_grammar_key_table_lists_the_scenario_keys(scenario):
    assert _table_keys(f"### {scenario}\n") == list(_SPECS[scenario].keys)


def test_grammar_common_table_lists_the_common_keys():
    assert _table_keys("## Common keys\n") == ["scenario", *_COMMON_DEFAULTS]


def test_grammar_sweepable_lists_match_the_tables():
    listed = {}
    for names, params in re.findall(r"^- ((?:`[\w-]+`(?:, )?)+): (.*)$", GRAMMAR, re.M):
        for name in re.findall(r"`([\w-]+)`", names):
            listed[name] = tuple(re.findall(r"`(\w+)`", params))
    assert listed == {s: _SPECS[s].sweepable for s in SCENARIOS if _SPECS[s].sweepable}
