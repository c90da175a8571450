"""rd-basic runs or is refused: for any config drawn from its grammar,
`parse_config` raises ConfigError, or `run` and `emit` succeed with every
required invariant passed.

The draws cover modes, cutoff, background, photon patterns (empty lists,
repeats, wrong lengths, occupations at the cutoff) and amplitudes
(normalised or not).  They are kept to layouts of at most 2^8, counting
the run's background check, which adds one mode.
"""

import json
import math

import numpy as np
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeaslab.scenarios import ConfigError, emit, parse_config, run

MAX_DIM = 2 ** 8


FAULTS = ("vacuum", "occupation", "background", "length", "unnormalised", "empty",
          "duplicate")


@st.composite
def rd_basic_configs(draw):
    cutoff = draw(st.integers(2, 8))
    # field modes of the background check: modes + len(background) + 1
    max_field_modes = min(3, int(math.log(MAX_DIM // 4 + 0.5, cutoff)))
    modes = draw(st.integers(1, max_field_modes - 1))
    background = draw(st.lists(st.integers(0, cutoff - 1),
                               max_size=max_field_modes - 1 - modes))
    patterns = draw(st.lists(st.lists(st.integers(0, cutoff - 1), min_size=modes,
                                      max_size=modes).filter(any),
                             min_size=1, max_size=3, unique_by=tuple))
    # about half the draws plant one fault
    fault = draw(st.sampled_from((None,) * len(FAULTS) + FAULTS))
    if fault == "vacuum":
        patterns[-1] = [0] * modes
    elif fault == "occupation":
        patterns[-1][-1] = cutoff
    elif fault == "background":
        background = background + [cutoff]
    elif fault == "length":
        patterns[0] = patterns[0] + [1]
    elif fault == "empty":
        patterns = []
    elif fault == "duplicate":
        patterns.append(list(patterns[0]))
    mags = draw(st.lists(st.floats(0.05, 1.0), min_size=len(patterns),
                         max_size=len(patterns)))
    if fault != "unnormalised" and patterns:
        total = math.sqrt(sum(m * m for m in mags))
        mags = [m / total for m in mags]
    phases = draw(st.lists(st.sampled_from([0.0, 45.0, 90.0, 200.0]),
                           min_size=len(patterns), max_size=len(patterns)))
    weight = draw(st.sampled_from([0.5, 0.3, 0.9]))
    return {
        "scenario": "rd-basic",
        "modes": modes,
        "cutoff": cutoff,
        "background": background,
        "photons": [{"pattern": p, "c": [m, ph]}
                    for p, m, ph in zip(patterns, mags, phases)],
        "a1": [math.sqrt(weight), 0.0],
        "a2": [math.sqrt(1.0 - weight), draw(st.sampled_from([0.0, 70.0]))],
        "system_factor_cases": draw(st.integers(0, 3)),
        "observable_preset": draw(st.sampled_from(["glauber", "with_vacuum_connector"])),
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rd_basic_configs())
def test_rd_basic_runs_or_is_refused(data):
    try:
        config = parse_config(yaml.safe_dump(data))
    except ConfigError:
        return
    report = run(config)
    assert not report.failed_required(), [r for r in report.invariants if not r.passed]
    out = json.loads(emit(report))
    assert out["scenario"] == "rd-basic"
    assert np.isfinite(list(report.expectations.values())).all()
