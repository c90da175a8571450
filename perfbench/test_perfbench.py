"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

import itertools
import json
import random

import pytest

import run
import spans
import workloads

SCENARIOS = run.import_library()


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, 0, attrs]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span("scenarios.run", 0.0, 10.0, -1),           # 0
        _span("sectors.discriminate", 1.0, 4.0, 0),      # 1
        _span("sectors.op_expectation", 2.0, 3.0, 1),    # 2: grandchild of 0
        _span("sectors.op_expectation", 5.0, 7.0, 0),    # 3: not in discriminate
        _span("pauli.sum_matrix", 7.5, 8.0, 0, {"dim": 64}),
        _span("pauli.sum_matrix", 8.0, 9.0, 0, {"dim": 16}),
    ]
    summary = spans.summarize(recorded)
    assert summary["scenarios.run"]["self_s"] == pytest.approx(10.0 - 3.0 - 2.0 - 0.5 - 1.0)
    assert summary["sectors.discriminate"]["self_s"] == pytest.approx(2.0)
    assert summary["sectors.op_expectation"] == {"calls": 2, "self_s": pytest.approx(3.0),
                                                 "under_discriminate": 1}
    assert summary["pauli.sum_matrix"]["dim_max"] == 64
    assert summary["pauli.sum_matrix"]["calls"] == 2


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(v) for v in range(1, 101)]
    random.Random(0).shuffle(samples)
    assert run.tail(samples) == (90.0, 90.0, 100)
    assert run.tail([float(v) for v in range(11)]) == (0.0, 100.0 / 11, 11)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_configs(workload):
    first = [c.text for c in itertools.islice(workloads.generate(workload, 5), 20)]
    again = [c.text for c in itertools.islice(workloads.generate(workload, 5), 20)]
    other = [c.text for c in itertools.islice(workloads.generate(workload, 6), 20)]
    assert first == again
    assert first != other
    assert len(set(first)) == len(first)


def test_injected_failure_counts_against_verified_fraction():
    def report(case):
        if case == 3:
            raise RuntimeError("injected")
        if case == 5:
            raise run.ReportFailed("closed form missed")
        return b"{}"

    loop = run.closed_loop(itertools.count(), report, seconds=0.0)
    assert loop.attempted == run.MIN_SAMPLES + 2
    assert loop.failed == 2
    assert len(loop.samples) == run.MIN_SAMPLES
    assert loop.verified / loop.attempted == pytest.approx(11 / 13)


def _report(case):
    config = SCENARIOS.parse_config(case.text)
    return SCENARIOS.emit(SCENARIOS.run(config), config.fmt)


def test_outside_check_rejects_a_wrong_expectation():
    case = next(workloads.generate("chain-exhaustive", 0))
    payload = _report(case)
    assert workloads.check(case, payload) == []
    report = json.loads(payload)
    report["expectations"]["mu_z"] += 1e-9
    problems = workloads.check(case, json.dumps(report).encode())
    assert len(problems) == 1 and problems[0].startswith("mu_z")


def test_tracing_leaves_reports_unchanged_and_nests_spans():
    case = next(workloads.generate("chain-exhaustive", 1))
    plain = _report(case)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _report(case)
    finally:
        tracer.uninstall()
    assert workloads.without_wall_time(traced) == workloads.without_wall_time(plain)
    assert SCENARIOS.run.__name__ == "run" and not hasattr(SCENARIOS.run, "__wrapped__")
    summary = spans.summarize(tracer.spans)
    assert summary["scenarios.run"]["calls"] == 1
    assert summary["sectors.restricted_algebra"]["candidates"] == 4 ** 6
    assert summary["sectors.op_expectation"]["under_discriminate"] > 0
    by_index = {i: rec for i, rec in enumerate(tracer.spans)}
    for rec in tracer.spans:
        if rec[spans.PARENT] >= 0:
            parent = by_index[rec[spans.PARENT]]
            assert parent[spans.START] <= rec[spans.START] <= rec[spans.END] <= parent[spans.END]
