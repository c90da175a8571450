"""qmeaslab benchmark: one workload, one process, one client in a closed loop.

    python3 perfbench/run.py --workload chain-pointer --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark imports qmeaslab from ``src/``
next to this directory and refuses any other copy.  Each report is one
generated YAML config driven through ``scenarios.parse_config`` ->
``scenarios.run`` -> ``scenarios.emit`` and then checked from outside
against closed forms; the next report starts only after the previous one
is checked.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced reports and prints the per-layer metrics derived from
the spans (see ``spans.py``) plus the tracing overhead.  The last line of
standard output is the JSON result; the lines before it list the same
metrics for a reader.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SAMPLES = 11  # the tail percentile needs ten samples beyond it
SETUP_REPEATS = (5, 6)  # fresh interpreters before and after the timed phase

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qmeaslab
qmeaslab.parse_config(sys.argv[2])
elapsed = time.perf_counter() - t0
if not qmeaslab.__file__.startswith(sys.argv[1]):
    sys.exit("imported qmeaslab from " + qmeaslab.__file__)
print(repr(elapsed))
"""


class ReportFailed(Exception):
    """An outside check rejected a report."""


def import_library():
    """qmeaslab from this checkout's ``src/``; raises ImportError otherwise."""
    sys.path.insert(0, str(SRC))
    import qmeaslab
    from qmeaslab import scenarios

    if not Path(qmeaslab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qmeaslab imported from {qmeaslab.__file__}, not {SRC}")
    return scenarios


def measure_setup(text: str, repeats: int) -> list[float]:
    """Seconds each fresh interpreter takes to import qmeaslab and parse its
    first config; interpreter start-up itself is not counted."""
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), text],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def make_reporter(scenarios):
    """The closed-loop body: run one case and check it; returns the bytes."""
    def report(case: workloads.Case) -> bytes:
        config = scenarios.parse_config(case.text)
        payload = scenarios.emit(scenarios.run(config), config.fmt)
        problems = workloads.check(case, payload)
        if problems:
            raise ReportFailed("; ".join(problems))
        return payload
    return report


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count).  Needs at least 11 samples."""
    n = len(samples)
    if n < MIN_SAMPLES:
        raise ValueError(f"tail percentile needs >= {MIN_SAMPLES} samples, got {n}")
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


@dataclass
class Loop:
    """Outcome of a timed closed loop."""

    samples: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0

    @property
    def verified(self) -> int:
        return self.attempted - self.failed


def attempt(report, case, loop: Loop) -> bytes | None:
    """One report, counted; every raise or failed check is a failure."""
    loop.attempted += 1
    try:
        return report(case)
    except Exception as err:  # a failed report must not stop the loop
        loop.failed += 1
        if loop.failed <= 3:
            print(f"report {loop.attempted} failed: {err!r}", file=sys.stderr)
            if not isinstance(err, ReportFailed):
                traceback.print_exc(file=sys.stderr)
        return None


def closed_loop(cases, report, seconds: float, tracer: spans.Tracer | None = None,
                loop: Loop | None = None) -> Loop:
    """Run reports back to back for ``seconds`` (and until MIN_SAMPLES
    untraced ones verified).  With a tracer, every second report is traced."""
    loop = loop or Loop()
    start = perf_counter()
    deadline = start + seconds
    k = 0
    while perf_counter() < deadline or len(loop.samples) < MIN_SAMPLES:
        case = next(cases)
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.report = k
            tracer.install()
        t0 = perf_counter()
        try:
            ok = attempt(report, case, loop) is not None
        finally:
            dt = perf_counter() - t0
            if traced:
                tracer.uninstall()
        if ok:
            (loop.traced if traced else loop.samples).append(dt)
        k += 1
        if loop.failed > 0 and loop.verified == 0 and loop.attempted >= MIN_SAMPLES:
            break  # nothing verifies; do not spin until the deadline
    loop.elapsed = perf_counter() - start
    return loop


def end_to_end(loop: Loop, setup_s: float, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    tail_s, pct, n = tail(loop.samples)
    print(f"run_s_tail is p{pct:.1f} of {n} samples")
    return {
        "setup_s": (setup_s, "s"),
        "run_s_p50": (statistics.median(loop.samples), "s"),
        "run_s_tail": (tail_s, "s"),
        "reports_per_s": (len(loop.samples) / loop.elapsed, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "verified_frac": (loop.verified / loop.attempted, "ratio"),
    }


# Per traced span: the fields reported for it.  Field "calls" is the count
# over the whole traced phase; every other field is per traced report.
_LAYER_FIELDS = (
    ("hilbert.mixture_of", ("calls", "self_s", "bytes")),
    ("pauli.apply", ("calls", "self_s")),
    ("pauli.expectation", ("self_s",)),
    ("pauli.expectation_mixed", ("calls", "self_s")),
    ("pauli.all_strings", ("strings", "self_s")),
    ("pauli.sum_matrix", ("calls", "self_s", "dim_max")),
    ("pauli.sup_norm_estimate", ("calls", "self_s")),
    ("chain.full_passage", ("calls", "self_s")),
    ("chain.passage_step", ("calls",)),
    ("chain.closed_form_final", ("self_s",)),
    ("chain.final_branches", ("self_s",)),
    ("sectors.chain_observable_preset", ("self_s",)),
    ("sectors.restricted_algebra", ("self_s", "kept_ratio")),
    ("sectors.discriminate", ("calls", "self_s", "observables")),
    ("sectors.op_sup_norm", ("calls", "self_s")),
    ("sectors.op_expectation_mixed", ("self_s",)),
    ("cascade.run_cascade", ("calls", "self_s", "per_report")),
    ("cascade.unmeasured_it_exists", ("calls", "self_s")),
    ("cascade.information_tradeoff", ("self_s",)),
    ("cascade.BranchConnector.support", ("self_s",)),
    ("radiation.check_c22", ("calls", "self_s")),
    ("radiation.glauber_generators", ("self_s",)),
    ("radiation.full_observable", ("calls", "self_s")),
    ("radiation.build_final_state", ("calls",)),
    ("scenarios.parse_config", ("self_s",)),
    ("scenarios.run", ("self_s",)),
    ("scenarios.emit", ("self_s", "bytes")),
)
_UNITS = {"calls": "count", "self_s": "s", "bytes": "B", "dim_max": "dim",
          "kept_ratio": "ratio", "strings": "1/report", "observables": "1/report",
          "per_report": "1/report"}
# per-layer metric name -> (span name, field, unit)
PER_LAYER = {f"{span}.{fld}": (span, fld, _UNITS[fld])
             for span, fields in _LAYER_FIELDS for fld in fields}


def per_layer(loop: Loop, summary: dict[str, dict[str, float]]) -> dict[str, tuple[float, str]]:
    reports = len(loop.traced)
    metrics: dict[str, tuple[float, str]] = {}
    for metric, (span, fld, unit) in PER_LAYER.items():
        agg = summary.get(span, {})
        if fld == "calls":
            value = agg.get("calls", 0)
        elif fld == "per_report":
            value = agg.get("calls", 0) / reports
        elif fld == "dim_max":
            value = agg.get("dim_max", 0)
        elif fld == "kept_ratio":
            value = agg["kept"] / agg["candidates"] if agg.get("candidates") else 0.0
        elif fld == "bytes" and span == "hilbert.mixture_of":
            # computed, not measured: one complex128 dim x dim matrix per call
            value = 16 * agg.get("dim_sq", 0) / reports
        elif fld == "observables":
            value = summary.get("sectors.op_expectation", {}).get("under_discriminate", 0) / reports
        else:
            value = agg.get(fld, 0) / reports
        metrics[metric] = (value, unit)
    traced_wall = sum(loop.traced)
    for module in spans.MODULES:
        busy = sum(agg["self_s"] for name, agg in summary.items()
                   if name.split(".")[0] == module)
        metrics[f"share.{module}"] = (busy / traced_wall, "ratio")
    metrics["trace.reports"] = (reports, "count")
    metrics["trace.overhead_frac"] = (
        statistics.median(loop.traced) / statistics.median(loop.samples) - 1.0, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread: the loop has one client, and a small machine shared
    # with other jobs gives steadier numbers without thread contention.
    # Set before numpy is imported, here or in a set-up child.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        scenarios = import_library()
    except ImportError as err:
        print(f"cannot import qmeaslab from {SRC}: {err}", file=sys.stderr)
        return 2
    report = make_reporter(scenarios)
    cases = workloads.generate(args.workload, args.seed)
    first = next(cases)
    setup_times = measure_setup(first.text, SETUP_REPEATS[0])

    loop = Loop()
    baseline = attempt(report, first, loop)  # warm-up, kept for the replay
    tracer = spans.Tracer() if args.trace else None
    closed_loop(cases, report, args.seconds, tracer, loop)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # set-ups on both sides of the timed phase see more than one moment of
    # the machine's load
    setup_times += measure_setup(first.text, SETUP_REPEATS[1])

    replay = attempt(report, first, loop)
    if baseline is not None and replay is not None and (
            workloads.without_wall_time(replay) != workloads.without_wall_time(baseline)):
        loop.failed += 1
        print("determinism replay: report bytes differ", file=sys.stderr)

    if loop.verified == 0 or len(loop.samples) < MIN_SAMPLES:
        print("no verified reports to measure", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = end_to_end(loop, statistics.median(setup_times), peak_rss_mb)
    else:
        metrics = per_layer(loop, spans.summarize(tracer.spans))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        with gzip.open(path, "wt") as stream:
            tracer.write(stream)
        print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
