"""Interference term versus relative amplitude phase.

Sweeps the phase of a2 through 180 degrees and writes <B>_pure per point
to CSV through the scenario engine.  The curve is the cosine implied by
a1* a2 + a1 a2*; the mixture value stays pinned at zero throughout.

Run:  python demos/phase_sweep.py            (writes demos/phase_sweep.csv)
"""

from pathlib import Path

import numpy as np

from qmeaslab.scenarios import emit, parse_config, run

CONFIG = """
scenario: ch-basic
n_atoms: 4
sweep: {parameter: a2_phase_deg, start: 0, stop: 180, steps: 19}
format: csv
"""

report = run(parse_config(CONFIG))
out = Path(__file__).with_suffix(".csv")
out.write_bytes(emit(report, "csv"))
print(f"wrote {out}")

rows = report.sweep["rows"]
print(f"\n{'phase':>6} {'<B>_pure':>10} {'analytic':>10} {'<B>_mixed':>10}")
for row in rows[::3]:
    phase = row["a2_phase_deg"]
    analytic = np.cos(np.radians(phase))  # (-1)^4 * 2 * (1/sqrt2)^2 * cos
    print(f"{phase:6.1f} {row['b_pure']:10.6f} {analytic:10.6f} "
          f"{row['b_mixed']:10.6f}")
print("\nthe pure-state curve is the full cosine; the mixture never moves")
