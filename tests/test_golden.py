"""The golden report corpus: every config in tests/golden/corpus.yaml emits
exactly the bytes stored beside it (wall_time_s blanked).

The files are written at one BLAS thread, as the benchmark runs.  Each check
runs `tests/golden/regen.py --check` in a fresh interpreter with the thread
count fixed, since it is read when numpy loads.  A changed report fails with
every changed field listed; after an intended change,
`python tests/golden/regen.py` rewrites the files and prints them.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

CORPUS = regen.corpus()

# entries whose runs reach BLAS-backed products (closed Kron families, dense
# norms, inner products at dim 2^14); the cascade entry's phase scan is
# scalar arithmetic, its one cascade run is not
THREADED = ("chain-pointer-seed11-0", "chain-exhaustive-seed11-0",
            "radiation-field-seed11-0", "cascade-scan-seed11-0",
            "ch-heisenberg-n14", "rd-basic-3modes-cutoff3",
            "edge-rd-basic-background-1")

# ch-basic at dim 2^14 with theta off the complete flip: OpenBLAS splits
# inner products and norms above 10^4 entries across threads, so mu_z,
# sigma0_z and the fidelity move in their last bits with the thread count
THREAD_DEPENDENT = ("ch-basic-n13-with_B-theta60", "ch-basic-n13-pointer_only-theta60")


def _check(names, threads: int) -> subprocess.CompletedProcess:
    assert set(names) <= set(CORPUS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(GOLDEN / "regen.py"), "--check", *names],
                          env=env, capture_output=True, text=True, timeout=300)


def test_every_golden_file_has_a_config():
    stored = {p.stem for p in GOLDEN.iterdir() if p.suffix in (".json", ".csv")}
    assert stored - {"ENV"} == set(CORPUS)


def test_golden_reports_at_one_blas_thread():
    proc = _check(list(CORPUS), 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_golden_reports_at_two_blas_threads():
    proc = _check(THREADED, 2)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# OpenBLAS runs no more threads than there are CPUs, so one CPU cannot show it
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
@pytest.mark.xfail(strict=True, reason="reports at dim 2^14 depend on the BLAS "
                   "thread count (ROADMAP item 12)")
def test_golden_dim_2_14_reports_at_two_blas_threads():
    proc = _check(THREAD_DEPENDENT, 2)
    assert proc.returncode == 0, proc.stdout + proc.stderr
