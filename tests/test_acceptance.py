"""Acceptance suite: one test per exit criterion, run at the stated
tolerances.  Each test prints a single PASS/FAIL line (visible with -s)."""

import json
import time

import numpy as np

from qmeaslab.cascade import CascadeModel, information_tradeoff, unmeasured_it_exists
from qmeaslab.chain import (ChainModel, atom_labels, closed_form_final,
                            full_passage, final_branches,
                            heisenberg_hamiltonian, eigenstate_residual,
                            it_commutator_audit, it_operator, pointer_operator,
                            strict_check)
from qmeaslab.hilbert import HilbertLayout, basis_state, mixture_of
from qmeaslab.pauli import (PauliString, PauliSum, all_strings, commutator,
                            expectation, expectation_mixed)
from qmeaslab.radiation import (RadiationModel, check_c22,
                                check_no_vacuum_interference, full_observable,
                                glauber_field_generators, glauber_generators,
                                with_vacuum_connector)
from qmeaslab.scenarios import emit, parse_config, run
from qmeaslab.sectors import joint_sectors, op_expectation, op_expectation_mixed

from oracles import dense_commutator, dense_of, random_amplitude_pair

TOL = 1e-12
RNG_SEED = 900001


def _report(num: int, name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}")
    assert not failures, f"criterion {num} failed: {failures[:5]}"


def test_criterion_01_closed_form_dynamics():
    rng = np.random.default_rng(RNG_SEED)
    failures = []
    t0 = time.perf_counter()
    for n in range(1, 7):
        for _ in range(50):
            a1, a2 = random_amplitude_pair(rng)
            model = ChainModel(n, a1, a2)
            fid = abs(full_passage(model).inner(closed_form_final(model)))
            if fid < 1.0 - TOL:
                failures.append((n, a1, a2, fid))
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    _report(1, "closed-form dynamics", failures)


def test_criterion_02_strict_measurement():
    rng = np.random.default_rng(RNG_SEED + 1)
    failures = []
    z0 = PauliSum.from_string(PauliString.single("S0", "Z"))
    for n in range(1, 7):
        mu = pointer_operator(n)
        for _ in range(50):
            a1, a2 = random_amplitude_pair(rng)
            psi = full_passage(ChainModel(n, a1, a2))
            delta = strict_check(z0, mu, psi).delta
            if abs(delta) > TOL:
                failures.append((n, a1, a2, delta))
    _report(2, "strict measurement", failures)


def test_criterion_03_it_discrimination():
    rng = np.random.default_rng(RNG_SEED + 2)
    failures = []
    for n in range(1, 7):
        b = it_operator(n)
        ratios = []
        for _ in range(20):
            a1, a2 = random_amplitude_pair(rng)
            model = ChainModel(n, a1, a2)
            pure = expectation(b, full_passage(model))
            mixed = expectation_mixed(b, mixture_of(final_branches(model)))
            cross = np.conj(a1) * a2 + a1 * np.conj(a2)
            if mixed != 0.0:
                failures.append((n, "mixed not exactly zero", mixed))
            if abs(abs(pure) - abs(cross)) > TOL:
                failures.append((n, "magnitude", pure, cross))
            half_cross = 0.5 * cross.real
            if abs(half_cross) > 1e-6:
                ratios.append(pure / half_cross)
        if ratios:
            spread = max(abs(r - ratios[0]) for r in ratios)
            if spread > 1e-9:
                failures.append((n, "ratio not constant", spread))
            print(f"  N={n}: measured <B> / (0.5 * cross term) = "
                  f"{ratios[0]:+.1f}")
    _report(3, "interference-term discrimination", failures)


def test_criterion_04_commutator_identity():
    failures = []
    constants = []
    for n in range(1, 5):
        labels = ["S0"] + [f"A{i}" for i in range(1, n + 1)]
        layout = HilbertLayout.qubits(labels)
        mu, b = pointer_operator(n), it_operator(n)
        lhs = commutator(mu, b)
        oracle = dense_commutator(dense_of(mu, layout), dense_of(b, layout))
        if np.max(np.abs(dense_of(lhs, layout) - oracle)) > TOL:
            failures.append((n, "string level differs from dense oracle"))
        audit = it_commutator_audit(n)
        if not audit.proportional:
            failures.append((n, "not proportional to the reference sum"))
        constants.append(audit.constant)
    if max(abs(c - constants[0]) for c in constants) > TOL:
        failures.append(("constant varies with N", constants))
    print(f"  proportionality constant across N=1..4: {constants[0]:+.1f}")
    _report(4, "commutator identity", failures)


def test_criterion_05_operational_collapse_small_n():
    t0 = time.perf_counter()
    failures = []
    a1, a2 = np.sqrt(0.7), np.sqrt(0.3)  # |a1* a2 + a1 a2*| ~ 0.917 >= 0.2
    for n in (1, 2, 3):
        model = ChainModel(n, a1, a2)
        psi = full_passage(model)
        rho = mixture_of(final_branches(model))
        layout = model.layout
        z0 = PauliSum.from_string(PauliString.single("S0", "Z"))
        sectors = joint_sectors([z0, pointer_operator(n)], layout)
        strings = all_strings(layout.labels)
        if len(strings) != 4 ** (n + 1):
            failures.append((n, "enumeration incomplete"))
        n_preserving = 0
        b_letters = it_operator(n).terms[0][1].letters
        b_seen_nonpreserving = False
        for s in strings:
            op = PauliSum.from_string(s)
            dev = abs(expectation(op, psi) - expectation_mixed(op, rho))
            preserving = all(p.commutes_with(s) for p in sectors.projectors)
            if preserving:
                n_preserving += 1
                if dev > TOL:
                    failures.append((n, "preserving string sees coherence",
                                     str(s), dev))
            if s.letters == b_letters:
                b_seen_nonpreserving = not preserving
                if dev <= 0.1:
                    failures.append((n, "B deviation too small", dev))
        if not b_seen_nonpreserving:
            failures.append((n, "B not classified as sector-breaking"))
        print(f"  N={n}: {len(strings)} strings, {n_preserving} sector-preserving")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    _report(5, "operational collapse theorem (small N)", failures)


def test_criterion_06_cascade_tradeoff():
    rng = np.random.default_rng(RNG_SEED + 6)
    failures = []
    kept = 0
    while kept < 50:
        a1, a2 = random_amplitude_pair(rng)
        if abs(np.conj(a1) * a2 + a1 * np.conj(a2)) <= 0.1:
            continue
        kept += 1
        rep = information_tradeoff(CascadeModel((1, 1), a1, a2))
        if abs(rep.mu_after) > TOL:
            failures.append(("mu_after", a1, a2, rep.mu_after))
        if abs(rep.b_prime_after - rep.b_before) > TOL:
            failures.append(("b_prime", a1, a2, rep.b_prime_after, rep.b_before))
    _report(6, "cascade information trade-off", failures)


def test_criterion_07_terminal_witness():
    failures = []
    for chains in ((1, 1), (1, 1, 1)):
        model = CascadeModel(chains, np.sqrt(0.7),
                             np.sqrt(0.3) * np.exp(1j * np.pi / 3))
        rep = unmeasured_it_exists(model)
        if not rep.covers_observer:
            failures.append((chains, "support misses observer qubits", rep.support))
        if set(rep.support) != set(model.layout.labels):
            failures.append((chains, "support does not cover every qubit"))
        if not rep.exists or rep.deviation <= TOL:
            failures.append((chains, "witness blind at generic phases",
                             rep.deviation))
    _report(7, "terminal interference-term witness", failures)


def test_criterion_08_heisenberg_eigenstate():
    failures = []
    j = 0.75
    for n in range(2, 7):
        h = heisenberg_hamiltonian(n, j)
        layout = HilbertLayout.qubits(atom_labels(n))
        ground = basis_state(layout, [0] * n)
        res, lam = eigenstate_residual(h, ground)
        if res > TOL:
            failures.append((n, "residual", res))
        if abs(lam - j * (n - 1)) > TOL:
            failures.append((n, "eigenvalue", lam))
    _report(8, "ferromagnetic eigenstate", failures)


def test_criterion_09_radiation_model():
    t0 = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 9)
    failures = []
    model = RadiationModel()  # M=1, cutoff 3
    gens = glauber_field_generators(model)
    for name, g in gens:
        if check_no_vacuum_interference(g, model) != 0.0:
            failures.append(("C2 residual nonzero", name))
    from qmeaslab.radiation import build_final_state
    dec = build_final_state(model)
    pure = dec.state()
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q = full_observable(model, 0.5 * (a + a.conj().T),
                            gens[int(rng.integers(len(gens)))][1])
        dev = abs(op_expectation(q, pure, tol=np.inf)
                  - op_expectation_mixed(q, dec, tol=np.inf))
        worst = max(worst, dev)
    if worst > TOL:
        failures.append(("random system factors see coherence", worst))
    v_allowed = check_c22(model, glauber_generators(model), TOL)
    if v_allowed.distinguishable:
        failures.append(("Glauber set distinguishes", v_allowed.max_deviation))
    v_counter = check_c22(model, with_vacuum_connector(model), TOL)
    if not v_counter.distinguishable:
        failures.append("vacuum connector fails to distinguish")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(9, "radiation decoherence model", failures)


def test_criterion_10_determinism_and_schema():
    failures = []
    cfg = parse_config("scenario: ch-basic\nseed: 42\n")
    d1 = json.loads(emit(run(cfg), "json"))
    d2 = json.loads(emit(run(cfg), "json"))
    d1.pop("wall_time_s")
    d2.pop("wall_time_s")
    if (json.dumps(d1, indent=2, sort_keys=True).encode()
            != json.dumps(d2, indent=2, sort_keys=True).encode()):
        failures.append("json reports differ for a fixed seed")
    sweep_cfg = parse_config(
        "scenario: ch-basic\n"
        "sweep: {parameter: a2_phase_deg, start: 0, stop: 180, steps: 19}\n")
    report = run(sweep_cfg)
    rows = emit(report, "csv").decode().splitlines()
    if len(rows) != 20:
        failures.append(f"expected header + 19 rows, got {len(rows)}")
    header = rows[0].split(",")
    phase_col = header.index("a2_phase_deg")
    b_col = header.index("b_pure")
    n = sweep_cfg.params["n_atoms"]
    m1 = sweep_cfg.params["a1"][0]
    m2 = sweep_cfg.params["a2"][0]
    for line in rows[1:]:
        cells = line.split(",")
        phase = float(cells[phase_col])
        measured = float(cells[b_col])
        # analytic oracle: (-1)^N (a1* a2 + a1 a2*) at the swept phase
        a1 = m1
        a2 = m2 * np.exp(1j * np.radians(phase))
        analytic = ((-1.0) ** n) * (np.conj(a1) * a2 + a1 * np.conj(a2)).real
        if abs(measured - analytic) > TOL:
            failures.append((phase, measured, analytic))
    _report(10, "determinism and schema", failures)
