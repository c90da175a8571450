"""The branch-vector route for mixed expectations against the dense oracle.

Every mixture the scenarios use is sum_i |a_i|^2 |chi_i><chi_i| with at most
two branches; the library evaluates it on the branch vectors.  Here that
route is checked against the dense density matrix from `mixture_of`, and the
scenario runs are checked never to build a density matrix at all.
"""

import itertools

import numpy as np
import pytest

from qmeaslab import hilbert
from qmeaslab.chain import ChainModel, final_branches, full_passage
from qmeaslab.pauli import hermitian_part
from qmeaslab.radiation import (RadiationModel, build_final_state,
                                full_observable, glauber_field_generators)
from qmeaslab.scenarios import parse_config, run
from qmeaslab.sectors import (CHAIN_PRESETS,
                              chain_observable_preset, discriminate,
                              op_expectation, op_expectation_mixed, op_sup_norm)

from oracles import (dense_expect_mixed, dense_of, random_amplitude_pair,
                     reference_verdict)

RNG = np.random.default_rng(31415)


def _presets(n):
    # the enumerating presets exist for n + 1 <= 6 labels
    return [p for p in CHAIN_PRESETS
            if n <= 5 or p not in ("all_strings", "sector_preserving")]


def _closure(allowed):
    """(name, op) of a Pauli-sum family in sweep order: the generators,
    then the Hermitian parts of their pairwise products."""
    gens = list(allowed.generators)
    pairs = (itertools.combinations_with_replacement(gens, 2)
             if allowed.closure_depth >= 2 else ())
    return gens + [(f"herm({na}*{nb})", hermitian_part(a @ b))
                   for (na, a), (nb, b) in pairs]


@pytest.mark.parametrize("n", range(1, 7))
def test_branch_route_matches_dense_mixture(n):
    """op_expectation_mixed on every family member, and the discriminate
    verdict, against Tr(rho Q) with rho the dense mixture."""
    a1, a2 = random_amplitude_pair(RNG)
    model = ChainModel(n, a1, a2)
    psi = full_passage(model)
    branches = final_branches(model)
    rho = hilbert.mixture_of(branches).matrix
    layout = model.layout
    for preset_name in _presets(n):
        preset = chain_observable_preset(preset_name, n)
        rows = []
        for name, op in _closure(preset):
            want = dense_expect_mixed(dense_of(op, layout), rho)
            assert abs(want.imag) <= 1e-12
            got = op_expectation_mixed(op, branches)
            assert abs(got - want.real) <= 1e-12, (preset_name, name)
            rows.append((name, op_expectation(op, psi, tol=np.inf), want.real,
                         op_sup_norm(op, layout)))
        best, best_name = reference_verdict(rows)
        verdict = discriminate(psi, branches, preset)
        assert abs(verdict.max_deviation - best) <= 1e-12, preset_name
        assert verdict.witness_name == (best_name if best > 1e-12 else None), preset_name


def test_dense_array_observable_matches_dense_mixture():
    model = RadiationModel(a1=np.sqrt(0.4), a2=np.sqrt(0.6) * np.exp(0.3j))
    decomp = build_final_state(model)
    rho = hilbert.mixture_of(decomp).matrix
    for _, f in glauber_field_generators(model):
        a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        q = full_observable(model, 0.5 * (a + a.conj().T), f)
        want = dense_expect_mixed(q, rho)
        assert abs(op_expectation_mixed(q, decomp) - want.real) <= 1e-12


def test_invalid_branches_rejected():
    model = ChainModel(2, np.sqrt(0.5), np.sqrt(0.5))
    (a1, up), (a2, down) = final_branches(model).branches
    heavy = hilbert.BranchDecomposition(model.layout, ((a1, up), (2 * a2, down)))
    with pytest.raises(hilbert.StateError, match="weights"):
        op_expectation_mixed(np.eye(model.layout.dim), heavy)
    with pytest.raises(hilbert.StateError, match="weights"):
        discriminate(full_passage(model), heavy, chain_observable_preset("with_B", 2))


@pytest.mark.parametrize("text", [
    "scenario: ch-basic",
    "scenario: ch-basic\nobservable_preset: with_B\n",
    "scenario: ch-cascade",
    "scenario: ch-cascade\nchains: [2, 2, 1, 1, 1]\nphase_scan_points: 3\n",
    "scenario: rd-basic",
])
def test_scenarios_build_no_density_matrix(monkeypatch, text):
    def refuse(*args, **kwargs):
        raise AssertionError("a scenario run built a dense density matrix")

    monkeypatch.setattr(hilbert, "mixture_of", refuse)
    monkeypatch.setattr(hilbert.DensityMatrix, "__post_init__", refuse)
    report = run(parse_config(text))
    assert not report.failed_required()


def test_ch_basic_13_atoms_pointer_only():
    # 14 qubits: the top of the 2^14 dimension cap
    report = run(parse_config(
        "scenario: ch-basic\nn_atoms: 13\nobservable_preset: pointer_only\n"))
    assert not report.failed_required()
    assert report.expectations["b_mixed"] == 0.0
