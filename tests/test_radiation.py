import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qmeaslab import radiation, sectors
from qmeaslab.chain import ChainModel, final_branches, full_passage
from qmeaslab.hilbert import BranchDecomposition, StateVector, mixture_of
from qmeaslab.radiation import (RadiationModel,
                                add_uncorrelated_mode, build_final_state,
                                check_c22,
                                check_no_vacuum_interference, full_observable,
                                glauber_field_generators, glauber_generators,
                                number_op, quadrature_op,
                                vacuum_pattern_connector,
                                with_vacuum_connector)
from qmeaslab.pauli import OperatorError, PauliString, PauliSum
from qmeaslab.scenarios import ConfigError, parse_config, run
from qmeaslab.sectors import (KronObservable, ObservableSet, _block_deviations,
                              _block_norms, _closed_family,
                              _kron_deviations, _kron_gram, _kron_norms,
                              _kron_values, discriminate, op_expectation,
                              op_expectation_mixed, op_is_hermitian, op_sup_norm)

from oracles import (MATS, dense_expect, dense_expect_mixed, dense_of, kron_all,
                     random_amplitude_pair, reference_verdict)

RNG = np.random.default_rng(161803)
SQ = np.sqrt(0.5)


def single_photon_model(a1=SQ, a2=SQ):
    return RadiationModel(a1, a2, modes=1, cutoff=2,
                          photon_amplitudes=(((1,), 1.0),))


class TestFinalState:
    def test_minimal_model_two_amplitudes(self):
        model = single_photon_model()
        assert model.layout.dim == 8
        state = build_final_state(model).state()
        nonzero = np.nonzero(state.amplitudes)[0]
        assert len(nonzero) == 2
        # |x1, L, 0> and |x2, L', 1>
        assert list(nonzero) == [model.layout.index_of((0, 0, 0)),
                                 model.layout.index_of((1, 1, 1))]

    def test_branches_orthogonal(self):
        model = RadiationModel()
        decomp = build_final_state(model)
        (_, b1), (_, b2) = decomp.branches
        assert abs(b1.inner(b2)) == 0.0

    def test_definite_path_stays_pure(self):
        model = RadiationModel(a1=0.0, a2=1.0)
        decomp = build_final_state(model)
        assert len(decomp.branches) == 1
        assert abs(mixture_of(decomp).purity() - 1.0) < 1e-12

    def test_vacuum_pattern_rejected(self):
        with pytest.raises(ValueError, match="vacuum"):
            RadiationModel(photon_amplitudes=(((0,), 1.0),))

    def test_unnormalized_c_rejected(self):
        with pytest.raises(ValueError, match=r"c_j"):
            RadiationModel(photon_amplitudes=(((1,), 1.0), ((2,), 1.0)))

    def test_cutoff_violation_rejected(self):
        with pytest.raises(ValueError, match="cutoff"):
            RadiationModel(cutoff=2, photon_amplitudes=(((2,), 1.0),))


class TestGlauberGenerators:
    def test_number_operator_eigenvalue(self):
        model = single_photon_model()
        n1 = number_op(model, 1)
        assert n1.ndim == 1
        assert n1[model.field_index((1,))] == 1.0
        assert n1[model.field_index((0,))] == 0.0

    def test_diagonal_generators_commute_with_occupation_projectors(self):
        model = RadiationModel()
        d = model.field_dim()
        for _, gen in glauber_field_generators(model):
            mat = np.diag(gen)
            for k in range(d):
                proj = np.zeros((d, d))
                proj[k, k] = 1.0
                assert np.linalg.norm(mat @ proj - proj @ mat) == 0.0

    def test_generator_count_m1_d2(self):
        model = single_photon_model()
        allowed = glauber_generators(model)
        assert len(allowed) == 2 * 16

    def test_two_mode_pair_products(self):
        model = RadiationModel(modes=2, cutoff=2,
                               photon_amplitudes=(((1, 0), SQ), ((0, 1), SQ)))
        names = [name for name, _ in glauber_field_generators(model)]
        assert "n1*n2" in names


class TestNoVacuumInterference:
    def test_number_diagonal_exactly_zero(self):
        model = RadiationModel()
        for _, gen in glauber_field_generators(model):
            assert check_no_vacuum_interference(gen, model) == 0.0

    def test_quadrature_hits_single_photon(self):
        model = single_photon_model()
        assert abs(check_no_vacuum_interference(quadrature_op(model, 1), model)
                   - 1.0) < 1e-12

    def test_quadrature_misses_two_photon_pattern(self):
        model = RadiationModel(photon_amplitudes=(((2,), 1.0),))
        assert check_no_vacuum_interference(quadrature_op(model, 1), model) == 0.0

    def test_identity_field_observable(self):
        model = RadiationModel()
        ident = np.ones(model.field_dim())
        assert check_no_vacuum_interference(ident, model) == 0.0


class TestC22:
    def test_glauber_family_blind(self):
        model = RadiationModel()
        verdict = check_c22(model, glauber_generators(model))
        assert verdict.max_deviation <= 1e-12
        assert not verdict.distinguishable

    def test_augmented_family_sees_coherence(self):
        model = RadiationModel()
        verdict = check_c22(model, with_vacuum_connector(model))
        assert verdict.distinguishable
        # oracle: the connector deviation is 2 Re(a1* a2 c_1)
        expected = 2 * np.real(np.conj(model.a1) * model.a2
                               * model.photon_amplitudes[0][1])
        assert abs(verdict.max_deviation - abs(expected)) < 1e-12

    def test_definite_path_never_distinguishable(self):
        model = RadiationModel(a1=1.0, a2=0.0)
        verdict = check_c22(model, with_vacuum_connector(model))
        assert not verdict.distinguishable

    def test_random_system_factors_blind(self):
        model = RadiationModel()
        decomp = build_final_state(model)
        pure = decomp.state()
        gens = glauber_field_generators(model)
        worst = 0.0
        for _ in range(100):
            a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
            herm = 0.5 * (a + a.conj().T)
            q = full_observable(model, herm, gens[int(RNG.integers(len(gens)))][1])
            dev = abs(op_expectation(q, pure, tol=np.inf)
                      - op_expectation_mixed(q, decomp, tol=np.inf))
            worst = max(worst, dev)
        assert worst <= 1e-12

    def test_background_photons_do_not_matter(self):
        base = RadiationModel()
        padded = add_uncorrelated_mode(base, 1)
        assert padded.all_modes == 2
        v0 = check_c22(base, glauber_generators(base))
        v1 = check_c22(padded, glauber_generators(padded))
        assert abs(v0.max_deviation - v1.max_deviation) <= 1e-12
        assert not v1.distinguishable
        # the counterexample still flips after padding
        v2 = check_c22(padded, with_vacuum_connector(padded))
        assert v2.distinguishable

    def test_restriction_is_tight(self):
        # admitting a single vacuum-connecting Hermitian flips the verdict
        model = RadiationModel()
        blind = check_c22(model, glauber_generators(model))
        seeing = check_c22(model, with_vacuum_connector(model))
        assert (not blind.distinguishable) and seeing.distinguishable
        assert seeing.witness_name == "XX(x)vacuum_connector"


FACTORED_MODELS = {
    "1 mode, cutoff 3": RadiationModel(a1=np.sqrt(0.3), a2=np.sqrt(0.7) * np.exp(0.4j)),
    "1 mode, cutoff 4": RadiationModel(
        a1=np.sqrt(0.6), a2=np.sqrt(0.4) * np.exp(2.1j), cutoff=4,
        photon_amplitudes=(((1,), SQ), ((3,), SQ * np.exp(0.7j)))),
    "2 modes, cutoff 2": RadiationModel(
        modes=2, cutoff=2,
        photon_amplitudes=(((1, 0), SQ), ((1, 1), SQ * np.exp(-1.2j)))),
    "padded background": add_uncorrelated_mode(
        RadiationModel(a1=np.sqrt(0.45), a2=np.sqrt(0.55) * np.exp(-0.9j)), 1),
}


def _dense_glauber(model, connector=False):
    """The generators of glauber_generators (and with_vacuum_connector) as
    dense matrices, built from literal Pauli matrices and full_observable."""
    gens = []
    for f_name, f in glauber_field_generators(model):
        for p1, p2 in itertools.product("IXYZ", repeat=2):
            gens.append((f"{p1}{p2}(x){f_name}",
                         full_observable(model, np.kron(MATS[p1], MATS[p2]), f)))
    if connector:
        gens.append(("XX(x)vacuum_connector",
                     full_observable(model, np.kron(MATS["X"], MATS["X"]),
                                     vacuum_pattern_connector(model))))
    return gens


def _dense_closure(gens):
    """Generators then the Hermitian parts of their pairwise products, by
    dense matrix products, in family order."""
    family = list(gens)
    for (na, a), (nb, b) in itertools.combinations_with_replacement(gens, 2):
        prod = a @ b
        family.append((f"herm({na}*{nb})", 0.5 * (prod + prod.conj().T)))
    return family


class TestFactoredFamily:
    """The factored route for the closed Glauber family (and the dense
    connector next to it) against dense matrices and dense norms."""

    @pytest.mark.parametrize("label", FACTORED_MODELS)
    def test_members_match_dense(self, label):
        model = FACTORED_MODELS[label]
        layout = model.layout
        decomp = build_final_state(model)
        psi = decomp.state()
        rho = mixture_of(decomp).matrix
        glauber = glauber_generators(model)
        family = _closed_family(glauber, layout)
        dense = _dense_closure(_dense_glauber(model))
        names = [name for name, _ in glauber.generators]
        names += [f"herm({names[i]}*{names[j]})" for i, j in zip(family.i, family.j)]
        assert names == [name for name, _ in dense]
        assert family.at.size == len(dense)
        system, field = family.system, family.field
        gram = _kron_gram(psi.amplitudes, 4, model.field_dim())
        batched_pure = _kron_values(system, field, gram)
        batched_norms = _kron_norms(system, field)
        for r, k in enumerate(family.at):
            name, q = dense[k]
            op = KronObservable(system[r], field[r])
            pure = dense_expect(q, psi.amplitudes).real
            norm = np.linalg.norm(q, ord=2)
            assert abs(op_expectation(op, psi) - pure) <= 1e-12, name
            assert abs(batched_pure[r].real - pure) <= 1e-12, name
            assert abs(op_expectation_mixed(op, decomp)
                       - dense_expect_mixed(q, rho).real) <= 1e-12, name
            assert abs(op_sup_norm(op, layout) - norm) <= 1e-12, name
            assert abs(batched_norms[r] - norm) <= 1e-12, name

    @pytest.mark.parametrize("label", FACTORED_MODELS)
    def test_verdicts_match_dense(self, label):
        model = FACTORED_MODELS[label]
        decomp = build_final_state(model)
        psi = decomp.state()
        rho = mixture_of(decomp).matrix
        for connector in (False, True):
            rows = [(name, dense_expect(q, psi.amplitudes).real,
                     dense_expect_mixed(q, rho).real, np.linalg.norm(q, ord=2))
                    for name, q in _dense_closure(_dense_glauber(model, connector))]
            best, best_name = reference_verdict(rows)
            allowed = glauber_generators(model)
            if connector:
                allowed = with_vacuum_connector(model, allowed)
            verdict = check_c22(model, allowed)
            assert abs(verdict.max_deviation - best) <= 1e-15, allowed.name
            if connector:
                assert verdict.witness_name == best_name == "XX(x)vacuum_connector"
            else:
                assert not verdict.distinguishable

    def test_general_factors_match_dense(self):
        # any square system factor and any real diagonal, negative entries too
        model = FACTORED_MODELS["1 mode, cutoff 4"]
        decomp = build_final_state(model)
        psi = decomp.state()
        rho = mixture_of(decomp).matrix
        for _ in range(20):
            a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
            op = KronObservable(0.5 * (a + a.conj().T),
                                RNG.normal(size=model.field_dim()))
            q = op.matrix()
            assert abs(op_expectation(op, psi) - dense_expect(q, psi.amplitudes).real) <= 1e-12
            assert abs(op_expectation_mixed(op, decomp)
                       - dense_expect_mixed(q, rho).real) <= 1e-12
            assert abs(op_sup_norm(op, model.layout) - np.linalg.norm(q, ord=2)) <= 1e-12
        skew = KronObservable(a, np.ones(model.field_dim()))
        assert op_is_hermitian(op) and not op_is_hermitian(skew)
        with pytest.raises(OperatorError, match="real diagonal"):
            KronObservable(np.eye(4), np.ones(model.field_dim()) * 1j)

    def test_rd_basic_builds_no_layout_dim_matrix(self, monkeypatch):
        # the factored members and the vacuum connector's two-index members
        # are never realized as dim x dim matrices
        def refuse(*args, **kwargs):
            raise AssertionError("an rd-basic member was realized densely")

        monkeypatch.setattr(KronObservable, "matrix", refuse)
        monkeypatch.setattr(radiation, "full_observable", refuse)
        monkeypatch.setattr(sectors, "as_matrix", refuse)
        for text in ("", "observable_preset: with_vacuum_connector\n", "background: [1]\n",
                     RD_BASIC["2 modes, cutoff 3"][0],
                     "modes: 3\ncutoff: 3\nphotons:\n"
                     "- {pattern: [1, 0, 0], c: [0.7071067811865476, 0]}\n"
                     "- {pattern: [0, 1, 0], c: [0.7071067811865476, 30]}\n"):
            assert not run(parse_config("scenario: rd-basic\n" + text)).failed_required()
        model = add_uncorrelated_mode(RadiationModel(), 1)
        assert check_c22(model, with_vacuum_connector(model)).distinguishable

    def test_two_modes_cutoff_3(self):
        report = run(parse_config(
            "scenario: rd-basic\nmodes: 2\ncutoff: 3\nphotons:\n"
            "- {pattern: [1, 0], c: [0.7071067811865476, 0]}\n"
            "- {pattern: [0, 2], c: [0.7071067811865476, 40]}\n"))
        assert not report.failed_required()
        assert all(r.passed for r in report.invariants)


def test_product_member_witness_names():
    """In both families only herm(G_1 G_2) sees the coherence: Pauli sums
    (the per-operator route) and KronObservables (the stacked route) name
    the product witness from its pair and agree with a dense closure."""
    a1, a2 = np.sqrt(0.3), np.sqrt(0.7) * np.exp(0.4j)
    chain = ChainModel(1, a1, a2)
    paulis = ObservableSet("paulis", tuple(
        (name, PauliSum.from_string(PauliString.single(label, letter)))
        for name, label, letter in (("Z0", "S0", "Z"), ("X0", "S0", "X"),
                                    ("Y1", "A1", "Y"))))
    paulis_dense = [(name, dense_of(op, chain.layout)) for name, op in paulis.generators]
    layout = single_photon_model().layout  # path, lattice, one mode of dim 2
    e = np.eye(layout.dim)
    branches = BranchDecomposition(layout, ((a1, StateVector(layout, e[0])),
                                            (a2, StateVector(layout, e[6]))))
    letters = (("ZI", "Z", "I"), ("XI", "X", "I"), ("IX", "I", "X"))
    krons = ObservableSet("krons", tuple(
        (name, KronObservable(np.kron(MATS[p], MATS[q]), np.ones(2)))
        for name, p, q in letters))
    krons_dense = [(name, kron_all([MATS[p], MATS[q], MATS["I"]]))
                   for name, p, q in letters]
    cases = [(paulis, paulis_dense, full_passage(chain), final_branches(chain),
              "herm(X0*Y1)"),
             (krons, krons_dense, branches.state(), branches, "herm(XI*IX)")]
    for allowed, gens, psi, mixture, witness in cases:
        rho = mixture_of(mixture).matrix
        best, best_name = reference_verdict([
            (name, dense_expect(q, psi.amplitudes).real,
             dense_expect_mixed(q, rho).real, np.linalg.norm(q, ord=2))
            for name, q in _dense_closure(gens)])
        verdict = discriminate(psi, mixture, allowed)
        assert verdict.witness_name == best_name == witness
        assert abs(verdict.max_deviation - best) <= 1e-12
        assert abs(verdict.max_deviation - 2 * abs((np.conj(a1) * a2).real)) <= 1e-12


class TestVacuumConnector:
    def test_connects_reference_and_pattern(self):
        model = RadiationModel()
        mat = vacuum_pattern_connector(model, (1,))
        i0 = model.field_index((0,))
        j = model.field_index((1,))
        assert mat[i0, j] == 1.0 and mat[j, i0] == 1.0
        assert np.count_nonzero(mat) == 2

    @pytest.mark.parametrize("pattern, match", [
        ((0,), r"^pattern: the vacuum, the reference occupation, cannot be an emission"),
        ((1, 0), r"^pattern: requires one occupation per mode \(modes = 1\), got \[1, 0\]"),
        ((5,), r"^pattern\[0\]: requires an occupation below cutoff = 3, got 5"),
        ((-1,), r"^pattern\[0\]: requires an occupation >= 0, got -1"),
    ], ids=["reference", "two occupations", "above cutoff", "negative"])
    def test_refuses_a_pattern_that_is_not_a_connector(self, pattern, match):
        with pytest.raises(ValueError, match=match):
            vacuum_pattern_connector(RadiationModel(), pattern)

    def test_refuses_the_reference_occupation_under_background(self):
        model = add_uncorrelated_mode(RadiationModel(), 1)
        with pytest.raises(ValueError, match="reference occupation"):
            vacuum_pattern_connector(model, (0,))
        assert np.count_nonzero(vacuum_pattern_connector(model, (2,))) == 2


# ---------------------------------------------------------------------------
# the vacuum connector and its products as two-index members, against a
# dense build of each member

TWO_INDEX_MODELS = {
    "1 mode, cutoff 3": RadiationModel(
        a1=np.sqrt(0.3), a2=np.sqrt(0.7) * np.exp(0.4j),
        photon_amplitudes=(((2,), SQ), ((1,), SQ * np.exp(1.1j)))),
    "1 mode, cutoff 4": FACTORED_MODELS["1 mode, cutoff 4"],
    "2 modes, cutoff 3": RadiationModel(
        modes=2, cutoff=3, photon_amplitudes=(((1, 0), SQ), ((0, 2), SQ * np.exp(0.5j)))),
    "3 modes, cutoff 3": RadiationModel(
        a1=np.sqrt(0.45), a2=np.sqrt(0.55) * np.exp(-0.9j), modes=3, cutoff=3,
        photon_amplitudes=(((1, 1, 0), SQ), ((0, 1, 0), SQ))),
    "background [1]": add_uncorrelated_mode(RadiationModel(), 1),
}


def _embedded(block, index, f):
    """A two-index block as the dim x dim matrix it stands for."""
    s = len(block) // 2
    rows = (np.arange(s)[:, None] * f + np.asarray(index)[None, :]).ravel()
    mat = np.zeros((s * f, s * f), dtype=complex)
    mat[np.ix_(rows, rows)] = block
    return mat


def _two_index_mismatches(model, family) -> list[str]:
    """How the family's two-index members differ from dense products of the
    generators built by full_observable and vacuum_pattern_connector: each
    member's realization must equal herm(dense_i @ dense_j) to 1e-15, its
    norm the dense spectral norm to 1e-15 relative, and a product
    herm((S (x) diag f) C) must read exactly 0.0 iff f_r = -f_p where S
    commutes with XX and iff f_r = f_p where it anticommutes."""
    gens = [op for _, op in with_vacuum_connector(model).generators]
    dense = [q for _, q in _dense_glauber(model, connector=True)]
    g, f = len(dense), model.field_dim()
    r = model.field_index(model.reference_occupation())
    p = model.field_index(model.branch_occupations()[0][0])
    xx = np.kron(MATS["X"], MATS["X"])
    norms = _block_norms(family.blocks)
    bad = []
    for m, k in enumerate(family.pair_at):
        if k < g:
            want = dense[k]
        else:
            a, b = family.i[k - g], family.j[k - g]
            prod = dense[a] @ dense[b]
            want = 0.5 * (prod + prod.conj().T)
        if np.max(np.abs(_embedded(family.blocks[m], family.index[m], f) - want)) > 1e-15:
            bad.append(f"member {k}: realization")
        dense_norm = np.linalg.norm(want, ord=2)
        if abs(norms[m] - dense_norm) > 1e-15 * dense_norm:
            bad.append(f"member {k}: norm {norms[m]!r} against {dense_norm!r}")
        if k >= g and b == g - 1 and a < g - 1:
            system, diag = gens[a].system, gens[a].field
            sign = 1.0 if np.array_equal(system @ xx, xx @ system) else -1.0
            if (norms[m] == 0.0) != (diag[r] == -sign * diag[p]):
                bad.append(f"member {k}: reads {norms[m]!r} with f_r = {diag[r]}, "
                           f"f_p = {diag[p]}, sign {sign}")
    return bad


@pytest.mark.parametrize("label", TWO_INDEX_MODELS)
def test_two_index_members_match_dense_products(label):
    model = TWO_INDEX_MODELS[label]
    assert model.layout.dim <= 500
    family = _closed_family(with_vacuum_connector(model), model.layout)
    g = len(with_vacuum_connector(model))
    assert not family.other
    # the connector, its product with each generator, and its square
    assert list(family.pair_at) == [g - 1] + [
        g + p for p in np.flatnonzero(family.j == g - 1)]
    # a number function of another mode has f_r = f_p = 0
    assert (_block_norms(family.blocks) == 0.0).any() == (model.all_modes > 1)
    assert _two_index_mismatches(model, family) == []


def test_two_index_oracle_catches_planted_faults():
    model = TWO_INDEX_MODELS["1 mode, cutoff 3"]
    family = _closed_family(with_vacuum_connector(model), model.layout)
    gens = [op for _, op in with_vacuum_connector(model).generators]
    g, xx = len(gens), np.kron(MATS["X"], MATS["X"])
    norms = _block_norms(family.blocks)
    kinds = {}  # "sym"/"anti" -> first non-zero product of a generator with the connector
    for m, k in enumerate(family.pair_at):
        a = family.i[k - g] if k >= g else g - 1
        if k >= g and a < g - 1 and norms[m] > 0.0:
            s = gens[a].system
            kinds.setdefault("sym" if np.array_equal(s @ xx, xx @ s) else "anti", m)
    # a symmetric/antisymmetric flag swapped: the (p, r) field half negated
    m = kinds["sym"]
    blocks = family.blocks.copy()
    blocks.reshape(-1, 4, 2, 4, 2)[m, :, 1, :, 0] *= -1
    assert _two_index_mismatches(model, family._replace(blocks=blocks))
    # r and p exchanged in an antisymmetric member: it reads -Q, so its norm
    # and deviation stay put and only the realization sees it
    m = kinds["anti"]
    index = family.index.copy()
    index[m] = index[m][::-1]
    swapped = family._replace(index=index)
    assert _two_index_mismatches(model, swapped)
    decomp = build_final_state(model)
    assert np.array_equal(_block_norms(swapped.blocks), norms)
    assert np.array_equal(_block_deviations(swapped.blocks, swapped.index, decomp),
                          _block_deviations(family.blocks, family.index, decomp))


def test_amplitude_validation():
    with pytest.raises(ValueError, match=r"\|a1\|"):
        RadiationModel(a1=1.0, a2=1.0)


def test_random_amplitudes_keep_orthogonality():
    for _ in range(10):
        a1, a2 = random_amplitude_pair(RNG)
        decomp = build_final_state(RadiationModel(a1=a1, a2=a2))
        if len(decomp.branches) == 2:
            (_, b1), (_, b2) = decomp.branches
            assert abs(b1.inner(b2)) == 0.0


# ---------------------------------------------------------------------------
# rd-basic's random system-factor check and its quadrature probe

RD_BASIC = {
    "1 mode, cutoff 4": ("cutoff: 4\n", RadiationModel(cutoff=4)),
    "2 modes, cutoff 3": (
        "modes: 2\ncutoff: 3\nphotons:\n"
        "- {pattern: [1, 0], c: [0.7071067811865476, 0]}\n"
        "- {pattern: [0, 2], c: [0.7071067811865476, 0]}\n",
        RadiationModel(modes=2, cutoff=3,
                       photon_amplitudes=(((1, 0), SQ), ((0, 2), SQ)))),
    "background [1]": ("background: [1]\n", add_uncorrelated_mode(RadiationModel(), 1)),
    "no cases": ("system_factor_cases: 0\n", RadiationModel()),
}


def _draws(model, cases, rng):
    """rd-basic's draws: per case a random Hermitian system factor, then a
    random Glauber field generator."""
    gens = glauber_field_generators(model)
    out = []
    for _ in range(cases):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        out.append((0.5 * (a + a.conj().T), gens[int(rng.integers(len(gens)))][1]))
    return out


def _per_observable_deviations(decomp, draws):
    """One KronObservable per draw, through op_expectation and
    op_expectation_mixed."""
    pure = decomp.state()
    return [abs(op_expectation(KronObservable(s, f), pure, tol=np.inf)
                - op_expectation_mixed(KronObservable(s, f), decomp, tol=np.inf))
            for s, f in draws]


@pytest.mark.parametrize("text, model", RD_BASIC.values(), ids=RD_BASIC)
def test_stacked_random_factor_check_matches_per_observable_route(text, model,
                                                                  monkeypatch):
    stacked = []
    kernel = sectors._kron_deviations

    def spy(system, field, branches, *sid):
        if sys._getframe(1).f_code.co_name == "_run_rd_basic":
            stacked.append((system, field))
        return kernel(system, field, branches, *sid)

    monkeypatch.setattr(sectors, "_kron_deviations", spy)
    config = parse_config("scenario: rd-basic\n" + text)
    report = run(config)
    draws = _draws(model, config.params["system_factor_cases"],
                   np.random.default_rng(config.seed))
    devs = _per_observable_deviations(build_final_state(model), draws)
    got = report.expectations["random_factor_worst_deviation"]
    assert abs(got - max(devs, default=0.0)) <= 1e-15
    # the check is one stacked call over the same draws, in the same order
    if draws:
        assert len(stacked) == 1
        assert np.array_equal(stacked[0][0], np.stack([s for s, _ in draws]))
        assert np.array_equal(stacked[0][1], np.stack([f for _, f in draws]))
    else:
        assert not stacked and got == 0.0


def test_stacked_deviations_match_per_observable_route_off_the_blind_family():
    # two random orthogonal branches on the radiation layout: the random
    # factors see their coherence, so the deviations are of order one
    model = RadiationModel(modes=2, cutoff=3,
                           photon_amplitudes=(((1, 0), SQ), ((0, 2), SQ)))
    dim = model.layout.dim
    q, _ = np.linalg.qr(RNG.normal(size=(dim, 2)) + 1j * RNG.normal(size=(dim, 2)))
    decomp = BranchDecomposition(model.layout, (
        (np.sqrt(0.3), StateVector(model.layout, q[:, 0])),
        (np.sqrt(0.7) * np.exp(0.4j), StateVector(model.layout, q[:, 1])))).validate()
    draws = _draws(model, 30, np.random.default_rng(7))
    want = _per_observable_deviations(decomp, draws)
    got = _kron_deviations(np.stack([s for s, _ in draws]),
                           np.stack([f for _, f in draws]), decomp)
    assert max(want) > 0.1
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("background", ["[1]", "[2, 1]"])
def test_quadrature_c2_ignores_background_modes(background):
    # the quadrature probes the first emission mode, wherever it sits
    plain = run(parse_config("scenario: rd-basic\n"))
    padded = run(parse_config(f"scenario: rd-basic\nbackground: {background}\n"))
    assert plain.expectations["quadrature_c2"] == 1.0
    assert padded.expectations["quadrature_c2"] == plain.expectations["quadrature_c2"]


# ---------------------------------------------------------------------------
# the closed family keeps each distinct system factor and field row once

ROUTE_MODELS = {**FACTORED_MODELS, "2 modes, background [1]": RadiationModel(
    a1=np.sqrt(0.35), a2=np.sqrt(0.65) * np.exp(1.3j), modes=2, cutoff=3,
    photon_amplitudes=(((1, 0), SQ), ((0, 2), SQ * np.exp(0.5j))), background=(1,))}


def _per_member_factors(allowed):
    """The system factor and the field row of every stacked member, one per
    member: the generators' factors, then herm(S_a S_b) and f_a * f_b for
    every factored pair in family order, each product taken on its own."""
    gens = [op for _, op in allowed.generators]
    row = {k: r for r, k in enumerate(
        k for k, op in enumerate(gens) if isinstance(op, KronObservable))}
    system = np.stack([gens[k].system for k in row])
    kron_field = np.stack([gens[k].field for k in row])
    a, b = np.array([(row[i], row[j]) for i, j in zip(*np.triu_indices(len(gens)))
                     if i in row and j in row]).T
    prod = system[a] @ system[b]
    return (np.concatenate([system, 0.5 * (prod + prod.conj().swapaxes(-1, -2))]),
            np.concatenate([kron_field, kron_field[a] * kron_field[b]]))


def _random_branches(layout, rng):
    """Two random orthogonal branches with random amplitudes: the Glauber
    members see their coherence, so their deviations are not all 0.0."""
    q, _ = np.linalg.qr(rng.normal(size=(layout.dim, 2))
                        + 1j * rng.normal(size=(layout.dim, 2)))
    a1, a2 = random_amplitude_pair(rng)
    return BranchDecomposition(layout, ((a1, StateVector(layout, q[:, 0])),
                                        (a2, StateVector(layout, q[:, 1]))))


def _route_differs(family, allowed, decomp) -> bool:
    """Whether any norm or deviation of the family's route (each distinct
    (system, field) pair once, then gathered per member) differs in any bit
    from the per-member route."""
    system, field = _per_member_factors(allowed)
    sid, fid = family.pairs.T
    routes = [(_kron_norms(family.systems, family.fields, sid, fid)[family.pid],
               _kron_norms(system, field)),
              (_kron_deviations(family.systems, family.fields, decomp, sid, fid)[family.pid],
               _kron_deviations(system, field, decomp))]
    return not all(np.array_equal(x, y) for x, y in routes)


def _route_mismatches() -> list[str]:
    """Labels of the families whose spectral norms or deviations differ in
    any bit between the distinct-pair route and the per-member route, at
    the model's branches (every member blind) and at random ones."""
    bad = []
    rng = np.random.default_rng(577)
    for label, model in ROUTE_MODELS.items():
        glauber = glauber_generators(model)
        for decomp in (build_final_state(model), _random_branches(model.layout, rng)):
            for allowed in (glauber, with_vacuum_connector(model, glauber)):
                if _route_differs(_closed_family(allowed, model.layout), allowed, decomp):
                    bad.append(f"{label}, {allowed.name}")
    return bad


@pytest.mark.parametrize("threads", [1, 2])
def test_distinct_factor_route_matches_per_member_route_bit_for_bit(threads):
    # a fresh interpreter per BLAS thread count, which is fixed at import
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    proc = subprocess.run(
        [sys.executable, "-c", "from test_radiation import _route_mismatches as m; "
                               "print(len(m()), m())"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == "0", proc.stdout


def test_background_family_stores_each_system_factor_once(monkeypatch):
    # the default model's background check: 3,320 members over the 16
    # Paulis, their negatives and zero, each stored and normed once
    model = add_uncorrelated_mode(RadiationModel(), 1)
    glauber = glauber_generators(model)
    family = _closed_family(glauber, model.layout)
    assert family.at.size == family.sid.size == family.fid.size == 3320
    assert len(family.systems) <= 26 and len(family.fields) == 14
    assert np.array_equal(family.system, family.systems[family.sid])
    assert np.array_equal(family.field, _per_member_factors(glauber)[1])
    normed = []
    norm = np.linalg.norm

    def spy(x, ord=None, axis=None, keepdims=False):
        if ord == 2:
            normed.append(int(np.prod(np.shape(x)[:-2])))
        return norm(x, ord, axis, keepdims)

    monkeypatch.setattr(np.linalg, "norm", spy)
    decomp = build_final_state(model)
    assert not discriminate(decomp.state(), decomp, glauber).distinguishable
    assert normed and sum(normed) <= 26


def test_route_check_sees_a_shifted_field_id():
    # one product's field id off by one changes its norm or its deviation
    model = ROUTE_MODELS["2 modes, background [1]"]
    glauber = glauber_generators(model)
    family = _closed_family(glauber, model.layout)
    decomp = _random_branches(model.layout, np.random.default_rng(3))
    assert not _route_differs(family, glauber, decomp)
    r = family.pid.size - 1  # the last product, herm(G_g G_g)
    sid, fid = family.pairs[family.pid[r]]
    pairs = np.vstack([family.pairs, [sid, (fid + 1) % len(family.fields)]])
    pid = family.pid.copy()
    pid[r] = len(family.pairs)
    assert _route_differs(family._replace(pairs=pairs, pid=pid), glauber, decomp)


def test_row_blocks_leave_every_value_unchanged(monkeypatch):
    # each row is summed alone, so blocks of 7 rows give the same bits
    model = ROUTE_MODELS["2 modes, background [1]"]
    family = _closed_family(glauber_generators(model), model.layout)
    decomp = _random_branches(model.layout, np.random.default_rng(4))
    sid, fid = family.pairs.T
    whole = _kron_deviations(family.systems, family.fields, decomp, sid, fid)
    assert len(sid) * family.fields.shape[1] <= sectors._ROW_BLOCK and np.max(whole) > 0.0
    monkeypatch.setattr(sectors, "_ROW_BLOCK", 7 * family.fields.shape[1])
    assert np.array_equal(_kron_deviations(family.systems, family.fields, decomp, sid, fid),
                          whole)


def test_factored_family_peak_memory():
    # 3 modes at cutoff 3 with one background mode: 25,424 members over 81
    # field entries, of which one members x field_dim float array alone
    # is 16.5 MB; each distinct field row is stored once, so the family and
    # its verdict take about 3 MB
    model = RadiationModel(modes=3, cutoff=3, background=(1,),
                           photon_amplitudes=(((1, 0, 0), 1.0),))
    glauber = glauber_generators(model)
    decomp = build_final_state(model)
    pure = decomp.state()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        _closed_family(glauber, model.layout)
        discriminate(pure, decomp, glauber)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20


# ---------------------------------------------------------------------------
# the vacuum connector sees the superposition through Re(a1* a2 c_0) alone

@pytest.mark.parametrize("phase", [0.0, 45.0, 89.0, 135.0, 271.0])
def test_counterexample_deviation_is_the_connector_coherence(phase):
    report = run(parse_config(
        "scenario: rd-basic\nphotons:\n"
        f"- {{pattern: [1], c: [0.6, {phase}]}}\n- {{pattern: [2], c: [0.8, 0]}}\n"))
    want = 2.0 * abs((SQ * SQ * 0.6 * np.exp(1j * np.deg2rad(phase))).real)
    assert abs(report.expectations["counterexample_deviation"] - want) <= 1e-12


@pytest.mark.parametrize("text", [
    "photons: [{pattern: [1], c: [1.0, 90]}]\n",
    "a2: [0.7071067811865476, 70]\n"
    "photons: [{pattern: [1], c: [0.6, 200]}, {pattern: [2], c: [0.8, 0]}]\n",
    "observable_preset: with_vacuum_connector\n"
    "sweep: {parameter: a2_phase_deg, start: 0, stop: 180, steps: 3}\n",
])
def test_config_whose_connector_cannot_see_the_superposition_is_refused(text):
    # these used to run and fail the required vacuum_connector_discriminates
    with pytest.raises(ConfigError, match=r"a1/a2/photons\[0\]\.c: the vacuum connector"):
        parse_config("scenario: rd-basic\n" + text)


def test_connector_generator_on_the_per_operator_route():
    # the per-operator functions, and the products with a dense generator,
    # take the two-index connector as the dense matrix it stands for
    model = TWO_INDEX_MODELS["2 modes, cutoff 3"]
    layout = model.layout
    decomp = build_final_state(model)
    psi, rho = decomp.state(), mixture_of(decomp).matrix
    op = with_vacuum_connector(model).generators[-1][1]
    dense = full_observable(model, np.kron(MATS["X"], MATS["X"]),
                            vacuum_pattern_connector(model))
    assert np.array_equal(sectors.as_matrix(op, layout), dense)
    assert op_is_hermitian(op)
    assert op_sup_norm(op, layout) == np.linalg.norm(dense, ord=2) == 1.0
    assert abs(op_expectation(op, psi) - dense_expect(dense, psi.amplitudes).real) <= 1e-15
    assert abs(op_expectation_mixed(op, decomp) - dense_expect_mixed(dense, rho).real) <= 1e-15
    quad = full_observable(model, np.eye(4), quadrature_op(model, 1))
    allowed = ObservableSet("quadrature+connector", (("quad", quad), ("C", op)))
    family = _closed_family(allowed, layout)
    assert sorted(family.other) == [0, 2, 3] and list(family.pair_at) == [1, 4]
    best, best_name = reference_verdict([
        (name, dense_expect(q, psi.amplitudes).real, dense_expect_mixed(q, rho).real,
         np.linalg.norm(q, ord=2))
        for name, q in _dense_closure([("quad", quad), ("C", dense)])])
    verdict = discriminate(psi, decomp, allowed)
    assert abs(verdict.max_deviation - best) <= 1e-15
    assert verdict.witness_name == best_name
