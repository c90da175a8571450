import numpy as np
import pytest

from qmeaslab.hilbert import mixture_of
from qmeaslab.radiation import (FieldObservable, RadiationModel,
                                add_uncorrelated_mode, build_final_state,
                                cascade_growth, check_c22,
                                check_no_vacuum_interference, full_observable,
                                glauber_field_generators, glauber_generators,
                                number_op, quadrature_op,
                                vacuum_pattern_connector,
                                with_vacuum_connector)
from qmeaslab.sectors import op_expectation, op_expectation_mixed

from oracles import random_amplitude_pair

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
        assert n1.kind == "number_diagonal"
        assert n1.data[model.field_index((1,))] == 1.0
        assert n1.data[model.field_index((0,))] == 0.0

    def test_diagonal_generators_commute_with_occupation_projectors(self):
        model = RadiationModel()
        d = model.field_dim()
        for gen in glauber_field_generators(model):
            mat = gen.matrix()
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
        names = [f.name for f in glauber_field_generators(model)]
        assert "n1*n2" in names


class TestNoVacuumInterference:
    def test_number_diagonal_exactly_zero(self):
        model = RadiationModel()
        for gen in glauber_field_generators(model):
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
        ident = FieldObservable("number_diagonal",
                                np.ones(model.field_dim()), "1")
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
            q = full_observable(model, herm, gens[int(RNG.integers(len(gens)))])
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


class TestVacuumConnector:
    def test_connects_reference_and_pattern(self):
        model = RadiationModel()
        conn = vacuum_pattern_connector(model, (1,))
        mat = conn.matrix()
        i0 = model.field_index((0,))
        j = model.field_index((1,))
        assert mat[i0, j] == 1.0 and mat[j, i0] == 1.0
        assert np.count_nonzero(mat) == 2


class TestCascadeGrowth:
    def test_depth_zero_is_original_system(self):
        assert cascade_growth(2, 0) == 1

    def test_power_examples(self):
        assert cascade_growth(2, 10) == 1024
        assert cascade_growth(3, 4) == 81

    def test_iterative_oracle(self):
        # oracle: explicit generation-by-generation bookkeeping
        for n_emit in (2, 3, 5):
            for depth in range(6):
                unmeasured = 1
                for _ in range(depth):
                    unmeasured = unmeasured * n_emit
                assert cascade_growth(n_emit, depth) == unmeasured

    def test_bounds(self):
        with pytest.raises(ValueError, match="> 1"):
            cascade_growth(1, 3)
        with pytest.raises(ValueError, match="non-negative"):
            cascade_growth(2, -1)
        with pytest.raises(OverflowError):
            cascade_growth(2, 10, bound=1000)


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
