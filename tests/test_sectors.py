import numpy as np
import pytest

from qmeaslab.chain import (ChainModel, final_branches, full_passage,
                            it_operator, pointer_operator)
from qmeaslab.hilbert import (DensityMatrix, HilbertLayout, StateVector,
                              basis_state, mixture_of)
from qmeaslab.pauli import (OperatorError, PauliString, PauliSum, all_strings,
                            expectation, expectation_mixed, string_matrix)
from qmeaslab.sectors import (ObservableSet, Projector,
                              SectorError, chain_observable_preset,
                              discriminate, joint_sectors, pointer_sectors,
                              restricted_algebra, sector_decohere,
                              structure_residual)

from oracles import dense_of, eigo_projectors, random_amplitude_pair, random_state

RNG = np.random.default_rng(2718)
SQ = np.sqrt(0.5)


def chain_layout(n):
    return HilbertLayout.qubits(["S0"] + [f"A{i}" for i in range(1, n + 1)])


class TestStructureResidual:
    def test_inside_joint_eigenspace(self):
        layout = chain_layout(1)
        mask = np.array([True, True, False, False])
        p = Projector.from_mask(layout, mask)
        psi = basis_state(layout, [0, 1])
        assert structure_residual(psi, [p]) == 0.0

    def test_fully_rejected(self):
        layout = chain_layout(1)
        p = Projector.from_mask(layout, np.array([True, False, False, False]))
        psi = basis_state(layout, [1, 1])
        assert structure_residual(psi, [p]) == 1.0

    def test_partial_rejection_is_a2(self):
        # R = P(+1) alone on the final state leaves residual |a2|
        a1, a2 = 0.6, 0.8j
        model = ChainModel(2, a1, a2)
        psi = full_passage(model)
        sectors = pointer_sectors(pointer_operator(2), model.layout)
        p_plus = sectors.projectors[0]
        assert abs(structure_residual(psi, [p_plus]) - abs(a2)) < 1e-12

    def test_non_idempotent_rejected(self):
        layout = chain_layout(1)
        p = Projector.from_matrix(layout, 0.5 * np.eye(4))
        with pytest.raises(SectorError, match="idempotent"):
            structure_residual(basis_state(layout, [0, 0]), [p])


class TestPointerSectors:
    def test_mu_z_n1_two_rank2_sectors(self):
        layout = chain_layout(1)
        sec = pointer_sectors(pointer_operator(1), layout)
        assert sec.eigenvalues == (1.0, -1.0)
        assert [p.rank for p in sec.projectors] == [2, 2]
        # oracle: dense eigendecomposition
        oracle = eigo_projectors(dense_of(pointer_operator(1), layout))
        for (ov, om), p in zip(oracle, sec.projectors):
            np.testing.assert_allclose(p.to_matrix(), om, atol=1e-12)

    def test_identity_single_sector(self):
        layout = chain_layout(1)
        sec = pointer_sectors(PauliSum.identity(), layout)
        assert len(sec.projectors) == 1
        assert sec.projectors[0].rank == layout.dim

    def test_mu_z_n2_three_sectors(self):
        layout = chain_layout(2)
        sec = pointer_sectors(pointer_operator(2), layout)
        assert sec.eigenvalues == (1.0, 0.0, -1.0)
        oracle = eigo_projectors(dense_of(pointer_operator(2), layout))
        assert len(oracle) == 3
        for (ov, om), p, v in zip(oracle, sec.projectors, sec.eigenvalues):
            assert abs(ov - v) < 1e-12
            np.testing.assert_allclose(p.to_matrix(), om, atol=1e-12)

    def test_dense_path_for_non_diagonal_pointer(self):
        layout = HilbertLayout.qubits(["q"])
        x = PauliSum.from_string(PauliString.single("q", "X"))
        sec = pointer_sectors(x, layout)
        assert sec.eigenvalues == (1.0, -1.0)
        for (ov, om), p in zip(eigo_projectors(dense_of(x, layout)), sec.projectors):
            np.testing.assert_allclose(p.to_matrix(), om, atol=1e-12)

    def test_completeness_residual(self):
        for n in (1, 2, 3):
            layout = chain_layout(n)
            sec = pointer_sectors(pointer_operator(n), layout)
            assert sec.completeness_residual() <= 1e-12
            sec.validate()


class TestSectorDecohere:
    def test_block_diagonal_fixed_point(self):
        layout = chain_layout(1)
        sec = pointer_sectors(pointer_operator(1), layout)
        rho = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
        out = sector_decohere(DensityMatrix(layout, rho), sec)
        np.testing.assert_allclose(out.matrix, rho)

    def test_final_state_decoheres_to_mixture(self):
        # oracle: dense P rho P sum against the branch mixture
        a1, a2 = random_amplitude_pair(RNG)
        model = ChainModel(2, a1, a2)
        psi = full_passage(model)
        sec = pointer_sectors(pointer_operator(2), model.layout)
        out = sector_decohere(psi.to_density(), sec)
        mix = mixture_of(final_branches(model))
        np.testing.assert_allclose(out.matrix, mix.matrix, atol=1e-12)
        dense = sum(p.to_matrix() @ psi.to_density().matrix @ p.to_matrix()
                    for p in sec.projectors)
        np.testing.assert_allclose(out.matrix, dense, atol=1e-12)

    def test_purity_never_increases(self):
        layout = chain_layout(1)
        sec = pointer_sectors(pointer_operator(1), layout)
        for _ in range(100):
            v = random_state(RNG, 4)
            w = random_state(RNG, 4)
            lam = RNG.uniform(0, 1)
            rho = DensityMatrix(layout, lam * np.outer(v, v.conj())
                                + (1 - lam) * np.outer(w, w.conj()))
            out = sector_decohere(rho, sec)
            assert out.purity() <= rho.purity() + 1e-12

    def test_idempotent(self):
        layout = chain_layout(2)
        sec = pointer_sectors(pointer_operator(2), layout)
        v = random_state(RNG, 8)
        rho = DensityMatrix(layout, np.outer(v, v.conj()))
        once = sector_decohere(rho, sec)
        twice = sector_decohere(once, sec)
        np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-13)

    def test_trace_preserved(self):
        layout = chain_layout(2)
        sec = pointer_sectors(pointer_operator(2), layout)
        v = random_state(RNG, 8)
        out = sector_decohere(DensityMatrix(layout, np.outer(v, v.conj())), sec)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12


class TestRestrictedAlgebra:
    def _sectors(self, n):
        layout = chain_layout(n)
        z0 = PauliSum.from_string(PauliString.single("S0", "Z"))
        return joint_sectors([z0, pointer_operator(n)], layout)

    def test_pointer_is_member(self):
        sec = self._sectors(2)
        pool = ObservableSet("pool", (("mu_z", pointer_operator(2)),
                                      ("B", it_operator(2)),
                                      ("identity", PauliSum.identity())))
        kept = restricted_algebra(sec, pool)
        names = [n for n, _ in kept.generators]
        assert "mu_z" in names
        assert "identity" in names
        assert "B" not in names

    def test_b_excluded_by_dense_oracle(self):
        n = 2
        layout = chain_layout(n)
        sec = self._sectors(n)
        b = dense_of(it_operator(n), layout)
        violated = any(
            np.linalg.norm(p.to_matrix() @ b - b @ p.to_matrix()) > 1e-9
            for p in sec.projectors)
        assert violated


class TestDiscriminate:
    def test_sector_preserving_cannot_see_coherence(self):
        for n in (1, 2, 3):
            a1, a2 = np.sqrt(0.7), np.sqrt(0.3)
            model = ChainModel(n, a1, a2)
            psi = full_passage(model)
            branches = final_branches(model)
            allowed = chain_observable_preset("sector_preserving", n)
            verdict = discriminate(psi, branches, allowed)
            assert verdict.max_deviation <= 1e-12
            assert not verdict.distinguishable
            assert verdict.witness_name is None

    def test_with_b_discriminates(self):
        a1, a2 = np.sqrt(0.7), np.sqrt(0.3)
        model = ChainModel(2, a1, a2)
        psi = full_passage(model)
        branches = final_branches(model)
        verdict = discriminate(psi, branches, chain_observable_preset("with_B", 2))
        cross = abs(np.conj(a1) * a2 + a1 * np.conj(a2))
        assert verdict.distinguishable
        assert verdict.witness_name == "B"
        assert abs(verdict.max_deviation - cross) < 1e-12

    def test_identical_states_never_distinguishable(self):
        model = ChainModel(2, 1.0, 0.0)
        psi = full_passage(model)
        branches = final_branches(model)
        verdict = discriminate(psi, branches, chain_observable_preset("with_B", 2))
        assert not verdict.distinguishable

    def test_empty_set_rejected(self):
        model = ChainModel(1, 1.0, 0.0)
        psi = full_passage(model)
        with pytest.raises(OperatorError, match="empty"):
            discriminate(psi, final_branches(model), ObservableSet("empty", ()))


class TestRestrictedBlindness:
    def test_restricted_observables_cannot_see_decoherence(self):
        n = 2
        layout = chain_layout(n)
        z0 = PauliSum.from_string(PauliString.single("S0", "Z"))
        sec = joint_sectors([z0, pointer_operator(n)], layout)
        allowed = restricted_algebra(
            sec, chain_observable_preset("all_strings", n))
        v = random_state(RNG, layout.dim)
        rho = DensityMatrix(layout, np.outer(v, v.conj()))
        rho_dec = sector_decohere(rho, sec)
        for name, op in allowed.generators:
            before = expectation_mixed(op, rho)
            after = expectation_mixed(op, rho_dec)
            assert abs(before - after) <= 1e-12, name


class TestExhaustiveSmallN:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_deviation_law_and_partition(self, n):
        a1, a2 = np.sqrt(0.7), np.sqrt(0.3) * np.exp(0.3j)
        model = ChainModel(n, a1, a2)
        psi = full_passage(model)
        decomp = final_branches(model)
        rho = mixture_of(decomp)
        (amp1, b1), (amp2, b2) = decomp.branches
        layout = model.layout
        z0 = PauliSum.from_string(PauliString.single("S0", "Z"))
        sec = joint_sectors([z0, pointer_operator(n)], layout)
        labels = layout.labels
        for s in all_strings(labels):
            op = PauliSum.from_string(s)
            dev = expectation(op, psi) - expectation_mixed(op, rho)
            # law: deviation = 2 Re(amp1* amp2 <b1|Q|b2>)
            mat = string_matrix(s, layout)
            cross = np.vdot(b1.amplitudes, mat @ b2.amplitudes)
            law = 2.0 * np.real(np.conj(amp1) * amp2 * cross)
            assert abs(dev - law) <= 1e-12
            preserving = all(p.commutes_with(s) for p in sec.projectors)
            if preserving:
                assert abs(dev) <= 1e-12
            else:
                # non-preserving strings either connect the branches or are blind
                assert abs(cross) > 1e-12 or abs(dev) <= 1e-12


class TestPresets:
    def test_all_strings_count(self):
        pool = chain_observable_preset("all_strings", 2)
        assert len(pool) == 4 ** 3

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown observable preset"):
            chain_observable_preset("nope", 2)

    def test_pointer_only(self):
        pool = chain_observable_preset("pointer_only", 3)
        assert [n for n, _ in pool.generators] == ["mu_z"]


def test_from_span_projector():
    layout = chain_layout(1)
    v = random_state(RNG, 4)
    p = Projector.from_span([StateVector(layout, v)])
    assert p.idempotency_residual() < 1e-12
    assert p.rank == 1
    np.testing.assert_allclose(p.apply_vec(v), v, atol=1e-12)
