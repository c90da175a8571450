import numpy as np
import pytest

from qmeaslab.cascade import (BranchConnector, CascadeModel, _record,
                              build_B2_flip_sum, b_eigenbranches,
                              information_tradeoff, initial_cascade_state,
                              joint_it_operator, run_cascade,
                              second_chain_measure, unmeasured_it_exists)
from qmeaslab.chain import it_operator, passage_step, pointer_operator
from qmeaslab.hilbert import (HilbertLayout, StateError, StateVector,
                              basis_state, mixture_of)
from qmeaslab.pauli import (OperatorError, PauliString, PauliSum, expectation,
                            expectation_mixed)
from qmeaslab.sectors import ObservableSet, discriminate

from oracles import dense_of, random_amplitude_pair

RNG = np.random.default_rng(424242)
SQ = np.sqrt(0.5)


def two_chain(a1, a2):
    return CascadeModel((1, 1), a1, a2)


class TestBEigenbranches:
    def test_equal_amplitudes_pure_minus_branch(self):
        model = two_chain(SQ, SQ)
        run = run_cascade(model, stages=1)
        psi = run.stages[0].state
        b = it_operator(model.chain_atoms(1))
        decomp = b_eigenbranches(psi, b)
        assert len(decomp.branches) == 1
        amp, state = decomp.branches[0]
        assert abs(abs(amp) - 1.0) < 1e-12
        # oracle: dense eigenprojection confirms the -1 eigenvector
        mat = dense_of(b, psi.layout)
        np.testing.assert_allclose(mat @ state.amplitudes, -state.amplitudes,
                                   atol=1e-12)

    def test_pointer_state_splits_evenly(self):
        model = two_chain(1.0, 0.0)
        psi = run_cascade(model, stages=1).stages[0].state
        b = it_operator(model.chain_atoms(1))
        decomp = b_eigenbranches(psi, b)
        assert len(decomp.branches) == 2
        w = decomp.weights()
        assert abs(w[0] - 0.5) < 1e-12 and abs(w[1] - 0.5) < 1e-12

    def test_weights_sum_to_one(self):
        for _ in range(20):
            a1, a2 = random_amplitude_pair(RNG)
            model = two_chain(a1, a2)
            psi = run_cascade(model, stages=1).stages[0].state
            decomp = b_eigenbranches(psi, it_operator(model.chain_atoms(1)))
            assert abs(sum(decomp.weights()) - 1.0) < 1e-12

    def test_closed_form_weights_n1(self):
        # |b1|^2 = |a1-a2|^2/2, |b2|^2 = |a1+a2|^2/2 under the conventions
        a1, a2 = random_amplitude_pair(RNG)
        model = two_chain(a1, a2)
        psi = run_cascade(model, stages=1).stages[0].state
        from qmeaslab.pauli import apply_sum
        b = it_operator(model.chain_atoms(1))
        bp = apply_sum(b, psi)
        w_plus = np.linalg.norm(0.5 * (psi.amplitudes + bp)) ** 2
        w_minus = np.linalg.norm(0.5 * (psi.amplitudes - bp)) ** 2
        assert abs(w_plus - abs(a1 - a2) ** 2 / 2) < 1e-12
        assert abs(w_minus - abs(a1 + a2) ** 2 / 2) < 1e-12

    def test_rejects_non_involution(self):
        model = two_chain(SQ, SQ)
        psi = run_cascade(model, stages=1).stages[0].state
        mu = pointer_operator(model.chain_atoms(1))  # mu_z at N=1 IS an involution
        half = PauliSum.from_terms([(0.5, PauliString.single("C1A1", "Z"))])
        with pytest.raises(OperatorError, match="involution"):
            b_eigenbranches(psi, half)
        b_eigenbranches(psi, mu)


class TestSecondChainMeasure:
    def _layout(self):
        return HilbertLayout.qubits(["S0", "C1A1", "C2A1"])

    def test_control_inactive_on_plus_eigenspace(self):
        layout = self._layout()
        vec = np.zeros(8, dtype=complex)
        vec[0] = SQ          # |u0 u1 u'>
        vec[6] = 1j * SQ     # i |d0 d1 u'>  -> B=+1 eigenvector
        state = StateVector(layout, vec)
        b = it_operator(["C1A1"])
        out = second_chain_measure(state, b, ["C2A1"])
        np.testing.assert_allclose(out.amplitudes, vec, atol=1e-12)

    def test_branch_overlap_zero(self):
        model = two_chain(np.sqrt(0.7), np.sqrt(0.3))
        run = run_cascade(model, stages=2)
        (_, c1), (_, c2) = run.stages[1].branches.branches
        assert abs(c1.inner(c2)) <= 1e-14

    def test_closed_form_generic_n1(self):
        a1, a2 = random_amplitude_pair(RNG)
        model = two_chain(a1, a2)
        run = run_cascade(model, stages=2)
        phi = run.stages[1].state
        expected = np.zeros(8, dtype=complex)
        expected[0] = (a1 - a2) / 2            # |u0 u1 u'> in |B+>
        expected[6] = 1j * (a1 - a2) / 2       # |d0 d1 u'>
        expected[1] = -1j * (a1 + a2) / 2      # |u0 u1 d'> in flipped |B->
        expected[7] = -(a1 + a2) / 2           # |d0 d1 d'>
        np.testing.assert_allclose(phi.amplitudes, expected, atol=1e-12)

    def test_dense_controlled_unitary_oracle(self):
        # oracle: U = P+ (x) I + P- (x) (-i X) composed densely
        a1, a2 = random_amplitude_pair(RNG)
        model = two_chain(a1, a2)
        layout = model.layout
        psi = run_cascade(model, stages=1).stages[0].state
        b = dense_of(it_operator(["C1A1"]), layout)
        p_plus = 0.5 * (np.eye(8) + b)
        p_minus = 0.5 * (np.eye(8) - b)
        flip = dense_of(PauliString.from_map({"C2A1": "X"}, ipower=3), layout)
        u = p_plus + flip @ p_minus
        np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
        out = second_chain_measure(psi, it_operator(["C1A1"]), ["C2A1"])
        np.testing.assert_allclose(out.amplitudes, u @ psi.amplitudes, atol=1e-12)

    def test_requires_ready_target(self):
        layout = self._layout()
        vec = np.zeros(8, dtype=complex)
        vec[1] = 1.0  # target already flipped
        with pytest.raises(StateError, match="ready"):
            second_chain_measure(StateVector(layout, vec),
                                 it_operator(["C1A1"]), ["C2A1"])

    def test_rejects_split_that_misses_the_state(self):
        layout = self._layout()
        state = basis_state(layout, [0, 0, 0])
        plus = 0.5 * state.amplitudes
        with pytest.raises(StateError, match="reconstruction"):
            _record(state, plus, np.zeros_like(plus), ["C2A1"], 1e-12)

    def test_rejects_overlapping_support(self):
        layout = self._layout()
        state = basis_state(layout, [0, 0, 0])
        with pytest.raises(OperatorError, match="recording"):
            second_chain_measure(state, it_operator(["C2A1"]), ["C2A1"])


class TestInformationTradeoff:
    def test_pointer_value_before(self):
        report = information_tradeoff(two_chain(np.sqrt(0.7), np.sqrt(0.3)))
        assert abs(report.mu_before - 0.4) < 1e-12

    def test_pointer_erased_after(self):
        report = information_tradeoff(two_chain(np.sqrt(0.7), np.sqrt(0.3)))
        assert abs(report.mu_after) <= 1e-12

    def test_bprime_reproduces_b(self):
        report = information_tradeoff(two_chain(np.sqrt(0.7), np.sqrt(0.3)))
        assert abs(report.b_prime_after - report.b_before) <= 1e-12

    def test_tradeoff_theorem_50_random(self):
        kept = 0
        while kept < 50:
            a1, a2 = random_amplitude_pair(RNG)
            b_exp = np.conj(a1) * a2 + a1 * np.conj(a2)
            if abs(b_exp) <= 0.1:
                continue
            kept += 1
            report = information_tradeoff(two_chain(a1, a2))
            assert abs(report.mu_after) <= 1e-12
            assert abs(report.b_prime_after - report.b_before) <= 1e-12

    def test_needs_two_chains(self):
        with pytest.raises(ValueError, match="m >= 2"):
            information_tradeoff(CascadeModel((1,), SQ, SQ))


class TestB2FlipSum:
    def test_n1_structure(self):
        b2 = build_B2_flip_sum(["C1A1"], ["C2A1"])
        expected = PauliSum.from_terms([
            (1.0, PauliString.from_map({"C2A1": "Y", "S0": "Z"})),
            (1.0, PauliString.from_map({"C2A1": "Y", "C1A1": "X"})),
        ])
        assert b2.terms == expected.terms
        assert b2.is_hermitian()

    def test_term_count_is_power_of_two(self):
        # sum over all subsets of the first chain: 2^N strings
        for n in (1, 2, 3):
            chain1 = [f"C1A{i}" for i in range(1, n + 1)]
            b2 = build_B2_flip_sum(chain1, ["C2A1"])
            assert len(b2.terms) == 2 ** n
            assert b2.is_hermitian()

    def test_blind_on_mixture_and_vs_connector(self):
        a1, a2 = np.sqrt(0.7), np.sqrt(0.3) * np.exp(1j * np.pi / 3)
        model = two_chain(a1, a2)
        run = run_cascade(model, stages=2)
        phi = run.stages[1].state
        branches = run.stages[1].branches
        rho = mixture_of(branches)
        b2 = build_B2_flip_sum(model.chain_atoms(1), model.chain_atoms(2))
        assert abs(expectation_mixed(b2, rho)) <= 1e-12
        connector = joint_it_operator(branches)
        assert abs(connector.expectation_mixed(rho)) <= 1e-12
        # both pick up the coherence, in different quadratures of b1* b2
        (amp1, _), (amp2, _) = branches.branches
        b1b2 = np.conj(amp1) * amp2
        assert abs(connector.expectation(phi) - 2 * np.real(b1b2)) <= 1e-12
        pure_b2 = expectation(b2, phi)
        assert abs(pure_b2) > 1e-3  # nonzero for these amplitudes


class TestWiderFirstChain:
    def test_flip_sum_vs_connector_n2(self):
        # chain-1 of two atoms: both IT forms stay blind on the mixture and
        # the flip-sum form still has 2^N strings
        model = CascadeModel((2, 1), np.sqrt(0.7),
                             np.sqrt(0.3) * np.exp(1j * np.pi / 3))
        run = run_cascade(model)
        phi = run.stages[1].state
        branches = run.stages[1].branches
        rho = mixture_of(branches)
        b2 = build_B2_flip_sum(model.chain_atoms(1), model.chain_atoms(2))
        assert abs(expectation_mixed(b2, rho)) <= 1e-12
        connector = joint_it_operator(branches)
        assert abs(connector.expectation_mixed(rho)) <= 1e-12
        assert abs(phi.norm() - 1.0) <= 1e-12
        report = unmeasured_it_exists(model)
        assert report.covers_observer

    def test_tradeoff_holds_for_wider_chains(self):
        model = CascadeModel((3, 2), np.sqrt(0.7), np.sqrt(0.3))
        rep = information_tradeoff(model)
        assert abs(rep.mu_before - 0.4) <= 1e-12
        assert abs(rep.mu_after) <= 1e-12
        assert abs(rep.b_prime_after - rep.b_before) <= 1e-12


class TestJointITOperator:
    def test_hermitian_traceless_rank_two(self):
        a1, a2 = random_amplitude_pair(RNG)
        model = two_chain(a1, a2)
        run = run_cascade(model, stages=2)
        t = joint_it_operator(run.stages[1].branches)
        mat = t.to_matrix()
        np.testing.assert_allclose(mat, mat.conj().T, atol=1e-13)
        assert abs(np.trace(mat)) <= 1e-13
        assert np.linalg.matrix_rank(mat, tol=1e-10) <= 2

    def test_expectation_matches_dense(self):
        a1, a2 = random_amplitude_pair(RNG)
        model = two_chain(a1, a2)
        run = run_cascade(model, stages=2)
        t = joint_it_operator(run.stages[1].branches)
        phi = run.stages[1].state
        mat = t.to_matrix()
        assert abs(t.expectation(phi)
                   - np.vdot(phi.amplitudes, mat @ phi.amplitudes).real) < 1e-12
        rho = mixture_of(run.stages[1].branches)
        assert abs(t.expectation_mixed(rho)
                   - np.trace(rho.matrix @ mat).real) < 1e-12


class TestTerminalWitness:
    def test_m2_support_covers_everything(self):
        model = two_chain(np.sqrt(0.7), np.sqrt(0.3) * np.exp(1j * np.pi / 3))
        report = unmeasured_it_exists(model)
        assert report.support == ("S0", "C1A1", "C2A1")
        assert report.covers_observer
        # oracle: dense commutators with X/Z on each qubit are all nonzero
        t = report.witness.to_matrix()
        layout = model.layout
        for label in layout.labels:
            x = dense_of(PauliString.single(label, "X"), layout)
            z = dense_of(PauliString.single(label, "Z"), layout)
            assert (np.linalg.norm(t @ x - x @ t) > 1e-9
                    or np.linalg.norm(t @ z - z @ t) > 1e-9)

    def test_deviation_positive_for_generic_phases(self):
        model = two_chain(np.sqrt(0.7), np.sqrt(0.3) * np.exp(1j * np.pi / 3))
        report = unmeasured_it_exists(model)
        assert report.exists
        assert report.deviation > 0.1
        # oracle: dense pure-vs-mixed difference through the witness matrix
        run = run_cascade(model)
        t = report.witness.to_matrix()
        pure = run.final.state
        rho = mixture_of(run.final.branches)
        dense_dev = abs(np.vdot(pure.amplitudes, t @ pure.amplitudes).real
                        - np.trace(rho.matrix @ t).real)
        assert abs(report.deviation - dense_dev) < 1e-12

    def test_excluded_phase_set(self):
        # real amplitudes put Re(b1^(2)* b2^(2)) = 0: the witness goes blind
        excluded = unmeasured_it_exists(two_chain(np.sqrt(0.7), np.sqrt(0.3)))
        assert not excluded.exists
        assert excluded.deviation <= 1e-12
        # sweeping the phase moves the deviation through zero and back
        devs = [unmeasured_it_exists(
            two_chain(np.sqrt(0.7), np.sqrt(0.3) * np.exp(1j * p))).deviation
            for p in np.linspace(0.0, np.pi / 2, 5)]
        assert devs[0] <= 1e-12
        assert max(devs) > 0.5


class TestDeeperCascade:
    def test_three_chain_cascade_runs(self):
        model = CascadeModel((1, 1, 1), np.sqrt(0.7),
                             np.sqrt(0.3) * np.exp(1j * np.pi / 3))
        run = run_cascade(model)
        assert len(run.stages) == 3
        for stage in run.stages:
            assert abs(stage.state.norm() - 1.0) < 1e-12
            np.testing.assert_allclose(stage.branches.state().amplitudes,
                                       stage.state.amplitudes, atol=1e-12)

    def test_no_total_information_at_every_stage(self):
        model = CascadeModel((1, 1, 1), np.sqrt(0.7),
                             np.sqrt(0.3) * np.exp(1j * np.pi / 3))
        run = run_cascade(model)
        for k, stage in enumerate(run.stages, start=1):
            pointers = ObservableSet(
                f"pointers_1..{k}",
                tuple((f"mu_z(C{c})", pointer_operator(model.chain_atoms(c)))
                      for c in range(1, k + 1)))
            verdict = discriminate(stage.state, stage.branches,
                                   pointers, dense_cap=model.layout.dim)
            assert verdict.max_deviation <= 1e-12
            # the next joint IT operator does see the coherence
            connector = joint_it_operator(stage.branches)
            dev = abs(connector.expectation(stage.state)
                      - connector.expectation_mixed(mixture_of(stage.branches)))
            if k == 1:
                b = it_operator(model.chain_atoms(1))
                dev_b = abs(expectation(b, stage.state)
                            - expectation_mixed(b, mixture_of(stage.branches)))
                assert dev_b > 0.1
            else:
                assert dev > 0.1

    def test_terminal_witness_m3(self):
        model = CascadeModel((1, 1, 1), np.sqrt(0.7),
                             np.sqrt(0.3) * np.exp(1j * np.pi / 3))
        report = unmeasured_it_exists(model)
        assert report.covers_observer
        assert report.exists


@pytest.mark.parametrize("chains", [(1, 1), (2, 1), (3, 2)])
def test_stage1_matches_stepwise_passage(chains):
    # stage 1 records Z_S0 on chain 1, which must equal crossing chain 1
    # atom by atom with the complete-flip pulse
    model = CascadeModel(chains, np.sqrt(0.7), np.sqrt(0.3) * np.exp(1j * np.pi / 3))
    state = initial_cascade_state(model)
    for atom in model.chain_atoms(1):
        state = passage_step(state, atom)
    stage1 = run_cascade(model, stages=1).stages[0]
    assert np.max(np.abs(stage1.state.amplitudes - state.amplitudes)) <= 1e-15
    assert np.max(np.abs(stage1.branches.state().amplitudes
                         - state.amplitudes)) <= 1e-15


def test_cascade_initial_state_norm():
    model = CascadeModel((2, 1), 0.6, 0.8j)
    s = initial_cascade_state(model)
    assert abs(s.norm() - 1.0) < 1e-15
    assert model.layout.dim == 16


def test_connector_layout_mismatch():
    a = basis_state(HilbertLayout.qubits(["p"]), [0])
    b = basis_state(HilbertLayout.qubits(["q"]), [0])
    with pytest.raises(StateError):
        BranchConnector(a, b)


def test_single_branch_stage_ends_the_run():
    # a1 = a2 makes the stage-1 state a B eigenstate: recording B leaves one
    # branch, later chains have nothing to record, and the one-branch
    # mixture is the pure state itself
    model = CascadeModel((2, 2, 1, 1, 1), SQ, SQ)
    run = run_cascade(model)
    assert len(run.stages) == 2
    assert len(run.final.branches.branches) == 1
    assert run.terminal_deviation() == 0.0
