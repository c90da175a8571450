import math

import numpy as np
import pytest
import scipy.linalg

from qmeaslab.chain import (ChainModel, atom_labels, closed_form_final,
                            eigenstate_residual, final_branches, full_passage,
                            heisenberg_hamiltonian, initial_state,
                            it_commutator_audit, it_operator, passage_step,
                            pointer_operator, strict_check, _closed_branch,
                            _closed_form, _pulse)
from qmeaslab.hilbert import (HilbertLayout, LayoutError, MODE, StateVector,
                              Subsystem, basis_state, mixture_of)
from qmeaslab.pauli import (OperatorError, PauliString, PauliSum, commutator,
                            expectation, expectation_mixed)

from oracles import (copy_passage, copy_passage_step, dense_commutator, dense_of,
                     kron_loop_closed_form, random_amplitude_pair, random_state)

RNG = np.random.default_rng(31415)
SQ = np.sqrt(0.5)


class TestInitialState:
    def test_definite_up(self):
        s = initial_state(ChainModel(2, 1.0, 0.0))
        np.testing.assert_allclose(s.amplitudes, [1, 0, 0, 0, 0, 0, 0, 0])

    def test_superposition_layout_order(self):
        s = initial_state(ChainModel(2, SQ, SQ))
        expected = np.zeros(8)
        expected[0] = expected[4] = SQ  # system qubit is the leading digit
        np.testing.assert_allclose(s.amplitudes, expected)

    def test_norm(self):
        a1, a2 = random_amplitude_pair(RNG)
        assert abs(initial_state(ChainModel(3, a1, a2)).norm() - 1.0) < 1e-12

    def test_bad_model(self):
        with pytest.raises(ValueError, match="n_atoms"):
            ChainModel(0, 1.0, 0.0)
        with pytest.raises(ValueError, match=r"\|a1\|"):
            ChainModel(2, 1.0, 1.0)


class TestPassageStep:
    def test_up_branch_conserved(self):
        layout = HilbertLayout.qubits(["S0", "A1"])
        s = basis_state(layout, [0, 0])
        out = passage_step(s, "A1")
        np.testing.assert_allclose(out.amplitudes, s.amplitudes)

    def test_down_branch_flips_with_phase(self):
        # oracle: exponentiate the conditional generator at theta = pi/2
        layout = HilbertLayout.qubits(["S0", "A1"])
        s = basis_state(layout, [1, 0])
        out = passage_step(s, "A1")
        gen = scipy.linalg.expm(-1j * (math.pi / 2)
                                * np.array([[0, 1], [1, 0]], dtype=complex))
        expected = np.zeros(4, dtype=complex)
        expected[2:] = gen @ np.array([1.0, 0.0])
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)
        np.testing.assert_allclose(out.amplitudes[3], -1j, atol=1e-12)

    def test_double_visit_gives_minus_one(self):
        # oracle: (-i sigma_x)^2 = -I
        layout = HilbertLayout.qubits(["S0", "A1"])
        s = basis_state(layout, [1, 0])
        out = passage_step(passage_step(s, "A1"), "A1")
        np.testing.assert_allclose(out.amplitudes, -s.amplitudes, atol=1e-12)

    def test_partial_angle_matches_expm(self):
        theta = 0.7
        layout = HilbertLayout.qubits(["S0", "A1"])
        vec = random_state(RNG, 4)
        out = passage_step(StateVector(layout, vec), "A1", theta=theta)
        u2 = scipy.linalg.expm(-1j * theta * np.array([[0, 1], [1, 0]]))
        full = np.eye(4, dtype=complex)
        full[2:, 2:] = u2
        np.testing.assert_allclose(out.amplitudes, full @ vec, atol=1e-12)

    def test_unitarity_on_random_pairs(self):
        layout = HilbertLayout.qubits(["S0", "A1", "A2"])
        for _ in range(25):
            v1, v2 = random_state(RNG, 8), random_state(RNG, 8)
            s1, s2 = StateVector(layout, v1), StateVector(layout, v2)
            t1 = passage_step(s1, "A2", theta=1.1)
            t2 = passage_step(s2, "A2", theta=1.1)
            assert abs(t1.inner(t2) - s1.inner(s2)) < 1e-12
            assert abs(t1.norm() - 1.0) < 1e-12

    @pytest.mark.parametrize("atom, system, error, match", [
        ("m", "S0", OperatorError, "'m'"),
        ("S0", "m", OperatorError, "'m'"),
        ("A9", "S0", LayoutError, "unknown label 'A9'"),
        ("S0", "S0", OperatorError, "distinct"),
    ])
    def test_rejects_non_qubit_unknown_and_repeated_labels(self, atom, system,
                                                           error, match):
        # a photon mode is not rotated as if its levels 0 and 1 were a qubit
        layout = HilbertLayout((Subsystem("S0"), Subsystem("m", 3, MODE)))
        with pytest.raises(error, match=match):
            passage_step(basis_state(layout, [1, 0]), atom, system=system)


class TestFullPassage:
    def test_n1_equal_amplitudes(self):
        psi = full_passage(ChainModel(1, SQ, SQ))
        expected = np.array([SQ, 0, 0, -1j * SQ])
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-12)

    def test_n4_phase_returns_to_one(self):
        psi = full_passage(ChainModel(4, SQ, SQ))
        assert abs(psi.amplitudes[-1] - SQ) < 1e-12  # (-i)^4 = 1

    def test_matches_closed_form_50_random(self):
        for n in range(1, 7):
            for _ in range(50 // 6 + 1):
                a1, a2 = random_amplitude_pair(RNG)
                model = ChainModel(n, a1, a2)
                overlap = abs(full_passage(model).inner(closed_form_final(model)))
                assert overlap >= 1.0 - 1e-12

    def test_partial_angle_closed_form(self):
        model = ChainModel(3, 0.6, 0.8j, theta=0.9)
        np.testing.assert_allclose(full_passage(model).amplitudes,
                                   closed_form_final(model).amplitudes, atol=1e-12)


class TestKernelsMatchEarlierRoutes:
    """The in-place passage and the shared closed-form branch give the same
    bits as the copy-per-step passage and the per-model np.kron loop."""

    GRID = [(n, deg) for n in (1, 5, 11, 13) for deg in (90.0, 60.0, 37.5, 89.999)]

    @pytest.mark.parametrize("n, theta_deg", GRID)
    def test_in_place_passage(self, n, theta_deg):
        a1, a2 = random_amplitude_pair(RNG)
        model = ChainModel(n, a1, a2, math.radians(theta_deg))
        ref = copy_passage(model.layout, model.atoms, a1, a2, model.theta)
        assert np.array_equal(full_passage(model).amplitudes, ref)
        state = initial_state(model)
        for atom in model.atoms:
            state = passage_step(state, atom, theta=model.theta)
        assert np.array_equal(state.amplitudes, ref)

    @pytest.mark.parametrize("n, theta_deg", GRID)
    def test_shared_closed_form_branch(self, n, theta_deg):
        theta = math.radians(theta_deg)
        branch = _closed_branch(n, theta)
        for _ in range(3):
            a1, a2 = random_amplitude_pair(RNG)
            model = ChainModel(n, a1, a2, theta)
            ref = kron_loop_closed_form(n, a1, a2, theta)
            assert np.array_equal(closed_form_final(model).amplitudes, ref)
            assert np.array_equal(_closed_form(model.layout, a1, a2, branch).amplitudes, ref)

    PULSE_LAYOUTS = [
        HilbertLayout.qubits(["S0", "A1"]),
        HilbertLayout((Subsystem("A1"), Subsystem("m", 3, MODE), Subsystem("S0"),
                       Subsystem("A2"))),
        HilbertLayout((Subsystem("A2"), Subsystem("S0"), Subsystem("m", 2, MODE),
                       Subsystem("A1"))),
    ]

    @pytest.mark.parametrize("theta_deg", [90.0, 60.0, 37.5])
    @pytest.mark.parametrize("layout", PULSE_LAYOUTS, ids=lambda l: "-".join(l.labels))
    def test_pulse_on_every_qubit_pair(self, layout, theta_deg):
        # N = 1, a system qubit that is not first, and a photon mode between
        # the two qubits: the strided views give the oracle's bits
        theta = math.radians(theta_deg)
        qubits = [l for l in layout.labels if l != "m"]
        amps = random_state(RNG, layout.dim)
        for system in qubits:
            for atom in qubits:
                if atom != system:
                    ref = copy_passage_step(layout, amps, atom, theta, system=system)
                    out = passage_step(StateVector(layout, amps), atom, system, theta)
                    assert np.array_equal(out.amplitudes, ref)

    def test_pulse_writes_through_a_strided_array(self):
        # a 1-d array of any stride is viewed in the layout's shape, so the
        # pulse lands in the caller's buffer, never in a copy
        layout = HilbertLayout.qubits(["S0", "A1", "A2"])
        buf = np.zeros(2 * layout.dim, dtype=complex)
        amps = buf[::2]
        amps[:] = random_state(RNG, layout.dim)
        ref = copy_passage_step(layout, amps, "A2", 1.1)
        _pulse(amps, layout, "S0", "A2", 1.1)
        assert np.array_equal(amps, ref) and not buf[1::2].any()

    def test_pulse_refuses_an_array_only_a_copy_could_reshape(self):
        layout = HilbertLayout((Subsystem("S0"), Subsystem("m", 3, MODE), Subsystem("A1")))
        amps = random_state(RNG, layout.dim).reshape(4, 3).T
        before = amps.copy()
        with pytest.raises(AttributeError, match="in-place"):
            _pulse(amps, layout, "S0", "A1", 1.1)
        assert np.array_equal(amps, before)

    def test_passage_step_leaves_its_input_unchanged(self):
        state = initial_state(ChainModel(3, *random_amplitude_pair(RNG)))
        before = state.amplitudes.copy()
        out = passage_step(state, "A2", theta=1.1)
        assert np.array_equal(state.amplitudes, before)
        assert not np.array_equal(out.amplitudes, before)


class TestObservables:
    def test_n1_forms(self):
        assert pointer_operator(1).terms == (
            (1.0 + 0j, PauliString.from_map({"A1": "Z"})),)
        assert it_operator(1).terms == (
            (1.0 + 0j, PauliString.from_map({"S0": "X", "A1": "Y"})),)

    def test_pointer_mean(self):
        model = ChainModel(4, np.sqrt(0.7), np.sqrt(0.3))
        psi = full_passage(model)
        val = expectation(pointer_operator(4), psi)
        layout = model.layout
        oracle = np.vdot(psi.amplitudes,
                         dense_of(pointer_operator(4), layout) @ psi.amplitudes)
        assert abs(val - oracle.real) < 1e-13
        assert abs(val - 0.4) < 1e-12

    def test_it_blind_on_mixture_all_n(self):
        for n in (1, 2, 3, 4):
            a1, a2 = random_amplitude_pair(RNG)
            rho = mixture_of(final_branches(ChainModel(n, a1, a2)))
            assert expectation_mixed(it_operator(n), rho) == 0.0

    def test_pure_mixed_separation_magnitude(self):
        # |B_pure - B_mixed| = |a1* a2 + a1 a2*| over 50 random draws
        for _ in range(50):
            n = int(RNG.integers(1, 5))
            a1, a2 = random_amplitude_pair(RNG)
            model = ChainModel(n, a1, a2)
            b = it_operator(n)
            pure = expectation(b, full_passage(model))
            mixed = expectation_mixed(b, mixture_of(final_branches(model)))
            cross = abs(np.conj(a1) * a2 + a1 * np.conj(a2))
            assert abs(abs(pure - mixed) - cross) < 1e-12

    def test_commutator_nonzero_every_n(self):
        for n in range(1, 6):
            assert not commutator(pointer_operator(n), it_operator(n)).is_zero()


class TestStrictness:
    def test_exact_on_final_state(self):
        for n in (1, 2, 4, 6):
            for _ in range(8):
                a1, a2 = random_amplitude_pair(RNG)
                psi = full_passage(ChainModel(n, a1, a2))
                z0 = PauliSum.from_string(PauliString.single("S0", "Z"))
                rep = strict_check(z0, pointer_operator(n), psi)
                assert abs(rep.delta) <= 1e-12

    def test_uncorrelated_before_passage(self):
        model = ChainModel(3, 0.6, 0.8)
        psi0 = initial_state(model)
        z0 = PauliSum.from_string(PauliString.single("S0", "Z"))
        rep = strict_check(z0, pointer_operator(3), psi0)
        sigma = 0.36 - 0.64
        assert abs(rep.q_expect - sigma) < 1e-12
        assert abs(rep.qo_expect - 1.0) < 1e-12  # pointer still all-up
        assert abs(rep.delta - (sigma - 1.0)) < 1e-12

    def test_transverse_observable_not_strict(self):
        model = ChainModel(2, np.sqrt(0.7), np.sqrt(0.3) * np.exp(0.4j))
        psi = full_passage(model)
        x0 = PauliSum.from_string(PauliString.single("S0", "X"))
        rep = strict_check(x0, pointer_operator(2), psi)
        mu = expectation(pointer_operator(2), psi)
        assert abs(rep.q_expect) < 1e-12  # branches differ on every atom
        assert abs(rep.delta - (-mu)) < 1e-12

    def test_support_violation(self):
        psi = full_passage(ChainModel(2, SQ, SQ))
        mu = pointer_operator(2)
        with pytest.raises(OperatorError, match="supported"):
            strict_check(mu, mu, psi)


class TestHeisenberg:
    def test_allup_is_eigenstate(self):
        for n in range(2, 7):
            j = 1.3
            h = heisenberg_hamiltonian(n, j)
            layout = HilbertLayout.qubits(atom_labels(n))
            ground = basis_state(layout, [0] * n)
            res, lam = eigenstate_residual(h, ground)
            assert res <= 1e-12
            assert abs(lam - j * (n - 1)) <= 1e-12

    def test_matches_dense_oracle(self):
        n, j = 3, 0.8
        h = heisenberg_hamiltonian(n, j)
        layout = HilbertLayout.qubits(atom_labels(n))
        hd = dense_of(h, layout)
        vals = np.linalg.eigvalsh(hd)
        ground = basis_state(layout, [0] * n)
        lam = np.vdot(ground.amplitudes, hd @ ground.amplitudes).real
        assert abs(lam - j * (n - 1)) < 1e-12
        assert lam <= vals[-1] + 1e-12

    def test_single_flip_not_eigenstate(self):
        for n in (2, 3, 4):
            h = heisenberg_hamiltonian(n, 1.0)
            layout = HilbertLayout.qubits(atom_labels(n))
            flipped = basis_state(layout, [1] + [0] * (n - 1))
            res, _ = eigenstate_residual(h, flipped)
            assert res > 1e-6

    def test_identity_residual_zero(self):
        layout = HilbertLayout.qubits(atom_labels(3))
        state = StateVector(layout, random_state(RNG, 8))
        res, lam = eigenstate_residual(PauliSum.identity(), state)
        assert res <= 1e-12 and abs(lam - 1.0) <= 1e-12

    def test_needs_two_atoms(self):
        with pytest.raises(ValueError, match="N >= 2"):
            heisenberg_hamiltonian(1, 1.0)


class TestCommutatorAudit:
    def test_constant_stable_across_n(self):
        constants = [it_commutator_audit(n).constant for n in range(1, 5)]
        for c in constants:
            assert abs(c - (-2.0)) < 1e-12
        assert all(it_commutator_audit(n).proportional for n in range(1, 5))

    def test_string_level_matches_dense(self):
        for n in range(1, 5):
            labels = ["S0"] + [f"A{i}" for i in range(1, n + 1)]
            layout = HilbertLayout.qubits(labels)
            lhs = commutator(pointer_operator(n), it_operator(n))
            oracle = dense_commutator(dense_of(pointer_operator(n), layout),
                                      dense_of(it_operator(n), layout))
            assert np.max(np.abs(dense_of(lhs, layout) - oracle)) <= 1e-12


def test_final_branches_requires_complete_flip():
    from qmeaslab.hilbert import StateError
    with pytest.raises(StateError, match="pi/2"):
        final_branches(ChainModel(2, SQ, SQ, theta=0.5))
