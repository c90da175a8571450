import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeaslab.chain import it_operator, passage_step, pointer_operator
from qmeaslab.hilbert import (DensityMatrix, HilbertLayout, MODE, QUBIT,
                              StateVector, Subsystem, basis_state, qubit_state)
from qmeaslab.pauli import (OperatorError, PauliString, PauliSum, all_strings,
                            apply, apply_sum, commutator, expectation,
                            expectation_mixed, format_string, format_sum,
                            hermitian_part, multiply, parse_string, parse_sum,
                            string_matrix, sum_matrix, sup_norm_estimate,
                            _apply_rows, _diagonal_values, _string_action)
from qmeaslab.sectors import Projector

from oracles import (X, ch_final_dense, dense_commutator, dense_expect,
                     dense_expect_mixed, dense_of, kron_all,
                     random_amplitude_pair, random_state, scatter_rows)

RNG = np.random.default_rng(77)


def ps(**letters):
    return PauliString.from_map(letters)


class TestMultiply:
    def test_xy_gives_iz(self):
        out = multiply(ps(q="X"), ps(q="Y"))
        assert out.letters == (("q", "Z"),)
        assert out.phase == 1j

    def test_disjoint_supports(self):
        out = multiply(ps(a="X"), ps(b="Y"))
        assert out.letters == (("a", "X"), ("b", "Y"))
        assert out.phase == 1.0

    def test_it_operator_squares_to_identity(self):
        # string level and dense oracle, B = X_s prod Y_i
        for n in (1, 2, 3, 4):
            b = it_operator(n)
            sq = b @ b
            assert sq.terms == PauliSum.identity().terms
            layout = HilbertLayout.qubits(["S0"] + [f"A{i}" for i in range(1, n + 1)])
            mat = dense_of(b, layout)
            np.testing.assert_allclose(mat @ mat, np.eye(layout.dim), atol=1e-12)

    def test_matches_dense_oracle_randomized(self):
        labels = ["a", "b", "c"]
        layout = HilbertLayout.qubits(labels)
        strings = all_strings(labels)
        for _ in range(50):
            s1, s2 = strings[RNG.integers(len(strings))], strings[RNG.integers(len(strings))]
            prod = multiply(s1, s2)
            np.testing.assert_allclose(
                dense_of(prod, layout),
                dense_of(s1, layout) @ dense_of(s2, layout), atol=1e-14)

    def test_associative(self):
        a, b, c = ps(x="X", y="Y"), ps(y="Z"), ps(x="Y", z="X")
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


class TestPhaseClosure:
    def test_products_of_hermitian_strings_stay_quartic(self):
        strings = all_strings(["a", "b"])
        for s1 in strings:
            for s2 in strings:
                assert multiply(s1, s2).ipower in (0, 1, 2, 3)

    def test_canonicalization_idempotent(self):
        terms = ((2.0, ps(a="X")), (1j, PauliString((("a", "Y"),), ipower=1)),
                 (2.0, ps(a="X")))
        once = PauliSum(terms)
        twice = PauliSum(once.terms)
        assert once.terms == twice.terms


class TestCommutator:
    def test_zy_single_qubit(self):
        out = commutator(PauliSum.from_string(ps(q="Z")),
                         PauliSum.from_string(ps(q="Y")))
        assert len(out.terms) == 1
        coef, s = out.terms[0]
        assert s.letters == (("q", "X"),)
        assert coef == -2j

    def test_pointer_it_commutator_n1(self):
        # dense oracle fixes [mu_z, B] = -2i X_S0 X_A1 at N=1
        layout = HilbertLayout.qubits(["S0", "A1"])
        mu, b = pointer_operator(1), it_operator(1)
        string_level = commutator(mu, b)
        oracle = dense_commutator(dense_of(mu, layout), dense_of(b, layout))
        np.testing.assert_allclose(dense_of(string_level, layout), oracle, atol=1e-14)
        assert string_level.terms == ((-2j, ps(A1="X", S0="X")),)

    def test_pointer_it_commutator_n3_proportionality(self):
        layout = HilbertLayout.qubits(["S0", "A1", "A2", "A3"])
        mu, b = pointer_operator(3), it_operator(3)
        lhs = commutator(mu, b)
        np.testing.assert_allclose(
            dense_of(lhs, layout),
            dense_commutator(dense_of(mu, layout), dense_of(b, layout)), atol=1e-14)
        # reference sum (i/N) X_S0 sum_i X_i prod_{j != i} Y_j
        ref_terms = []
        atoms = ["A1", "A2", "A3"]
        for i, flip in enumerate(atoms):
            letters = {"S0": "X", flip: "X"}
            letters.update({a: "Y" for k, a in enumerate(atoms) if k != i})
            ref_terms.append((1j / 3, PauliString.from_map(letters)))
        ref = PauliSum.from_terms(ref_terms)
        ratios = {s.letters: c for c, s in lhs.terms}
        for c_ref, s_ref in ref.terms:
            assert abs(ratios[s_ref.letters] / c_ref - (-2.0)) < 1e-12

    def test_antisymmetry_and_jacobi_dense(self):
        labels = ["a", "b", "c"]
        layout = HilbertLayout.qubits(labels)
        strings = all_strings(labels)

        def rand_sum():
            terms = [(complex(RNG.normal(), RNG.normal()),
                      strings[RNG.integers(len(strings))]) for _ in range(3)]
            return PauliSum.from_terms(terms)

        for _ in range(20):
            a, b, c = rand_sum(), rand_sum(), rand_sum()
            ab = commutator(a, b)
            ba = commutator(b, a)
            np.testing.assert_allclose(dense_of(ab, layout), -dense_of(ba, layout),
                                       atol=1e-12)
            jacobi = (commutator(a, commutator(b, c))
                      + commutator(b, commutator(c, a))
                      + commutator(c, commutator(a, b)))
            np.testing.assert_allclose(dense_of(jacobi, layout),
                                       np.zeros((8, 8)), atol=1e-12)


class TestApply:
    def test_x_flips_up(self):
        out = apply(ps(q="X"), qubit_state("q", 1.0, 0.0))
        np.testing.assert_allclose(out.amplitudes, [0, 1])

    def test_y_convention(self):
        # the fixed convention: Y|u> = i|d>
        out = apply(ps(q="Y"), qubit_state("q", 1.0, 0.0))
        np.testing.assert_allclose(out.amplitudes, [0, 1j])
        out = apply(ps(q="Y"), qubit_state("q", 0.0, 1.0))
        np.testing.assert_allclose(out.amplitudes, [-1j, 0])

    def test_random_six_qubit_strings_vs_dense(self):
        labels = [f"q{i}" for i in range(6)]
        layout = HilbertLayout.qubits(labels)
        letters = ["I", "X", "Y", "Z"]
        for _ in range(100):
            lmap = {l: letters[RNG.integers(4)] for l in labels}
            s = PauliString.from_map({l: p for l, p in lmap.items() if p != "I"},
                                     ipower=int(RNG.integers(4)))
            vec = random_state(RNG, layout.dim)
            state = StateVector(layout, vec)
            fast = apply(s, state).amplitudes
            slow = dense_of(s, layout) @ vec
            assert np.max(np.abs(fast - slow)) <= 1e-12

    @pytest.mark.parametrize("subsystems", [
        (Subsystem("q"), Subsystem("m", 3, MODE)),
        # qubit a has stride 6: its flip is no single-bit xor of the index
        (Subsystem("m1", 3, MODE), Subsystem("a"), Subsystem("m2", 3, MODE),
         Subsystem("b")),
    ], ids=["q-m3", "m3-a-m3-b"])
    def test_mixed_dims_layout(self, subsystems):
        layout = HilbertLayout(subsystems)
        qubits = [sub.label for sub in subsystems if sub.kind == QUBIT]
        vec = random_state(RNG, layout.dim)
        state = StateVector(layout, vec)
        s = ps(**{qubits[0]: "Y"})
        np.testing.assert_allclose(apply(s, state).amplitudes,
                                   dense_of(s, layout) @ vec, atol=1e-14)
        rng = np.random.default_rng(6)
        rho = sum(w * np.outer(v, v.conj()) for w, v in zip(
            (0.5, 0.3, 0.2), (random_state(rng, layout.dim) for _ in range(3))))
        # a mask blind to the first qubit: flips of that qubit keep it, others need not
        first = layout.axis(qubits[0])
        base = rng.random(layout.dim) < 0.5
        mask = np.array([base[layout.index_of(
            [0 if k == first else d for k, d in enumerate(layout.assignment_of(i))])]
            for i in range(layout.dim)])
        proj = Projector(layout, mask)
        z_terms = []
        for bare in all_strings(qubits):
            for ipower in range(4):
                s = PauliString(bare.letters, ipower)
                mat = string_matrix(s, layout)
                np.testing.assert_allclose(apply(s, state).amplitudes, mat @ vec,
                                           atol=1e-14)
                assert proj.commutes_with(s) == (not np.any(
                    mat * mask[None, :] - mask[:, None] * mat))
                if s.is_hermitian():
                    got = expectation_mixed(PauliSum.from_string(s),
                                            DensityMatrix(layout, rho))
                    assert abs(got - dense_expect_mixed(mat, rho).real) <= 1e-14
                if all(letter == "Z" for _, letter in s.letters):
                    np.testing.assert_array_equal(
                        _diagonal_values(PauliSum.from_string(s), layout), np.diag(mat))
            if all(letter == "Z" for _, letter in bare.letters):
                z_terms.append((len(z_terms) + 0.5, bare))
        z_sum = PauliSum.from_terms(z_terms)
        assert abs(sup_norm_estimate(z_sum, layout)
                   - np.linalg.norm(sum_matrix(z_sum, layout), ord=2)) <= 1e-12
        # the chain pulse: exp(-i theta sigma_x) on the atom where the system is |d>
        def kron_over(local):
            return kron_all([local.get(sub.label, np.eye(sub.dim))
                             for sub in layout.subsystems])
        for system, atom in itertools.permutations(qubits, 2):
            for theta in (np.pi / 2, 0.7):
                dense = (kron_over({system: np.diag([1.0, 0.0])})
                         + kron_over({system: np.diag([0.0, 1.0]),
                                      atom: scipy.linalg.expm(-1j * theta * X)}))
                out = passage_step(state, atom, system=system, theta=theta)
                np.testing.assert_allclose(out.amplitudes, dense @ vec, atol=1e-12)

    def test_rejects_mode_letter(self):
        layout = HilbertLayout((Subsystem("q"), Subsystem("m", 3, MODE)))
        state = basis_state(layout, [0, 0])
        with pytest.raises(OperatorError, match="non-qubit"):
            apply(ps(m="X"), state)


@pytest.mark.parametrize("letters", [{}, {"q0": "Z"}, {"q0": "Z", "q2": "Z"},
                                     {"q1": "X"}, {"q0": "Y", "q2": "Z"}])
@pytest.mark.parametrize("ipower", range(4))
def test_apply_rows_matches_the_scatter_route(letters, ipower):
    # flip-free strings act by a multiply, the others by a scatter: both are
    # the bits of one scatter through the string's (pi, ph), on one row and
    # on a row block, next to a mode that no letter touches
    layout = HilbertLayout((Subsystem("q0"), Subsystem("m", 3, MODE),
                            Subsystem("q1"), Subsystem("q2")))
    op = PauliString.from_map(letters, ipower)
    pi, ph = _string_action(op, layout)
    row = random_state(RNG, layout.dim)
    block = np.stack([random_state(RNG, layout.dim) for _ in range(3)])
    for amps in (row, block):
        assert np.array_equal(_apply_rows(op, layout, amps), scatter_rows(pi, ph, amps))


class TestExpectation:
    def test_eigenstate(self):
        assert expectation(PauliSum.from_string(ps(q="Z")),
                           qubit_state("q", 1.0, 0.0)) == 1.0

    def test_pointer_mean_on_final_state(self):
        # oracle: dense expectation on the closed-form final state
        n = 3
        a1, a2 = np.sqrt(0.7), np.sqrt(0.3)
        layout = HilbertLayout.qubits(["S0"] + [f"A{i}" for i in range(1, n + 1)])
        psi = StateVector(layout, ch_final_dense(n, a1, a2))
        mu = pointer_operator(n)
        val = expectation(mu, psi)
        oracle = dense_expect(dense_of(mu, layout), psi.amplitudes).real
        assert abs(val - oracle) < 1e-14
        assert abs(val - 0.4) < 1e-12

    def test_it_mean_equal_amplitudes_n1(self):
        layout = HilbertLayout.qubits(["S0", "A1"])
        psi = StateVector(layout, ch_final_dense(1, np.sqrt(0.5), np.sqrt(0.5)))
        b = it_operator(1)
        val = expectation(b, psi)
        oracle = dense_expect(dense_of(b, layout), psi.amplitudes).real
        assert abs(val - oracle) < 1e-14
        assert abs(val - (-1.0)) < 1e-12

    def test_rejects_non_hermitian(self):
        op = PauliSum.from_terms([(1j, ps(q="X"))])
        with pytest.raises(OperatorError, match="Hermitian"):
            expectation(op, qubit_state("q", 1.0, 0.0))

    def test_rejects_unknown_label(self):
        with pytest.raises(Exception, match="unknown label"):
            expectation(PauliSum.from_string(ps(nope="Z")),
                        qubit_state("q", 1.0, 0.0))


class TestExpectationMixed:
    def _chain_mixture(self, n, a1, a2):
        dim = 2 ** (n + 1)
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = abs(a1) ** 2
        rho[-1, -1] = abs(a2) ** 2
        layout = HilbertLayout.qubits(["S0"] + [f"A{i}" for i in range(1, n + 1)])
        from qmeaslab.hilbert import DensityMatrix
        return layout, DensityMatrix(layout, rho)

    def test_it_blind_on_mixture(self):
        for n in (1, 2, 3):
            layout, rho = self._chain_mixture(n, np.sqrt(0.7), np.sqrt(0.3))
            assert expectation_mixed(it_operator(n), rho) == 0.0

    def test_pointer_weights(self):
        layout, rho = self._chain_mixture(2, 0.6, 0.8)
        val = expectation_mixed(pointer_operator(2), rho)
        oracle = dense_expect_mixed(dense_of(pointer_operator(2), layout),
                                    rho.matrix).real
        assert abs(val - oracle) < 1e-14
        assert abs(val - (0.36 - 0.64)) < 1e-12

    def test_identity_normalization(self):
        layout, rho = self._chain_mixture(2, 0.6, 0.8)
        assert abs(expectation_mixed(PauliSum.identity(), rho) - 1.0) < 1e-15


class TestNotation:
    def test_example_form(self):
        coef, s = parse_string("X0*Y1*Y2")
        assert coef == 1.0
        assert s.letters == (("0", "X"), ("1", "Y"), ("2", "Y"))
        assert format_string(s) == "X0*Y1*Y2"

    def test_coefficient_prefix(self):
        total = parse_sum("0.5*X0 + (-0.25-0.5j)*Z0*Z1")
        assert total.terms[0][0] == 0.5
        assert total.terms[1][0] == -0.25 - 0.5j

    def test_identity(self):
        assert parse_sum("I").terms == PauliSum.identity().terms
        assert format_sum(PauliSum.identity()) == "I"
        assert format_sum(PauliSum.zero()) == "0"
        assert parse_sum("0").is_zero()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.complex_numbers(min_magnitude=1e-3, max_magnitude=10,
                               allow_nan=False, allow_infinity=False),
            st.dictionaries(st.sampled_from(["q0", "q1", "S0", "A12"]),
                            st.sampled_from(["X", "Y", "Z"]), max_size=3)),
        max_size=4))
    def test_roundtrip_lossless(self, raw):
        total = PauliSum.from_terms(
            (c, PauliString.from_map(m)) for c, m in raw)
        assert parse_sum(format_sum(total)).terms == total.terms

    def test_unparseable(self):
        with pytest.raises(OperatorError):
            parse_string("W3")


class TestDenseOraclePath:
    def test_string_matrix_matches_literal_kron(self):
        layout = HilbertLayout.qubits(["a", "b"])
        s = PauliString.from_map({"a": "X", "b": "Y"}, ipower=1)
        np.testing.assert_allclose(string_matrix(s, layout), dense_of(s, layout))

    def test_sum_matrix_respects_cap(self):
        from qmeaslab.hilbert import DimensionCapError
        layout = HilbertLayout.qubits([f"q{i}" for i in range(8)])
        with pytest.raises(DimensionCapError):
            sum_matrix(PauliSum.identity(), layout)

    @pytest.mark.parametrize("chains", [(1, 1), (2, 1), (2, 2, 1), (5,)])
    def test_z_diagonal_norm_is_exact(self, chains, monkeypatch):
        # pointers and their pairwise products are {I,Z} sums: the norm is
        # max |diag| at any dimension, with no dense realization or SVD
        import qmeaslab.pauli as pauli_module

        monkeypatch.setattr(pauli_module, "sum_matrix", None)
        labels = ["S0"]
        pointers = [PauliSum.from_string(ps(S0="Z"))]
        for k, size in enumerate(chains, start=1):
            atoms = [f"C{k}A{i}" for i in range(1, size + 1)]
            labels += atoms
            pointers.append(pointer_operator(atoms))
        layout = HilbertLayout.qubits(labels)
        assert layout.dim <= 64
        family = pointers + [hermitian_part(a @ b) for i, a in enumerate(pointers)
                             for b in pointers[i:]]
        for op in family:
            dense = np.linalg.norm(dense_of(op, layout), ord=2)
            assert abs(sup_norm_estimate(op, layout) - dense) <= 1e-12

    @pytest.mark.parametrize("letters", [dict(a="X"), dict(a="Y", b="Z"),
                                         dict(a="X", b="Y", c="Z"), dict()])
    def test_one_term_norm_is_exact(self, letters, monkeypatch):
        # c P with P a Pauli string has norm |c|, with no dense realization
        # even under the dense cap
        import qmeaslab.pauli as pauli_module

        layout = HilbertLayout.qubits(["a", "b", "c"])
        op = PauliSum.from_string(ps(**letters), complex(*RNG.normal(size=2)))
        dense = np.linalg.norm(dense_of(op, layout), ord=2)
        monkeypatch.setattr(pauli_module, "sum_matrix", None)
        assert abs(sup_norm_estimate(op, layout) - dense) <= 1e-12

    def test_non_diagonal_sum_norm_is_dense_and_capped(self):
        # X0 + Z0 has norm sqrt(2); its terms' triangle bound is 2
        from qmeaslab.hilbert import DimensionCapError

        op = PauliSum.from_terms([(1.0, ps(q0="X")), (1.0, ps(q0="Z"))])
        layout = HilbertLayout.qubits([f"q{i}" for i in range(6)])
        dense = np.linalg.norm(dense_of(op, layout), ord=2)
        assert abs(dense - np.sqrt(2.0)) <= 1e-12
        assert abs(sup_norm_estimate(op, layout) - dense) <= 1e-12
        wide = HilbertLayout.qubits([f"q{i}" for i in range(7)])
        with pytest.raises(DimensionCapError, match="non-diagonal"):
            sup_norm_estimate(op, wide)

    def test_apply_sum_matches_dense(self):
        layout = HilbertLayout.qubits(["a", "b", "c"])
        op = PauliSum.from_terms([(0.5, ps(a="X", b="Y")), (-2.0, ps(c="Z"))])
        vec = random_state(RNG, 8)
        state = StateVector(layout, vec)
        np.testing.assert_allclose(apply_sum(op, state),
                                   dense_of(op, layout) @ vec, atol=1e-13)


def test_it_commutator_expectation_consistency():
    # string-level vs dense route for <psi_f | [mu_z, B] | psi_f>
    for n in (1, 2, 3):
        layout = HilbertLayout.qubits(["S0"] + [f"A{i}" for i in range(1, n + 1)])
        a1, a2 = random_amplitude_pair(RNG)
        psi = StateVector(layout, ch_final_dense(n, a1, a2))
        comm = commutator(pointer_operator(n), it_operator(n))
        herm = PauliSum.from_terms([(-1j * c, s) for c, s in comm.terms])
        fast = expectation(herm, psi)
        slow = dense_expect(-1j * dense_commutator(
            dense_of(pointer_operator(n), layout),
            dense_of(it_operator(n), layout)), psi.amplitudes)
        assert abs(fast - slow.real) < 1e-12
        assert abs(slow.imag) < 1e-12
