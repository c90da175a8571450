import numpy as np
import pytest

from qmeaslab.hilbert import (BranchDecomposition, DensityMatrix,
                              DimensionCapError, HilbertLayout, LayoutError,
                              MODE, StateError, StateVector, Subsystem,
                              basis_state, build_premeasurement,
                              canonical_split, mixture_of, partial_trace,
                              qubit_state, tensor, _gauge_rows)

from oracles import loop_partial_trace, random_state

RNG = np.random.default_rng(20240811)


def u(label):
    return qubit_state(label, 1.0, 0.0)


def d(label):
    return qubit_state(label, 0.0, 1.0)


class TestLayout:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(LayoutError, match="duplicate"):
            HilbertLayout.qubits(["a", "a"])

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            HilbertLayout.qubits([f"q{i}" for i in range(15)])

    def test_qubit_dim_fixed(self):
        with pytest.raises(LayoutError):
            Subsystem("q", 3, "qubit")

    def test_index_roundtrip_mixed_dims(self):
        layout = HilbertLayout((Subsystem("q"), Subsystem("m", 3, MODE),
                                Subsystem("r")))
        assert layout.dim == 12
        for i in range(layout.dim):
            assert layout.index_of(layout.assignment_of(i)) == i

    def test_row_major_subsystem_order(self):
        layout = HilbertLayout.qubits(["a", "b", "c"])
        # first subsystem is most significant
        assert layout.index_of([1, 0, 0]) == 4
        assert layout.index_of([0, 0, 1]) == 1


class TestTensor:
    def test_basis_composition(self):
        s = tensor([u("a"), u("b")])
        np.testing.assert_allclose(s.amplitudes, [1, 0, 0, 0])

    def test_linearity(self):
        a1, a2 = 0.6, 0.8
        s = tensor([qubit_state("a", a1, a2), u("b")])
        np.testing.assert_allclose(s.amplitudes, [a1, 0, a2, 0])

    def test_norm_preserved_fuzz(self):
        for _ in range(100):
            v1 = random_state(RNG, 2)
            v2 = random_state(RNG, 4)
            s1 = StateVector(HilbertLayout.qubits(["a"]), v1)
            s2 = StateVector(HilbertLayout.qubits(["b", "c"]), v2)
            out = tensor([s1, s2])
            # oracle: direct norm of the raw kron
            assert abs(np.linalg.norm(np.kron(v1, v2)) - out.norm()) < 1e-12
            assert abs(out.norm() - 1.0) < 1e-12

    def test_label_collision(self):
        with pytest.raises(LayoutError, match="duplicate"):
            tensor([u("a"), u("a")])


class TestPremeasurement:
    def test_single_branch_is_product(self):
        decomp = build_premeasurement(1.0, 0.0, [(u("D"), d("D")), (u("O"), d("O"))])
        assert len(decomp.branches) == 1
        expected = tensor([u("S"), u("D"), u("O")])
        np.testing.assert_allclose(decomp.state().amplitudes, expected.amplitudes)

    def test_ghz_form(self):
        # oracle: dense construction of (|000> + |111>)/sqrt(2)
        a = np.sqrt(0.5)
        decomp = build_premeasurement(a, a, [(u("D"), d("D")), (u("O"), d("O"))])
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = a
        np.testing.assert_allclose(decomp.state().amplitudes, ghz, atol=1e-15)

    def test_branches_orthogonal(self):
        decomp = build_premeasurement(0.6, 0.8, [(u("D"), d("D"))])
        (_, b1), (_, b2) = decomp.branches
        assert abs(b1.inner(b2)) == 0.0

    def test_bad_amplitudes(self):
        with pytest.raises(StateError, match=r"\|a1\|\^2"):
            build_premeasurement(1.0, 1.0, [(u("D"), d("D"))])

    def test_non_orthogonal_pointers(self):
        tilted = qubit_state("D", np.sqrt(0.5), np.sqrt(0.5))
        with pytest.raises(StateError, match="orthogonal"):
            build_premeasurement(0.6, 0.8, [(u("D"), tilted)])


class TestPartialTrace:
    def test_product_factorizes(self):
        sa = qubit_state("a", 0.6, 0.8j)
        sb = qubit_state("b", np.sqrt(0.5), np.sqrt(0.5))
        rho = tensor([sa, sb]).to_density()
        reduced = partial_trace(rho, ["a"])
        np.testing.assert_allclose(reduced.matrix, sa.to_density().matrix, atol=1e-14)

    def test_ghz_reduction(self):
        a = np.sqrt(0.5)
        decomp = build_premeasurement(a, a, [(u("D"), d("D")), (u("O"), d("O"))])
        rho = decomp.state().to_density()
        reduced = partial_trace(rho, ["S", "D"])
        # oracle: explicit-loop partial trace over the third qubit
        expected = loop_partial_trace(rho.matrix, (2, 2, 2), [0, 1])
        np.testing.assert_allclose(reduced.matrix, expected, atol=1e-14)
        # the remainder is the classically correlated pair
        half = np.zeros((4, 4))
        half[0, 0] = half[3, 3] = 0.5
        np.testing.assert_allclose(reduced.matrix, half, atol=1e-14)

    def test_trace_preserved(self):
        v = random_state(RNG, 8)
        rho = StateVector(HilbertLayout.qubits(["a", "b", "c"]), v).to_density()
        out = partial_trace(rho, ["b"])
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12

    def test_unknown_label(self):
        rho = u("a").to_density()
        with pytest.raises(LayoutError, match="unknown"):
            partial_trace(rho, ["nope"])

    def test_linear_and_trace_preserving_fuzz(self):
        layout = HilbertLayout.qubits(["a", "b", "c"])
        for _ in range(100):
            r1 = np.outer(random_state(RNG, 8), random_state(RNG, 8).conj())
            r2 = np.outer(random_state(RNG, 8), random_state(RNG, 8).conj())
            lam = float(RNG.uniform(-1, 1))
            lhs = partial_trace(DensityMatrix(layout, r1 + lam * r2), ["a", "c"]).matrix
            rhs = (partial_trace(DensityMatrix(layout, r1), ["a", "c"]).matrix
                   + lam * partial_trace(DensityMatrix(layout, r2), ["a", "c"]).matrix)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)
            assert abs(np.trace(lhs) - np.trace(r1 + lam * r2)) < 1e-12


class TestMixture:
    def test_single_branch_projector(self):
        s = tensor([qubit_state("a", 0.6, 0.8), u("b")])
        decomp = BranchDecomposition(s.layout, ((1.0, s),))
        np.testing.assert_allclose(mixture_of(decomp).matrix, s.to_density().matrix)

    def test_two_equal_branches(self):
        decomp = build_premeasurement(np.sqrt(0.5), np.sqrt(0.5), [(u("D"), d("D"))])
        rho = mixture_of(decomp)
        (_, b1), (_, b2) = decomp.branches
        expected = 0.5 * (b1.to_density().matrix + b2.to_density().matrix)
        np.testing.assert_allclose(rho.matrix, expected)

    def test_purity_below_one(self):
        # oracle: dense Tr(rho^2) against sum |a_i|^4
        a1, a2 = 0.6, 0.8
        decomp = build_premeasurement(a1, a2, [(u("D"), d("D"))])
        rho = mixture_of(decomp)
        purity = np.real(np.trace(rho.matrix @ rho.matrix))
        assert abs(purity - (a1 ** 4 + a2 ** 4)) < 1e-12
        assert purity < 1.0

    def test_rejects_non_orthogonal(self):
        s1 = qubit_state("a", 1.0, 0.0)
        s2 = qubit_state("a", np.sqrt(0.5), np.sqrt(0.5))
        bad = BranchDecomposition(s1.layout, ((np.sqrt(0.5), s1), (np.sqrt(0.5), s2)))
        with pytest.raises(StateError, match="orthogonal"):
            mixture_of(bad)

    def test_mixture_equals_projected_pure(self):
        # cross-check: sum_k P_k |psi><psi| P_k with the branch projectors
        from qmeaslab.sectors import SectorDecomposition, sector_decohere

        decomp = build_premeasurement(0.6, 0.8j, [(u("D"), d("D"))])
        psi = decomp.state()
        (_, b1), (_, b2) = decomp.branches
        # both branches are basis states: one sector each, the rest a third
        labels = np.full(psi.layout.dim, 2)
        labels[np.flatnonzero(b1.amplitudes)] = 0
        labels[np.flatnonzero(b2.amplitudes)] = 1
        sectors = SectorDecomposition(psi.layout, labels, ("P1", "P2", "rest"))
        projected = sector_decohere(psi.to_density(), sectors)
        np.testing.assert_allclose(projected.matrix, mixture_of(decomp).matrix,
                                   atol=1e-12)


class TestCanonicalSplit:
    def test_phase_goes_to_amplitude(self):
        layout = HilbertLayout.qubits(["a"])
        vec = np.array([0.6j, 0.8j])
        amp, state = canonical_split(layout, vec)
        assert state.amplitudes[0].real > 0
        assert abs(state.amplitudes[0].imag) < 1e-15
        np.testing.assert_allclose(amp * state.amplitudes, vec)

    def test_zero_vector_rejected(self):
        layout = HilbertLayout.qubits(["a"])
        with pytest.raises(StateError):
            canonical_split(layout, np.zeros(2))

    def test_gauged_rows_match_scalar_rule_bit_for_bit(self):
        # a row gauged inside a block is exactly the one-vector gauge (norm,
        # first component above 1e-9 * norm, its phase by scalar |z|), so a
        # batched cascade scan reproduces per-point runs to the last bit
        layout = HilbertLayout.qubits(["a", "b", "c", "d"])
        rows = RNG.normal(size=(6, 16)) + 1j * RNG.normal(size=(6, 16))
        rows[1, :5] = 0.0
        rows[2, 0] = 1e-13  # below the 1e-9 * norm threshold
        rows[3] *= 1e-6
        amps, units = _gauge_rows(rows, 1e-12)
        for row, amp, unit in zip(rows, amps, units):
            n = float(np.linalg.norm(row))
            idx = int(np.argmax(np.abs(row) > 1e-9 * n))
            phase = row[idx] / abs(row[idx])
            assert amp == complex(n * phase)
            assert np.array_equal(unit, row / (n * phase))
            split_amp, split_state = canonical_split(layout, row)
            assert split_amp == amp
            assert np.array_equal(split_state.amplitudes, unit)

    def test_any_zero_row_rejected(self):
        rows = np.ones((3, 4), dtype=complex)
        rows[1] = 0.0
        with pytest.raises(StateError, match="zero vector"):
            _gauge_rows(rows, 1e-12)


def test_basis_state_norm():
    layout = HilbertLayout.qubits(["a", "b"])
    s = basis_state(layout, [1, 0])
    assert s.norm() == 1.0
    assert s.amplitudes[2] == 1.0



def _array_holders():
    from qmeaslab.cascade import BranchConnector
    from qmeaslab.sectors import KronObservable, Projector, SectorDecomposition

    layout = HilbertLayout.qubits(["a", "b"])
    up, down = basis_state(layout, [0, 0]), basis_state(layout, [1, 1])
    sq = float(np.sqrt(0.5))
    return {
        "StateVector": lambda: StateVector(layout, up.amplitudes),
        "DensityMatrix": lambda: up.to_density(),
        "Projector": lambda: Projector(layout, [True, False, False, False]),
        "SectorDecomposition": lambda: SectorDecomposition(layout, [0, 1, 1, 1], ("a", "b")),
        "KronObservable": lambda: KronObservable(np.eye(2), [1.0, -1.0]),
        # these two hold the very same states each time, so they compare equal
        "BranchDecomposition": lambda: BranchDecomposition(layout, ((sq, up), (sq, down))),
        "BranchConnector": lambda: BranchConnector(up, down),
    }


@pytest.mark.parametrize("kind", list(_array_holders()))
def test_array_holders_compare_and_hash(kind):
    # a field-wise == over arrays is ambiguous: the array holders compare and
    # hash by identity, and the dataclasses holding them through it
    make = _array_holders()[kind]
    a, b = make(), make()
    same = kind in ("BranchDecomposition", "BranchConnector")
    assert a == a and hash(a) == hash(a)
    assert (a == b) is same
    assert len({a, a, b}) == (1 if same else 2) and a in {a}
