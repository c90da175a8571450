from pathlib import Path

import numpy as np
import pytest
import yaml

from qmeaslab.chain import (ChainModel, final_branches, full_passage,
                            it_operator, pointer_operator)
from qmeaslab.hilbert import (BranchDecomposition, DensityMatrix, DimensionCapError,
                              HilbertLayout, StateError, StateVector, basis_state,
                              mixture_of)
from qmeaslab.hilbert import MODE, LayoutError, Subsystem
from qmeaslab.pauli import (OperatorError, PauliString, PauliSum, all_strings,
                            apply, expectation, expectation_mixed, hermitian_part,
                            string_matrix, _is_z_diagonal)
from qmeaslab.sectors import (ObservableSet, Projector, SectorDecomposition,
                              SectorError, chain_observable_preset,
                              discriminate, joint_sectors, restricted_algebra,
                              sector_decohere, structure_residual)
from qmeaslab import pauli, radiation, scenarios, sectors
from qmeaslab.sectors import (KronObservable, _block_deviations, _block_norms,
                              _closed_family, _cross_weights, _kron_deviations,
                              _kron_norms, _phase_pair, op_expectation,
                              op_expectation_mixed, op_sup_norm)

from oracles import dense_of, eigo_projectors, random_amplitude_pair, random_state
from oracles import (X, Z, block_expectations, dense_commutator, fsum_expect,
                     kron_expectations, three_expectation_deviation)

RNG = np.random.default_rng(2718)
SQ = np.sqrt(0.5)


def chain_layout(n):
    return HilbertLayout.qubits(["S0"] + [f"A{i}" for i in range(1, n + 1)])


class TestStructureResidual:
    def test_inside_joint_eigenspace(self):
        layout = chain_layout(1)
        mask = np.array([True, True, False, False])
        p = Projector(layout, mask)
        psi = basis_state(layout, [0, 1])
        assert structure_residual(psi, [p]) == 0.0

    def test_fully_rejected(self):
        layout = chain_layout(1)
        p = Projector(layout, np.array([True, False, False, False]))
        psi = basis_state(layout, [1, 1])
        assert structure_residual(psi, [p]) == 1.0

    def test_partial_rejection_is_a2(self):
        # R = P(+1) alone on the final state leaves residual |a2|
        a1, a2 = 0.6, 0.8j
        model = ChainModel(2, a1, a2)
        psi = full_passage(model)
        sectors = joint_sectors([pointer_operator(2)], model.layout)
        p_plus = sectors.projectors[0]
        assert abs(structure_residual(psi, [p_plus]) - abs(a2)) < 1e-12


class TestSectorDecomposition:
    def test_labels_partition_the_basis(self):
        layout = chain_layout(1)
        sec = SectorDecomposition(layout, [1, 0, 1, 1], ("P0", "P1"), (0.5, -0.5))
        assert [p.name for p in sec.projectors] == ["P0", "P1"]
        assert [p.rank for p in sec.projectors] == [1, 3]
        assert sec.projectors is sec.projectors
        np.testing.assert_array_equal(
            sum(p.mask.astype(int) for p in sec.projectors), np.ones(layout.dim))

    @pytest.mark.parametrize("labels, names, eigenvalues, match", [
        ([0, 0, 1], ("a", "b"), None, "labels length"),
        ([[0, 0], [1, 1]], ("a", "b"), None, "labels length"),
        ([0.0, 0.0, 1.0, 1.0], ("a", "b"), None, "integers"),
        ([True, False, True, False], ("a", "b"), None, "integers"),
        ([0, 1, 2, 1], ("a", "b"), None, r"0\.\.1"),
        ([0, -1, 0, 1], ("a", "b"), None, r"0\.\.1"),
        ([0, 0, 0, 0], (), None, r"0\.\.-1"),
        ([0, 1, 0, 1], ("a", "b"), (1.0,), "one eigenvalue per sector"),
    ])
    def test_constructor_refuses(self, labels, names, eigenvalues, match):
        with pytest.raises(SectorError, match=match):
            SectorDecomposition(chain_layout(1), labels, names, eigenvalues)


class TestPointerSectors:
    def test_mu_z_n1_two_rank2_sectors(self):
        layout = chain_layout(1)
        sec = joint_sectors([pointer_operator(1)], layout)
        assert sec.eigenvalues == (1.0, -1.0)
        assert [p.rank for p in sec.projectors] == [2, 2]
        # oracle: dense eigendecomposition
        oracle = eigo_projectors(dense_of(pointer_operator(1), layout))
        for (ov, om), p in zip(oracle, sec.projectors):
            np.testing.assert_allclose(p.to_matrix(), om, atol=1e-12)

    def test_identity_single_sector(self):
        layout = chain_layout(1)
        sec = joint_sectors([PauliSum.identity()], layout)
        assert len(sec.projectors) == 1
        assert sec.projectors[0].rank == layout.dim

    def test_mu_z_n2_three_sectors(self):
        layout = chain_layout(2)
        sec = joint_sectors([pointer_operator(2)], layout)
        assert sec.eigenvalues == (1.0, 0.0, -1.0)
        oracle = eigo_projectors(dense_of(pointer_operator(2), layout))
        assert len(oracle) == 3
        for (ov, om), p, v in zip(oracle, sec.projectors, sec.eigenvalues):
            assert abs(ov - v) < 1e-12
            np.testing.assert_allclose(p.to_matrix(), om, atol=1e-12)

    def test_non_diagonal_pointer_refused(self):
        layout = HilbertLayout.qubits(["q"])
        x = PauliSum.from_string(PauliString.single("q", "X"))
        with pytest.raises(SectorError, match="Z-diagonal"):
            joint_sectors([x], layout)

    def test_non_hermitian_pointer_refused(self):
        layout = chain_layout(1)
        z0 = PauliSum.from_string(PauliString.single("S0", "Z"))
        iz = PauliSum.from_string(PauliString.single("A1", "Z"), 1j)
        with pytest.raises(OperatorError, match="not Hermitian"):
            joint_sectors([z0, iz], layout)


class TestSectorDecohere:
    def test_block_diagonal_fixed_point(self):
        layout = chain_layout(1)
        sec = joint_sectors([pointer_operator(1)], layout)
        rho = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
        out = sector_decohere(DensityMatrix(layout, rho), sec)
        np.testing.assert_allclose(out.matrix, rho)

    def test_final_state_decoheres_to_mixture(self):
        # oracle: dense P rho P sum against the branch mixture
        a1, a2 = random_amplitude_pair(RNG)
        model = ChainModel(2, a1, a2)
        psi = full_passage(model)
        sec = joint_sectors([pointer_operator(2)], model.layout)
        out = sector_decohere(psi.to_density(), sec)
        mix = mixture_of(final_branches(model))
        np.testing.assert_allclose(out.matrix, mix.matrix, atol=1e-12)
        dense = sum(p.to_matrix() @ psi.to_density().matrix @ p.to_matrix()
                    for p in sec.projectors)
        np.testing.assert_allclose(out.matrix, dense, atol=1e-12)

    def test_purity_never_increases(self):
        layout = chain_layout(1)
        sec = joint_sectors([pointer_operator(1)], layout)
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
        sec = joint_sectors([pointer_operator(2)], layout)
        v = random_state(RNG, 8)
        rho = DensityMatrix(layout, np.outer(v, v.conj()))
        once = sector_decohere(rho, sec)
        twice = sector_decohere(once, sec)
        np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-13)

    def test_trace_preserved(self):
        layout = chain_layout(2)
        sec = joint_sectors([pointer_operator(2)], layout)
        v = random_state(RNG, 8)
        out = sector_decohere(DensityMatrix(layout, np.outer(v, v.conj())), sec)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_equals_projector_sum_exactly(self, n):
        layout = chain_layout(n)
        z0 = PauliSum.from_string(PauliString.single("S0", "Z"))
        sec = joint_sectors([z0, pointer_operator(n)], layout)
        v, w = random_state(RNG, layout.dim), random_state(RNG, layout.dim)
        rho = DensityMatrix(layout, 0.6 * np.outer(v, v.conj())
                            + 0.4 * np.outer(w, w.conj()))
        dense = sum(p.to_matrix() @ rho.matrix @ p.to_matrix() for p in sec.projectors)
        np.testing.assert_array_equal(sector_decohere(rho, sec).matrix, dense)


class TestRestrictedAlgebra:
    def test_mask_commutation_beyond_termwise(self):
        # P = |00><00|: X_a - X_a Z_b = 2 X_a |1><1|_b annihilates |00> and
        # its image, so it commutes with P although neither term does
        layout = HilbertLayout.qubits(["a", "b"])
        p = Projector(layout, [True, False, False, False])
        xa = PauliString.single("a", "X")
        xa_zb = PauliString.from_map({"a": "X", "b": "Z"})
        assert not p.commutes_with(xa) and not p.commutes_with(xa_zb)
        assert p.commutes_with(PauliSum.from_terms([(1.0, xa), (-1.0, xa_zb)]))
        xb = PauliString.single("b", "X")
        assert not p.commutes_with(PauliSum.from_terms([(1.0, xa), (1.0, xb)]))

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_keeps_exactly_the_mask_preserving_strings(self, n):
        # one label test per flip pattern against one permutation test per
        # (string, projector) pair, and against the dense commutator
        sec = self._sectors(n)
        pool = chain_observable_preset("all_strings", n)
        want = [name for name, op in pool.generators
                if all(p.commutes_with(op.terms[0][1]) for p in sec.projectors)]
        kept = restricted_algebra(sec, pool)
        assert [name for name, _ in kept.generators] == want
        assert len(want) == 2 ** (n + 1)
        if n <= 2:
            masks = _dense_masks(sec)
            assert want == [name for name, op in pool.generators
                            if _dense_commutes(masks, dense_of(op, sec.layout))]

    def test_mixed_pool_takes_the_projector_path(self):
        layout = HilbertLayout.qubits(["a", "b"])
        sec = SectorDecomposition(layout, [0, 1, 1, 1], ("P00", "rest"))
        xa = PauliString.single("a", "X")
        xa_zb = PauliString.from_map({"a": "X", "b": "Z"})
        xb = PauliString.single("b", "X")
        za_zb = PauliString.from_map({"a": "Z", "b": "Z"})
        herm = random_state(np.random.default_rng(7), 16).reshape(4, 4)
        pool = ObservableSet("mixed", (
            ("X_a - X_a Z_b", PauliSum.from_terms([(1.0, xa), (-1.0, xa_zb)])),
            ("X_a + X_b", PauliSum.from_terms([(1.0, xa), (1.0, xb)])),
            ("Z_a + Z_a Z_b", PauliSum.from_terms([(1.0, PauliString.single("a", "Z")),
                                                   (1.0, za_zb)])),
            ("zero", PauliSum.zero()),
            ("dense diagonal", np.diag([1.0, 2.0, 2.0, 3.0]).astype(complex)),
            ("dense random", herm + herm.conj().T),
            ("kron Z (x) diag", KronObservable(Z, [1.0, -2.0])),
            ("kron X (x) |1><1|", KronObservable(X, [0.0, 1.0])),
            ("kron X (x) |0><0|", KronObservable(X, [1.0, 0.0])),
        ))
        kept = [name for name, _ in restricted_algebra(sec, pool).generators]
        masks = _dense_masks(sec)
        assert kept == [name for name, op in pool.generators
                        if _dense_commutes(masks, _dense(op, layout))]
        assert kept == ["X_a - X_a Z_b", "Z_a + Z_a Z_b", "zero", "dense diagonal",
                        "kron Z (x) diag", "kron X (x) |1><1|"]
        assert restricted_algebra(sec, pool).closure_depth == pool.closure_depth

    def test_qubit_before_a_mode_flips_by_its_stride(self):
        # the qubit's flip stride is the mode's dim 3, not a power of two;
        # sector 1 is the qubit's |d> with the mode excited
        layout = HilbertLayout((Subsystem("q"), Subsystem("m", 3, MODE)))
        sec = SectorDecomposition(layout, [0, 0, 0, 0, 1, 1], ("rest", "d, excited"))
        xq, zq = PauliString.single("q", "X"), PauliString.single("q", "Z")
        connector = np.zeros((6, 6), dtype=complex)
        connector[0, 1] = connector[1, 0] = 1.0  # |u,0><u,1| + h.c.
        pool = ObservableSet("mode", (
            ("I", PauliString.identity()), ("X_q", xq), ("Y_q", PauliString.single("q", "Y")),
            ("Z_q", zq), ("X_q + Z_q", PauliSum.from_terms([(1.0, xq), (1.0, zq)])),
            ("kron X (x) |0><0|", KronObservable(X, [1.0, 0.0, 0.0])),
            ("kron X (x) n", KronObservable(X, [0.0, 1.0, 2.0])),
            ("dense connector", connector),
        ))
        kept = [name for name, _ in restricted_algebra(sec, pool).generators]
        masks = _dense_masks(sec)
        assert kept == [name for name, op in pool.generators
                        if _dense_commutes(masks, _dense(op, layout))]
        assert kept == ["I", "Z_q", "kron X (x) |0><0|", "dense connector"]

    def test_support_is_checked_on_every_letter(self):
        # a Z letter flips nothing, yet its label must be a qubit of the layout
        layout = HilbertLayout((Subsystem("q"), Subsystem("m", 3, MODE)))
        sec = SectorDecomposition(layout, [0, 0, 0, 0, 1, 1], ("rest", "d, excited"))
        zq = ("Z_q", PauliString.single("q", "Z"))
        with pytest.raises(LayoutError, match="unknown label 'x'"):
            restricted_algebra(sec, ObservableSet("pool", (
                zq, ("Z_x", PauliString.single("x", "Z")))))
        with pytest.raises(OperatorError, match="qubit operator on non-qubit subsystem 'm'"):
            restricted_algebra(sec, ObservableSet("pool", (
                zq, ("Z_q Z_m", PauliString.from_map({"q": "Z", "m": "Z"})))))


def _dense_masks(sec):
    return [np.diag((sec.labels == k).astype(complex)) for k in range(len(sec.names))]


def _dense(op, layout):
    if isinstance(op, KronObservable):
        return np.kron(op.system, np.diag(op.field))
    if isinstance(op, PauliSum):
        return dense_of(op, layout)
    return np.asarray(op)


def _dense_commutes(masks, mat, tol=1e-12):
    return all(np.linalg.norm(dense_commutator(m, mat)) <= tol for m in masks)


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


GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = yaml.safe_load((GOLDEN / "corpus.yaml").read_text())


def _term_images(op, layout, v):
    """One row per term of op: c P v for a Pauli sum's terms c P (each P
    exact: a permutation and a phase), M_ij v_j (row j) for a dense M."""
    if isinstance(op, PauliSum):
        return np.stack([c * apply(s, StateVector(layout, v)).amplitudes for c, s in op.terms])
    return (op * v[None, :]).T


def _member_deviations(family, layout, tol, expect_stack, expect_pairs, expect_one):
    """|deviation| / ||Q|| of every family member in family order, 0.0 where
    ||Q|| <= tol: `expect_stack()` gives the stacked members' deviations,
    `expect_pairs()` the two-index members', `expect_one(op)` one other
    member's."""
    devs = np.zeros(len(family.at) + len(family.pair_at) + len(family.other))
    for at, norm_of, expect in (
            (family.at, lambda: _kron_norms(family.systems, family.field, family.sid),
             expect_stack),
            (family.pair_at, lambda: _block_norms(family.blocks), expect_pairs)):
        if at.size:
            norms = norm_of()
            devs[at] = np.divide(np.abs(expect()), norms,
                                 out=np.zeros(norms.shape), where=norms > tol)
    for k, op in family.other.items():
        norm = op_sup_norm(op, layout)
        if norm > tol:
            devs[k] = abs(expect_one(op)) / norm
    return devs


@pytest.mark.parametrize("name", CORPUS)
def test_phase_pair_matches_the_three_expectation_route(name, monkeypatch):
    # every member of every family the golden config discriminates: the
    # phase pair's (<Q>_psi+ - <Q>_psi-) / 2 against the oracle's three
    # expectations at pure = a1 chi1 + a2 chi2, the unstacked members' summed
    # exactly (a 56-term pointer square rounds its image apart by 1.2e-15
    # between the states)
    # (discriminate and rd-basic's two verdicts both sweep through
    # _prefix_verdicts, each prefix over the members of its generators)
    calls, kernel = [], sectors._prefix_verdicts

    def spy(pure, branches, allowed, prefixes, tol):
        verdicts = kernel(pure, branches, allowed, prefixes, tol)
        calls.append((branches, allowed, prefixes, tol, verdicts))
        return verdicts

    monkeypatch.setattr(sectors, "_prefix_verdicts", spy)
    scenarios.run(scenarios.parse_config(CORPUS[name]))
    for branches, allowed, prefixes, tol, verdicts in calls:
        layout = branches.layout
        family = _closed_family(allowed, layout)
        pair = _phase_pair(branches)
        got = _member_deviations(
            family, layout, tol,
            lambda: _kron_deviations(family.systems, family.field, branches, family.sid),
            lambda: _block_deviations(family.blocks, family.index, branches),
            lambda op: 0.5 * (op_expectation(op, pair[0], tol=np.inf)
                              - op_expectation(op, pair[1], tol=np.inf)))
        g = len(allowed)
        for n, verdict in zip(prefixes, verdicts, strict=True):
            members = np.concatenate([np.arange(g) < n, family.j < n])
            assert verdict.max_deviation == np.max(got[members])
        psi = branches.state().amplitudes
        want = _member_deviations(
            family, layout, tol,
            lambda: three_expectation_deviation(
                lambda v: kron_expectations(v, family.system, family.field), psi,
                branches).real,
            lambda: three_expectation_deviation(
                lambda v: block_expectations(v, family.blocks, family.index), psi,
                branches).real,
            lambda op: three_expectation_deviation(
                lambda v: fsum_expect(v, _term_images(op, layout, v)), psi, branches))
        assert np.max(np.abs(got - want)) <= 1e-15


def test_stacked_phase_pair_matches_the_three_expectation_route_off_the_blind_family():
    # the corpus's stacked families are all blind (every deviation 0.0):
    # random orthogonal branches on a radiation layout make them see the
    # coherence
    rng = np.random.default_rng(31)
    model = radiation.RadiationModel(modes=2, cutoff=3, photon_amplitudes=(
        ((1, 0), SQ), ((0, 2), SQ)))
    dim = model.layout.dim
    family = _closed_family(radiation.glauber_generators(model), model.layout)
    norms = _kron_norms(family.systems, family.field, family.sid)
    seen = norms > 1e-12
    for _ in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2)))
        a1, a2 = random_amplitude_pair(rng)
        branches = BranchDecomposition(model.layout, (
            (a1, StateVector(model.layout, q[:, 0])), (a2, StateVector(model.layout, q[:, 1]))))
        got = _kron_deviations(family.systems, family.field, branches, family.sid)
        want = np.abs(three_expectation_deviation(
            lambda v: kron_expectations(v, family.system, family.field),
            branches.state().amplitudes, branches).real)
        got, want = got[seen] / norms[seen], want[seen] / norms[seen]
        assert np.max(want) > 0.01
        assert np.max(np.abs(got - want)) <= 1e-15


# ---------------------------------------------------------------------------
# a prefix verdict is the verdict of the leading generators alone

def _bits(verdicts):
    return [(v.max_deviation.hex(), v.witness_name) for v in verdicts]


@pytest.mark.parametrize("name", [n for n, text in CORPUS.items() if "rd-basic" in text])
def test_prefix_verdicts_are_the_standalone_verdicts_on_the_corpus(name):
    # rd-basic reads the Glauber verdict off the augmented family's sweep
    config = scenarios.parse_config(CORPUS[name])
    tol = config.tolerance
    model = scenarios._radiation_model(config.params)
    decomp = radiation.build_final_state(model, tol)
    glauber = radiation.glauber_generators(model)
    augmented = radiation.with_vacuum_connector(model, glauber)
    got = sectors._prefix_verdicts(decomp.state(), decomp, augmented,
                                   (len(glauber), len(augmented)), tol)
    want = [discriminate(decomp.state(), decomp, s, tol) for s in (glauber, augmented)]
    assert _bits(got) == _bits(want)


def _tied_kron_set(rng, s, f, g):
    """g random factored generators and a copy of each with its diagonal
    doubled, shuffled: every normalized deviation is reached twice, exactly,
    so the first-witness rule picks one of the two."""
    gens = []
    for k in range(g):
        a = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
        op = KronObservable(0.5 * (a + a.conj().T), rng.normal(size=f))
        gens += [(f"G{k}", op), (f"G{k}'", KronObservable(op.system, 2.0 * op.field))]
    return ObservableSet("tied", tuple(gens[k] for k in rng.permutation(2 * g)))


def test_prefix_verdicts_are_the_standalone_verdicts_on_random_kron_sets():
    rng = np.random.default_rng(1414)
    apart = 0
    for _ in range(60):
        s, f, g = (int(rng.integers(lo, hi)) for lo, hi in ((2, 5), (2, 6), (1, 5)))
        layout = HilbertLayout((Subsystem("s", s, MODE), Subsystem("f", f, MODE)))
        q, _ = np.linalg.qr(rng.normal(size=(s * f, 2)) + 1j * rng.normal(size=(s * f, 2)))
        a1, a2 = random_amplitude_pair(rng)
        branches = BranchDecomposition(layout, ((a1, StateVector(layout, q[:, 0])),
                                                (a2, StateVector(layout, q[:, 1]))))
        pure = branches.state()
        allowed = _tied_kron_set(rng, s, f, g)
        n = int(rng.integers(1, 2 * g + 1))
        got = sectors._prefix_verdicts(pure, branches, allowed, (n, 2 * g))
        want = [discriminate(pure, branches, ObservableSet("prefix", allowed.generators[:n])),
                discriminate(pure, branches, allowed)]
        assert want[0].distinguishable
        assert _bits(got) == _bits(want)
        apart += _bits(want[:1]) != _bits(want[1:])
    assert apart >= 10  # prefixes whose verdict is not the whole set's


@pytest.mark.parametrize("dim", [2, 5, 16])
def test_phase_pair_mixes_to_the_branch_mixture(dim):
    for _ in range(20):
        q, _ = np.linalg.qr(RNG.normal(size=(dim, 2)) + 1j * RNG.normal(size=(dim, 2)))
        a1, a2 = random_amplitude_pair(RNG)
        layout = HilbertLayout((Subsystem("m", dim, MODE),))
        branches = BranchDecomposition(layout, (
            (a1, StateVector(layout, q[:, 0])), (a2, StateVector(layout, q[:, 1]))))
        plus, minus = (v.amplitudes for v in _phase_pair(branches))
        even = 0.5 * (np.outer(plus, plus.conj()) + np.outer(minus, minus.conj()))
        assert np.max(np.abs(even - mixture_of(branches).matrix)) <= 1e-15


def _diagonal_sum(rng, labels):
    """A random real combination of 1-4 random {I,Z} strings over `labels`."""
    return PauliSum.from_terms(
        (rng.normal(), PauliString.from_map({l: "Z" for l in labels if rng.random() < 0.5}))
        for _ in range(rng.integers(1, 5)))


def _one_member(op):
    return ObservableSet("q", (("q", op),), closure_depth=1)


DIAGONAL_LAYOUTS = [
    HilbertLayout.qubits(["q0"]),
    HilbertLayout.qubits([f"q{i}" for i in range(6)]),
    HilbertLayout((Subsystem("q0"), Subsystem("m", 3, MODE), Subsystem("q1"), Subsystem("q2"))),
]


@pytest.mark.parametrize("layout", DIAGONAL_LAYOUTS, ids=lambda l: f"dim{l.dim}")
def test_diagonal_members_match_the_expectation_routes_off_the_blind_family(layout):
    # the diagonal route |d . w| / max|d| against the oracle's three exactly
    # summed expectations and against the two op_expectation calls it replaced,
    # for random {I,Z} sums and every member of their closure
    rng = np.random.default_rng(7 + layout.dim)
    qubits = [l for l in layout.labels if l != "m"]
    worst = 0.0
    for _ in range(6):
        raw = rng.normal(size=(2, layout.dim, 2))
        q, _ = np.linalg.qr(raw[0] + 1j * raw[1])
        a1, a2 = random_amplitude_pair(rng)
        branches = BranchDecomposition(layout, (
            (a1, StateVector(layout, q[:, 0])), (a2, StateVector(layout, q[:, 1]))))
        pure = branches.state()
        plus, minus = _phase_pair(branches)
        gens = [_diagonal_sum(rng, qubits) for _ in range(2)]
        members = gens + [hermitian_part(a @ b) for k, a in enumerate(gens) for b in gens[k:]]
        devs = []
        for op in members:
            norm = float(np.linalg.norm(dense_of(op, layout), ord=2))
            got = discriminate(pure, branches, _one_member(op)).max_deviation
            old = 0.5 * abs(op_expectation(op, plus, tol=np.inf)
                            - op_expectation(op, minus, tol=np.inf)) / op_sup_norm(op, layout)
            want = abs(three_expectation_deviation(
                lambda v: fsum_expect(v, _term_images(op, layout, v)),
                pure.amplitudes, branches)) / norm
            assert abs(got - old) <= 1e-15 and abs(got - want) <= 1e-15
            devs.append(got)
        closed = ObservableSet("pair", (("g0", gens[0]), ("g1", gens[1])))
        assert discriminate(pure, branches, closed).max_deviation == max(devs)
        worst = max(worst, max(devs))
    assert worst > 0.01


@pytest.mark.parametrize("n", range(1, 14))
def test_diagonal_members_read_exactly_zero_at_the_complete_flip(n):
    # the branches |u..u> and |d..d> have disjoint supports, so the cross
    # weights vanish element by element and no cancellation is needed
    model = ChainModel(n, *random_amplitude_pair(RNG))
    psi, branches = full_passage(model), final_branches(model)
    assert not np.any(_cross_weights(branches))
    for name, diagonal in (("pointer_only", 2), ("with_B", 4)):
        preset = chain_observable_preset(name, n)
        members = [op for op in _closed_family(preset, model.layout).other.values()
                   if _is_z_diagonal(op)]
        # mu_z and herm(mu_z*mu_z); with B also herm(mu_z*B) = 0 and herm(B*B) = I
        assert len(members) == diagonal
        for op in members:
            assert discriminate(psi, branches, _one_member(op)).max_deviation == 0.0
    verdict = discriminate(psi, branches, chain_observable_preset("pointer_only", n))
    assert verdict.max_deviation == 0.0


def test_pointer_square_diagonal_is_built_once_per_discriminate(monkeypatch):
    # one discriminate(pointer_only) at N = 11 builds each diagonal member's
    # diagonal once, and no string action: a norm and two phase-pair
    # expectations of their own would build herm(mu_z*mu_z) three times
    n = 11
    model = ChainModel(n, np.sqrt(0.3), np.sqrt(0.7))
    psi, branches = full_passage(model), final_branches(model)
    preset = chain_observable_preset("pointer_only", n)
    built, actions = [], []
    diagonal_values, string_action = pauli._diagonal_values, pauli._string_action

    def count_diagonal(op, layout):
        built.append(op)
        return diagonal_values(op, layout)

    def count_action(op, layout):
        actions.append(op)
        return string_action(op, layout)

    for module in (pauli, sectors):
        monkeypatch.setattr(module, "_diagonal_values", count_diagonal)
    monkeypatch.setattr(pauli, "_string_action", count_action)
    discriminate(psi, branches, preset)
    mu = pointer_operator(n)
    assert built.count(hermitian_part(mu @ mu)) == 1
    assert len(built) == 2 and actions == []


class TestDiscriminateRefusals:
    def test_pure_that_is_not_the_branch_superposition(self):
        a1, a2 = np.sqrt(0.7), np.sqrt(0.3)
        branches = final_branches(ChainModel(2, a1, a2))
        swapped = full_passage(ChainModel(2, a2, a1))
        with pytest.raises(StateError, match="not its branches' superposition"):
            discriminate(swapped, branches, chain_observable_preset("with_B", 2))

    def test_more_than_two_branches(self):
        layout = chain_layout(2)
        third = np.sqrt(1 / 3)
        branches = BranchDecomposition(layout, tuple(
            (third, basis_state(layout, bits)) for bits in ([0, 0, 0], [0, 1, 0], [1, 1, 1])))
        allowed = chain_observable_preset("pointer_only", 2)
        for call in (lambda: discriminate(branches.state(), branches, allowed),
                     lambda: op_expectation_mixed(allowed.generators[0][1], branches)):
            with pytest.raises(StateError, match="mixture of 3 branches"):
                call()


def test_factored_candidate_refused_before_any_dense_realization(monkeypatch):
    def refuse(self):
        raise AssertionError("dense KronObservable built")

    monkeypatch.setattr(KronObservable, "matrix", refuse)
    layout = HilbertLayout.qubits([f"q{i}" for i in range(7)])
    sec = SectorDecomposition(layout, np.arange(layout.dim) % 2, ("even", "odd"))
    pool = ObservableSet("pool", (("kron", KronObservable(X, np.ones(64))),))
    with pytest.raises(DimensionCapError, match="dim 128"):
        restricted_algebra(sec, pool)


class TestValidate:
    """ObservableSet.validate checks the factored generators in one stacked
    call and still names the first non-Hermitian generator in order."""

    F = np.array([0.0, 1.0, 2.0])
    SKEW = np.triu(np.ones((4, 4)))
    GOOD = {
        "kron": KronObservable(np.kron(X, Z), F),
        "dense": np.kron(np.kron(X, Z), np.diag(F)),
        "pauli": PauliSum.from_string(PauliString.single("a", "X")),
        # ||S - S^H|| ||f|| = 0: a zero field makes any S Hermitian
        "zero-field kron": KronObservable(SKEW, np.zeros(3)),
    }
    BAD = {
        "bad kron": KronObservable(SKEW, F),
        "bad dense": np.kron(SKEW, np.diag(F)),
        "bad pauli": PauliSum.from_terms([(1j, PauliString.single("a", "X"))]),
    }

    @pytest.mark.parametrize("order", [
        ["kron", "dense", "bad kron", "pauli", "bad dense", "bad pauli"],
        ["pauli", "kron", "bad dense", "bad kron", "bad pauli"],
        ["zero-field kron", "bad pauli", "bad kron", "dense"],
        ["dense", "zero-field kron", "kron", "bad kron"],
    ])
    def test_names_the_first_non_hermitian_generator(self, order):
        ops = {**self.GOOD, **self.BAD}
        first = next(name for name in order if name in self.BAD)
        with pytest.raises(OperatorError) as err:
            ObservableSet("mixed", tuple((name, ops[name]) for name in order)).validate()
        assert str(err.value) == f"generator {first!r} is not Hermitian"

    def test_hermitian_generators_pass(self):
        allowed = ObservableSet("mixed", tuple(self.GOOD.items()))
        assert allowed.validate() is allowed
        assert ObservableSet("empty", ()).validate().generators == ()


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

    def test_sector_preserving_builds_no_dense_projector(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"dense projector {self.name} built")

        monkeypatch.setattr(Projector, "to_matrix", refuse)
        pool = chain_observable_preset("sector_preserving", 5)
        assert len(pool) == 2 ** 6

