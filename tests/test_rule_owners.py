"""Each rule the paper's argument turns on has one definition, and every
site that needs it calls that one: the complete-flip test (chain), the
branch-decomposition checks (hilbert), the pointer-eigenvalue grouping
(sectors), sector preservation (sectors), the real part of an expectation
and the Hermitian check of a Pauli sum (pauli), the measured superposition
on a ready chain (chain), the models' measured pointer pair and unit-weight
rule (hilbert), and the photon and occupation rules of rd-basic
(radiation)."""

import math

import numpy as np
import pytest

from qmeaslab import chain, scenarios
from qmeaslab.cascade import CascadeModel, _record, initial_cascade_state
from qmeaslab.chain import (ChainModel, closed_form_final, final_branches, initial_state,
                            pointer_operator)
from qmeaslab.hilbert import (BranchDecomposition, HilbertLayout, StateError,
                              StateVector, basis_state)
from qmeaslab.pauli import (OperatorError, PauliString, PauliSum, expectation,
                            expectation_mixed)
from qmeaslab.radiation import RadiationModel, build_final_state
from qmeaslab.sectors import (KronObservable, ObservableSet, SectorDecomposition,
                              joint_sectors, op_expectation, op_expectation_mixed,
                              restricted_algebra)

SQ = math.sqrt(0.5)
# ch-basic at 2 atoms, 1e-12 degrees from the complete flip: inside the old
# scenario window, outside the pulse's window
MOTIVATION = "scenario: ch-basic\nn_atoms: 2\ntheta_deg: 90.0000000000009\n"


# ---------------------------------------------------------------------------
# the complete flip

@pytest.mark.parametrize("theta_deg, flip", [
    (90.0, True), (90.00000000000001, True), (89.99999999999999, True),
    (90.0000000000009, False), (89.9999999999991, False), (45.0, False),
])
def test_one_complete_flip_window(theta_deg, flip):
    # the pulse, the branch decomposition and the scenario agree on theta
    theta = math.radians(theta_deg)
    model = ChainModel(2, SQ, SQ, theta)
    assert chain._complete_flip(theta) is flip
    assert bool(closed_form_final(model).amplitudes[4] == 0.0) is flip
    if flip:
        assert len(final_branches(model).branches) == 2
    else:
        with pytest.raises(StateError, match="complete flip"):
            final_branches(model)
    report = scenarios.run(scenarios.parse_config(
        f"scenario: ch-basic\nn_atoms: 2\ntheta_deg: {theta_deg!r}\n"))
    assert report.extras["pointer_branches"] is flip
    assert ("b_mixed" in report.expectations) is flip


def test_final_branches_window_does_not_follow_tol():
    off = ChainModel(2, SQ, SQ, math.radians(90.0000000000009))
    for tol in (1e-14, 1e-12, 1e-6):
        with pytest.raises(StateError, match="complete flip"):
            final_branches(off, tol)


@pytest.mark.parametrize("tol", [1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-9, 1e-6,
                                 1e-3, 0.1, 0.5, 0.7, 0.7071, 0.71, 0.9, 1.0])
def test_motivation_config_runs_or_is_refused_at_config_time(tol):
    try:
        cfg = scenarios.parse_config(MOTIVATION + f"tolerance: {tol!r}\n")
    except scenarios.ConfigError as err:
        assert "tolerance" in str(err)
        return
    report = scenarios.run(cfg)
    assert scenarios.emit(report)
    assert report.extras["pointer_branches"] is False


# ---------------------------------------------------------------------------
# the branch-decomposition checks

def _layout():
    return HilbertLayout.qubits(["S0", "C1A1"])


def _decomposition(pairs):
    layout = _layout()
    return BranchDecomposition(layout, tuple((a, StateVector(layout, v)) for a, v in pairs))


def _validate_message(pairs, tol=1e-12):
    with pytest.raises(StateError) as err:
        _decomposition(pairs).validate(tol)
    return str(err.value)


def _record_message(state, plus, minus, tol=1e-12):
    # an empty target records nothing, so the branch pair is (plus, minus)
    with pytest.raises(StateError) as err:
        _record(StateVector(_layout(), state), plus, minus, (), tol)
    return str(err.value)


def test_orthogonality_message_through_both_sites():
    uu = basis_state(_layout(), [0, 0]).amplitudes
    via_validate = _validate_message([(SQ, uu), (SQ, uu)])
    via_record = _record_message(uu, 0.5 * uu, 0.5 * uu)
    assert via_validate == via_record == "branches not orthogonal (overlap 1.0)"


def test_weight_sum_message_through_both_sites():
    uu = basis_state(_layout(), [0, 0]).amplitudes
    du = basis_state(_layout(), [1, 0]).amplitudes
    a, b = 0.5, math.sqrt(0.75 + 1e-10)
    via_validate = _validate_message([(a, uu), (b, du)])
    via_record = _record_message(a * uu + b * du, a * uu, b * du)
    assert via_validate.startswith("branch weights sum to 1.0000000001")
    assert via_record.startswith("branch weights sum to 1.0000000001")
    assert via_validate.endswith(", not 1") and via_record.endswith(", not 1")


def test_no_branch_message_through_both_sites():
    uu = basis_state(_layout(), [0, 0]).amplitudes
    assert _validate_message([]) == "branch decomposition needs at least one branch"
    # at tolerance 0.9 both halves of |uu> are dropped
    assert (_record_message(uu, 0.5 * uu, 0.5 * uu, tol=0.9)
            == "branch decomposition needs at least one branch")


def test_unit_branch_rule():
    uu = basis_state(_layout(), [0, 0]).amplitudes
    du = basis_state(_layout(), [1, 0]).amplitudes
    assert _validate_message([(0.5, 2 * uu), (math.sqrt(0.75), du)]).startswith(
        "state norm 2.0 deviates from 1")


# ---------------------------------------------------------------------------
# the pointer-eigenvalue grouping

@pytest.mark.parametrize("n", range(1, 6))
def test_pointer_eigenvalue_grouping(n):
    layout = HilbertLayout.qubits(["S0"] + [f"A{i}" for i in range(1, n + 1)])
    sec = joint_sectors([pointer_operator(n)], layout)
    # descending eigenvalues (n - 2k)/n with binomial multiplicities
    assert sec.eigenvalues == pytest.approx([(n - 2 * k) / n for k in range(n + 1)])
    assert [p.rank for p in sec.projectors] == [2 * math.comb(n, k) for k in range(n + 1)]


# ---------------------------------------------------------------------------
# sector preservation

def test_projectors_and_restricted_algebra_agree_on_two_sectors():
    # P00 = |00><00| and its complement: X_a - X_a Z_b = 2 X_a |d><d|_b keeps
    # both sectors although neither of its terms does
    layout = HilbertLayout.qubits(["a", "b"])
    sec = SectorDecomposition(layout, [0, 1, 1, 1], ("P00", "rest"))
    xa, xb = PauliString.single("a", "X"), PauliString.single("b", "X")
    xa_zb = PauliString.from_map({"a": "X", "b": "Z"})
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    pool = ObservableSet("pool", (
        ("X_a - X_a Z_b", PauliSum.from_terms([(1.0, xa), (-1.0, xa_zb)])),
        ("X_a + X_b", PauliSum.from_terms([(1.0, xa), (1.0, xb)])),
        ("X_a", xa), ("Z_a Z_b", PauliString.from_map({"a": "Z", "b": "Z"})),
        ("dense diag", np.diag([1.0, 2.0, 2.0, 5.0]).astype(complex)),
        ("dense flip", np.kron(flip, np.eye(2))),
        ("kron X (x) |d><d|", KronObservable(flip, [0.0, 1.0])),
        ("kron X (x) |u><u|", KronObservable(flip, [1.0, 0.0])),
    ))
    kept = [name for name, _ in restricted_algebra(sec, pool).generators]
    by_projector = [name for name, op in pool.generators
                    if all(p.commutes_with(op) for p in sec.projectors)]
    assert kept == by_projector == ["X_a - X_a Z_b", "Z_a Z_b", "dense diag",
                                    "kron X (x) |d><d|"]


# ---------------------------------------------------------------------------
# the measured superposition on a ready chain

@pytest.mark.parametrize("sizes", [(1,), (3,), (2, 1), (1, 1, 1, 1)])
def test_chain_and_cascade_start_from_the_same_rows(sizes):
    a1, a2 = 0.6 * np.exp(0.3j), 0.8 * np.exp(-2.1j)
    single = initial_state(ChainModel(sum(sizes), a1, a2)).amplitudes
    cascade = initial_cascade_state(CascadeModel(sizes, a1, a2)).amplitudes
    assert single.tobytes() == cascade.tobytes()
    assert np.flatnonzero(single).tolist() == [0, single.size // 2]


# ---------------------------------------------------------------------------
# the measured pointer pair and the unit-weight rule

@pytest.mark.parametrize("a1, a2, kept", [
    (1.0, 1.0e-12, [0]),  # |a2| == tol: dropped
    (1.0, math.nextafter(1.0e-12, 1.0), [0, 1]),
    (1.0e-12, 1.0, [1]),
])
def test_chain_and_field_pointer_pairs_keep_and_gauge_alike(a1, a2, kept):
    tol = 1.0e-12
    pairs = (final_branches(ChainModel(3, a1, a2), tol),
             build_final_state(RadiationModel(a1, a2, photon_amplitudes=(((1,), 1.0),)), tol))
    for pair in pairs:
        assert len(pair.branches) == len(kept)
        for k, (amp, unit) in zip(kept, pair.branches):
            assert abs(amp) == (a1, a2)[k]
            assert unit.amplitudes[np.flatnonzero(unit.amplitudes)].tolist() == [1.0]


def test_models_share_the_weight_message():
    messages = []
    for make in (lambda: ChainModel(2, 0.6, 0.6), lambda: CascadeModel((1, 1), 0.6, 0.6),
                 lambda: RadiationModel(0.6, 0.6)):
        with pytest.raises(ValueError) as err:
            make()
        messages.append(str(err.value))
    assert messages == ["amplitudes must satisfy |a1|^2+|a2|^2=1, got 0.72"] * 3


# ---------------------------------------------------------------------------
# the real part of an expectation

def test_imaginary_part_messages():
    # each coefficient passes the Hermitian check at tolerance 0.1, and the
    # two terms add imaginary parts 0.09 + 0.09 on |uu>
    tol = 0.1
    layout = HilbertLayout.qubits(["a", "b"])
    uu = basis_state(layout, [0, 0])
    op = PauliSum.from_terms([(1 + 0.09j, PauliString.single(l, "Z")) for l in "ab"])
    dense = np.diag([1 + 0.18j, 0, 0, 0])
    kron = KronObservable(np.diag([1 + 0.18j, 0]), [1.0, 0.0])
    pure = BranchDecomposition(layout, ((1.0, uu),))
    calls = {
        "expectation": [lambda: expectation(op, uu, tol), lambda: op_expectation(op, uu, tol),
                        lambda: op_expectation(dense, uu, tol),
                        lambda: op_expectation(kron, uu, tol)],
        "trace expectation": [lambda: expectation_mixed(op, uu.to_density(), tol)],
        "mixture expectation": [lambda: op_expectation_mixed(q, pure, tol)
                                for q in (op, dense, kron)],
    }
    for prefix, sites in calls.items():
        for call in sites:
            with pytest.raises(OperatorError) as err:
                call()
            assert str(err.value) == f"{prefix} has imaginary part 0.18"


# ---------------------------------------------------------------------------
# the Hermitian check of a Pauli sum

def test_hermitian_messages():
    layout = HilbertLayout.qubits(["a", "b"])
    uu = basis_state(layout, [0, 0])
    op = PauliSum.from_terms([(1 + 0.5j, PauliString.single("a", "Z")),
                              (1.0, PauliString.single("b", "Z"))])
    pure = BranchDecomposition(layout, ((1.0, uu),))
    calls = {
        "operator": [lambda: expectation(op, uu),
                     lambda: expectation_mixed(op, uu.to_density()),
                     lambda: op_expectation_mixed(op, pure)],
        "pointer": [lambda: joint_sectors([op], layout)],
    }
    for noun, sites in calls.items():
        for call in sites:
            with pytest.raises(OperatorError) as err:
                call()
            assert str(err.value) == f"{noun} is not Hermitian: (1.0+0.5j)*Za + Zb"


# ---------------------------------------------------------------------------
# the photon and occupation rules of rd-basic

# the rd-basic refusals of test_scenarios.py whose rule the model owns, with
# the same inputs given to the model directly
@pytest.mark.parametrize("text, kwargs", [
    ("photons: [{pattern: [5], c: [1, 0]}]\n", {"photon_amplitudes": (((5,), 1.0),)}),
    ("background: [7]\n", {"background": (7,)}),
    ("photons: [{pattern: [0], c: [1, 0]}]\n", {"photon_amplitudes": (((0,), 1.0),)}),
    ("photons: [{pattern: [1], c: [0.6, 0]}]\n", {"photon_amplitudes": (((1,), 0.6),)}),
    ("photons: [{pattern: [1], c: [0.7071067811865476, 0]},"
     " {pattern: [1], c: [0.7071067811865476, 90]}]\n",
     {"photon_amplitudes": (((1,), SQ), ((1,), 1j * SQ))}),
    ("photons: [{pattern: [1, 0], c: [1, 0]}]\n", {"photon_amplitudes": (((1, 0), 1.0),)}),
    ("photons: []\n", {"photon_amplitudes": ()}),
])
def test_rd_basic_refusals_are_the_model_messages(text, kwargs):
    with pytest.raises(ValueError) as model_err:
        RadiationModel(**kwargs)
    with pytest.raises(scenarios.ConfigError) as config_err:
        scenarios.parse_config("scenario: rd-basic\n" + text)
    assert str(config_err.value) == str(model_err.value)


def test_at_least_one_photon_pattern_is_the_model_rule():
    # the model owns the rule and names the config path; the config layer
    # keeps only the list-type check
    with pytest.raises(ValueError) as model_err:
        RadiationModel(photon_amplitudes=())
    assert str(model_err.value) == "photons: at least one emission pattern is required"
    with pytest.raises(scenarios.ConfigError) as config_err:
        scenarios.parse_config("scenario: rd-basic\nphotons: []\n")
    assert str(config_err.value) == str(model_err.value)
    with pytest.raises(scenarios.ConfigError,
                       match=r"^photons: expected a list of \{pattern, c\} entries, got 3$"):
        scenarios.parse_config("scenario: rd-basic\nphotons: 3\n")
