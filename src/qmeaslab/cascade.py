"""Multi-chain selfmeasurement cascades.

Every stage records one involution on a fresh chain: identity on its +1
eigenspace, the chain's complete flip on its -1 eigenspace.  Stage 1
records Z_S0 (chain 1's pointer passage), stage 2 records the interference
term B of (S0, chain 1), and stage k >= 3 records the joint IT operator of
stage k-1.  The terminal joint IT operator, with no chain left to record
it, is the unmeasurable witness; its expectation separates the final
superposition from the branch mixture.

The stage kernel has a leading scan axis: it records a block of cascades,
one per row of a `(points, dim)` amplitude array, in one call per stage;
a row whose stage leaves a single branch is masked to record nothing at
the later stages.  `run_cascade` is its one-row case, and every block
starts from `chain._ready_rows`.  `scan_terminal_deviation` runs a whole
a2 scan through it in blocks of at most `SCAN_BLOCK_AMPLITUDES` amplitudes
per array, so m stage calls per block replace one cascade run per point
(at dim 2^14 a block is one point).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .chain import SYSTEM_LABEL, _ready_rows, it_operator, pointer_operator
from .hilbert import (DEFAULT_TOL, BranchDecomposition, DensityMatrix,
                      HilbertLayout, StateError, StateVector, _check_branch_rows,
                      _check_unit_rows, _check_weights, _gauge_rows, _row_norms,
                      check_dense_dim)
from .pauli import (OperatorError, PauliString, PauliSum, _apply_rows,
                    _apply_sum_rows, apply, expectation)

_Z_SYSTEM = PauliSum.from_string(PauliString.single(SYSTEM_LABEL, "Z"))

# amplitudes per array in one block of a batched scan: bounds its memory
SCAN_BLOCK_AMPLITUDES = 2 ** 12


@dataclass(frozen=True)
class CascadeModel:
    """System qubit S0 plus m chains (sizes per chain, default 1 each)."""

    chains: tuple[int, ...] = (1, 1)
    a1: complex = complex(np.sqrt(0.5))
    a2: complex = complex(np.sqrt(0.5))

    def __post_init__(self):
        object.__setattr__(self, "chains", tuple(int(n) for n in self.chains))
        if not self.chains or any(n < 1 for n in self.chains):
            raise ValueError(f"chain sizes must be >= 1, got {self.chains}")
        _check_weights(self.a1, self.a2)

    @property
    def m(self) -> int:
        return len(self.chains)

    def chain_atoms(self, k: int) -> tuple[str, ...]:
        """Labels of chain k (1-based)."""
        n = self.chains[k - 1]
        return tuple(f"C{k}A{i}" for i in range(1, n + 1))

    @property
    def observer_labels(self) -> tuple[str, ...]:
        labels: list[str] = []
        for k in range(1, self.m + 1):
            labels.extend(self.chain_atoms(k))
        return tuple(labels)

    @cached_property
    def layout(self) -> HilbertLayout:
        # built once per model, so its flip tables are shared by every state
        return HilbertLayout.qubits((SYSTEM_LABEL,) + self.observer_labels)


def _connector_expectation(chi1: np.ndarray, chi2: np.ndarray,
                           rows: np.ndarray) -> np.ndarray:
    """<v|T|v> for T = |chi1><chi2| + |chi2><chi1| and every row v of
    `rows` (chi1, chi2 row by row alongside, or single vectors)."""
    c1 = np.vecdot(chi2, rows)[..., None]
    c2 = np.vecdot(chi1, rows)[..., None]
    return np.real(np.vecdot(rows, c1 * chi1 + c2 * chi2))


@dataclass(frozen=True)
class BranchConnector:
    """The rank-2 Hermitian |chi1><chi2| + |chi2><chi1| connecting an
    orthogonal branch pair; applied through inner products, so it never
    needs a dense realization."""

    chi1: StateVector
    chi2: StateVector

    def __post_init__(self):
        if self.chi1.layout.labels != self.chi2.layout.labels:
            raise StateError("connector branches live on different layouts")

    @property
    def layout(self) -> HilbertLayout:
        return self.chi1.layout

    def expectation(self, state: StateVector) -> float:
        return float(_connector_expectation(self.chi1.amplitudes, self.chi2.amplitudes,
                                            state.amplitudes))

    def expectation_mixed(self, rho: DensityMatrix) -> float:
        v = self.chi2.amplitudes.conj() @ rho.matrix @ self.chi1.amplitudes
        return float(2.0 * np.real(v))

    def to_matrix(self) -> np.ndarray:
        check_dense_dim(self.layout, "connector")
        k = np.outer(self.chi1.amplitudes, self.chi2.amplitudes.conj())
        return k + k.conj().T

    def support(self, tol: float = DEFAULT_TOL) -> tuple[str, ...]:
        """Qubit labels the operator acts on nontrivially.

        A label is trivial iff the commutators with X and Z there vanish.
        For a Hermitian involution A, ||[T, A]||_F^2 = 2 tr(T^2) - 2 tr(TATA)
        = 4 (Re s^2 + n1 n2 - Re u^2 - v w) with s = <chi1|chi2>,
        n_i = <chi_i|chi_i>, u = <chi1|A|chi2>, v = <chi1|A|chi1> and
        w = <chi2|A|chi2>: five inner products, no dense matrices.
        """
        c1, c2 = self.chi1.amplitudes, self.chi2.amplitudes
        s = np.vdot(c1, c2)
        t_sq = np.real(s * s) + np.vdot(c1, c1).real * np.vdot(c2, c2).real
        labels = []
        for sub in self.layout.subsystems:
            for letter in ("X", "Z"):
                op = PauliString.single(sub.label, letter)
                a1 = apply(op, self.chi1).amplitudes
                a2 = apply(op, self.chi2).amplitudes
                u = np.vdot(c1, a2)
                v, w = np.vdot(c1, a1).real, np.vdot(c2, a2).real
                if 4.0 * (t_sq - np.real(u * u) - v * w) > tol:
                    labels.append(sub.label)
                    break
        return tuple(labels)


def joint_it_operator(branches: BranchDecomposition) -> BranchConnector:
    """The generic joint IT operator of a two-branch decomposition:
    Hermitian, trace zero, rank <= 2."""
    if len(branches.branches) != 2:
        raise StateError(
            f"joint IT operator needs exactly 2 branches, got {len(branches.branches)}")
    (_, chi1), (_, chi2) = branches.branches
    return BranchConnector(chi1, chi2)


def _involution_check(b: PauliSum, tol: float):
    square = b @ b
    terms = square.prune(tol).terms
    ok = (len(terms) == 1 and not terms[0][1].letters
          and abs(terms[0][0] - 1.0) <= tol)
    if not ok:
        raise OperatorError("operator is not an involution (B^2 != identity)")


def _pauli_split(layout: HilbertLayout, rows: np.ndarray, b: PauliSum,
                 target: Sequence[str], tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The +/-1 eigencomponents (P+ psi, P- psi) of a Pauli involution B
    that leaves the recording chain `target` alone, for every amplitude row
    psi of `rows`."""
    if set(b.support) & set(target):
        raise OperatorError("B must not act on the recording chain")
    _involution_check(b, tol)
    b_psi = _apply_sum_rows(b, layout, rows)
    return 0.5 * (rows + b_psi), 0.5 * (rows - b_psi)


def b_eigenbranches(psi: StateVector, b: PauliSum,
                    tol: float = DEFAULT_TOL) -> BranchDecomposition:
    """Decompose psi into the +/-1 eigencomponents of an involution B,
    canonically gauged; branches with zero weight are dropped."""
    return _record(psi, *_pauli_split(psi.layout, psi.amplitudes, b, (), tol), (), tol)[1]


def _chain_flip(labels: Sequence[str]) -> PauliString:
    """prod_j (-i X_j) over a target chain: the completed conditional flip."""
    return PauliString.from_map({l: "X" for l in labels}, ipower=3 * len(labels))


def _ready_residuals(layout: HilbertLayout, rows: np.ndarray,
                     target: Sequence[str]) -> np.ndarray:
    """Per row, the norm of the amplitude outside the target chain's all-up
    subspace."""
    ready = np.ones(layout.dim, dtype=bool)
    for label in target:
        ready &= layout._qubit_flip(label)[1] > 0
    return _row_norms(np.where(ready, 0.0, rows))


def _first(values: np.ndarray, bad: np.ndarray) -> float:
    """The value of the first row flagged bad, for an error message."""
    return float(values[bad][0])


class _StageRows(NamedTuple):
    """One recorded stage of a block: the new states, and per row the
    canonically gauged branch pair (plus part, flipped part).  `kept` marks
    the parts that carry weight; a dropped part has amplitude 0 and a zero
    row."""

    state: np.ndarray  # (points, dim)
    amps: np.ndarray   # (points, 2)
    units: np.ndarray  # (points, 2, dim)
    kept: np.ndarray   # (points, 2) bool

    def branches(self, layout: HilbertLayout, row: int) -> BranchDecomposition:
        return BranchDecomposition(layout, tuple(
            (self.amps[row, j], StateVector(layout, self.units[row, j]))
            for j in (0, 1) if self.kept[row, j]))


def _record_rows(layout: HilbertLayout, state: np.ndarray, plus: np.ndarray,
                 minus: np.ndarray, target: Sequence[str], tol: float) -> _StageRows:
    """`_record` for a block of states, one per row: every check is made
    row by row with the same tolerance, and the first failing row raises."""
    target = tuple(target)
    r = _ready_residuals(layout, state, target)
    if np.any(r > tol):
        raise StateError("target chain is not in the ready all-up state "
                         f"(residual {_first(r, r > tol)})")
    err = _row_norms(plus + minus - state)
    if np.any(err > tol):
        raise StateError(
            f"eigencomponent reconstruction error {_first(err, err > tol)} exceeds {tol}")
    parts = np.stack([plus, _apply_rows(_chain_flip(target), layout, minus)], axis=1)
    new_state = parts[:, 0] + parts[:, 1]
    _check_unit_rows(new_state, 1e-9)
    # the branch decomposition of each row: its kept parts, gauged
    kept = _row_norms(parts) > tol
    if not kept.all():
        # a dropped part is gauged as a stand-in row of ones, then cleared
        parts = np.where(kept[..., None], parts, 1.0)
    amps, units = _gauge_rows(parts, tol)
    amps[~kept], units[~kept] = 0.0, 0.0
    _check_branch_rows(amps, units, tol, kept)
    return _StageRows(new_state, amps, units, kept)


def _record(state: StateVector, plus: np.ndarray, minus: np.ndarray,
            target: Sequence[str],
            tol: float) -> tuple[StateVector, BranchDecomposition]:
    """Record an involution on the fresh all-up chain `target`, given the
    split state = plus + minus into its +1 and -1 eigencomponents: identity
    on plus, the per-atom -i flip of the target on minus.  The two parts,
    canonically gauged, are the new branch pair.  An empty target flips
    nothing and leaves the plain eigenbranches.  The one-row case of
    `_record_rows`."""
    rec = _record_rows(state.layout, state.amplitudes[None], np.asarray(plus)[None],
                       np.asarray(minus)[None], target, tol)
    return StateVector(state.layout, rec.state[0]), rec.branches(state.layout, 0)


def second_chain_measure(state: StateVector, b: PauliSum,
                         target_chain: Sequence[str],
                         tol: float = DEFAULT_TOL) -> StateVector:
    """Record the involution B on a fresh all-up chain: identity on the
    B=+1 eigenspace, the per-atom -i flip of the target on B=-1."""
    return _record(state, *_pauli_split(state.layout, state.amplitudes, b,
                                        target_chain, tol), target_chain, tol)[0]


def _recorded(k: int) -> str:
    """What stage k records."""
    return {1: "mu_z(C1)", 2: "B(S0,C1)"}.get(k, f"joint IT of stage {k - 1}")


def _run_rows(model: CascadeModel, state: np.ndarray, stages: int, tol: float):
    """Stages 1..`stages` for a block of cascades, one per row of `state`,
    each stage one `_record_rows` call over the block; yields (k, rec) with
    `rec` the block's stage k.

    Stage k >= 3 splits each row along the eigenvectors (chi1 +- chi2)/sqrt 2
    of its previous stage's joint IT operator.  A row whose stage left a
    single branch has no interference term for a later chain to record: it
    is masked to record nothing (identity on its whole state), so it keeps
    its one branch, and the block ends early only when no row is left with
    two.
    """
    layout = model.layout
    for k in range(1, stages + 1):
        target = model.chain_atoms(k)
        if k <= 2:
            b = _Z_SYSTEM if k == 1 else it_operator(model.chain_atoms(1))
            plus, minus = _pauli_split(layout, state, b, target, tol)
        else:
            two = np.all(rec.kept, axis=1)
            if not two.any():
                return
            chi1, chi2 = rec.units[:, 0], rec.units[:, 1]
            eigvecs = ((chi1 + chi2) / np.sqrt(2.0), (chi1 - chi2) / np.sqrt(2.0))
            plus, minus = (np.vecdot(w, state)[:, None] * w for w in eigvecs)
            if not two.all():
                plus = np.where(two[:, None], plus, state)
                minus = np.where(two[:, None], minus, 0.0)
        rec = _record_rows(layout, state, plus, minus, target, tol)
        state = rec.state
        yield k, rec


def _terminal_deviation(state: np.ndarray, amps: np.ndarray,
                        units: np.ndarray) -> np.ndarray:
    """|<T>_pure - sum_i |a_i|^2 <chi_i|T|chi_i>| per row, with T the joint
    IT operator of the row's branch pair (chi1, chi2) = units (meaningful
    for two-branch rows only)."""
    chi1, chi2 = units[..., 0, :], units[..., 1, :]
    mixed = sum(np.abs(amps[..., i]) ** 2
                * _connector_expectation(chi1, chi2, units[..., i, :]) for i in (0, 1))
    return np.abs(_connector_expectation(chi1, chi2, state) - mixed)


@dataclass(frozen=True)
class CascadeStage:
    """State after a stage, its branch pair, and what the stage recorded."""

    recorded: str
    state: StateVector
    branches: BranchDecomposition


@dataclass(frozen=True)
class CascadeRun:
    model: CascadeModel
    stages: tuple[CascadeStage, ...]

    @property
    def final(self) -> CascadeStage:
        return self.stages[-1]

    def terminal_connector(self) -> BranchConnector:
        return joint_it_operator(self.final.branches)

    def tradeoff(self, tol: float = DEFAULT_TOL) -> TradeoffReport:
        """Recording B on chain 2 erases chain 1's pointer record: mu_z(C1)
        drops to zero while chain 2's pointer reproduces B exactly."""
        if len(self.stages) < 2:
            raise ValueError(
                f"information tradeoff needs m >= 2 recorded chains, got {len(self.stages)}")
        psi_f, phi_f = self.stages[0].state, self.stages[1].state
        mu1 = pointer_operator(self.model.chain_atoms(1))
        b = it_operator(self.model.chain_atoms(1))
        return TradeoffReport(
            mu_before=expectation(mu1, psi_f, tol),
            mu_after=expectation(mu1, phi_f, tol),
            b_before=expectation(b, psi_f, tol),
            b_prime_after=expectation(pointer_operator(self.model.chain_atoms(2)),
                                      phi_f, tol),
        )

    def terminal_deviation(self) -> float:
        """|<T>_pure - sum_i |a_i|^2 <chi_i|T|chi_i>| for the terminal joint
        IT operator T, from the branch vectors alone; 0.0 when the last
        stage left a single branch, which is its own mixture."""
        if len(self.final.branches.branches) < 2:
            return 0.0
        (a1, chi1), (a2, chi2) = self.final.branches.branches
        return float(_terminal_deviation(self.final.state.amplitudes, np.array([a1, a2]),
                                          np.stack([chi1.amplitudes, chi2.amplitudes])))

    def terminal_witness(self, tol: float = DEFAULT_TOL) -> TerminalWitnessReport:
        """The last stage's joint IT operator with its support and its
        pure/mixed deviation; see unmeasured_it_exists."""
        connector = self.terminal_connector()
        deviation = self.terminal_deviation()
        support = connector.support(tol)
        amps = tuple(complex(a) for a, _ in self.final.branches.branches)
        return TerminalWitnessReport(
            exists=deviation > tol,
            deviation=deviation,
            support=support,
            covers_observer=set(self.model.observer_labels) <= set(support),
            branch_amplitudes=amps,
            witness=connector,
        )


def initial_cascade_state(model: CascadeModel) -> StateVector:
    return StateVector(model.layout, _ready_rows(model.layout, model.a1, [model.a2])[0])


def run_cascade(model: CascadeModel, stages: int | None = None,
                tol: float = DEFAULT_TOL) -> CascadeRun:
    """Run the measurement sequence through `stages` chains (default all).

    Stage k records one involution on the fresh chain k: Z_S0 for chain 1
    (the complete-flip passage), B of (S0, chain 1) for chain 2, and for
    k >= 3 the joint IT operator of stage k-1, split along its eigenvectors.
    A stage that leaves a single branch ends the run: no interference term
    is left for a later chain to record.  This is the one-row case of the
    batched stage kernel.
    """
    stages = model.m if stages is None else stages
    if not 1 <= stages <= model.m:
        raise ValueError(f"stages must be in 1..{model.m}, got {stages}")
    layout = model.layout
    start = initial_cascade_state(model).amplitudes[None]
    return CascadeRun(model, tuple(
        CascadeStage(_recorded(k), StateVector(layout, rec.state[0]), rec.branches(layout, 0))
        for k, rec in _run_rows(model, start, stages, tol)))


def scan_terminal_deviation(model: CascadeModel, a2s: Sequence[complex],
                            tol: float = DEFAULT_TOL) -> np.ndarray:
    """`run_cascade(...).terminal_deviation()` of `model` with its a2
    replaced by each entry of `a2s` (a1 kept), with no run per entry: each
    block of at most SCAN_BLOCK_AMPLITUDES amplitudes (at least one row)
    goes through the m stages together.  A row whose run ends with a single
    branch reads 0.0."""
    a2s = np.asarray(a2s, dtype=complex)
    out = np.zeros(len(a2s))
    size = max(1, SCAN_BLOCK_AMPLITUDES // model.layout.dim)
    for start in range(0, len(a2s), size):
        rows = _ready_rows(model.layout, model.a1, a2s[start:start + size])
        for _, rec in _run_rows(model, rows, model.m, tol):
            pass  # the deviation reads the last stage only
        dev = _terminal_deviation(rec.state, rec.amps, rec.units)
        out[start:start + size] = np.where(np.all(rec.kept, axis=1), dev, 0.0)
    return out


@dataclass(frozen=True)
class TradeoffReport:
    """Pointer means before/after the IT-recording stage."""

    mu_before: float
    mu_after: float
    b_before: float
    b_prime_after: float


def information_tradeoff(model: CascadeModel, tol: float = DEFAULT_TOL) -> TradeoffReport:
    """Pointer means of chains 1 and 2 and B before/after stage 2; see
    CascadeRun.tradeoff."""
    return run_cascade(model, stages=min(model.m, 2), tol=tol).tradeoff(tol)


def build_B2_flip_sum(chain1_atoms: Sequence[str], chain2_atoms: Sequence[str],
                   system: str = SYSTEM_LABEL) -> PauliSum:
    """The explicit N+1 member sum for the stage-2 joint IT operator: the
    recording chain's Y product times flip sums over the first chain, with
    Z on the system weighting the even-size flip subsets."""
    chain1 = tuple(chain1_atoms)
    chain2 = tuple(chain2_atoms)
    if not chain1 or not chain2:
        raise ValueError("both chains need at least one atom")
    y_part = {l: "Y" for l in chain2}
    terms = []
    for n in range(len(chain1) + 1):
        for subset in combinations(chain1, n):
            letters = dict(y_part)
            letters.update({l: "X" for l in subset})
            if n % 2 == 0:
                letters[system] = "Z"
            terms.append((1.0 + 0.0j, PauliString.from_map(letters)))
    return PauliSum.from_terms(terms)


@dataclass(frozen=True)
class TerminalWitnessReport:
    """The leftover joint IT operator once every chain is consumed."""

    exists: bool
    deviation: float
    support: tuple[str, ...]
    covers_observer: bool
    branch_amplitudes: tuple[complex, complex]

    witness: BranchConnector | None = None


def unmeasured_it_exists(model: CascadeModel,
                         tol: float = DEFAULT_TOL) -> TerminalWitnessReport:
    """After all m chains are consumed, the terminal joint IT operator acts
    on every observer qubit and (for generic amplitudes) still separates the
    pure final state from its branch mixture."""
    return run_cascade(model, tol=tol).terminal_witness(tol)
