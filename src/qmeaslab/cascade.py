"""Multi-chain selfmeasurement cascades.

Every stage records one involution on a fresh chain: identity on its +1
eigenspace, the chain's complete flip on its -1 eigenspace.  Stage 1
records Z_S0 (chain 1's pointer passage), stage 2 records the interference
term B of (S0, chain 1), and stage k >= 3 records the joint IT operator of
stage k-1.  The terminal joint IT operator, with no chain left to record
it, is the unmeasurable witness; its expectation separates the final
superposition from the branch mixture, and being nonzero and rank 2 it is
the identity on no qubit, so its support is the whole layout.

`run_cascade` records each stage once, on one state, through the one
recording primitive (`_record`).  The terminal deviation of a whole a2
scan needs no state: every stage maps the branch amplitudes by a 2x2 map
(`_stage_amplitudes`), and `_closed_form_terminal` reads the deviation and
the single-branch rule off the last stage's pair, for every scan point at
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np

from .chain import SYSTEM_LABEL, _ready, _Z_SYSTEM, it_operator, pointer_operator
from .hilbert import (DEFAULT_TOL, BranchDecomposition, DensityMatrix,
                      HilbertLayout, StateError, StateVector, _check_weights,
                      _row_norms, canonical_split, check_dense_dim)
from .pauli import (OperatorError, PauliString, PauliSum, _apply_rows,
                    _apply_sum_rows, expectation)

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
                           v: np.ndarray) -> np.floating:
    """<v|T|v> for T = |chi1><chi2| + |chi2><chi1|, from inner products."""
    c1 = np.vecdot(chi2, v)
    c2 = np.vecdot(chi1, v)
    return np.real(np.vecdot(v, c1 * chi1 + c2 * chi2))


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
        """Qubit labels the operator acts on nontrivially: every label when
        ||T||_F^2 = 2 (Re s^2 + n1 n2) exceeds tol (s = <chi1|chi2>,
        n_i = <chi_i|chi_i>), none otherwise.

        A nonzero T is never I_q (x) T': its nonzero eigenvalues are one,
        or two of opposite sign, while I_q (x) T' repeats each eigenvalue of
        T'.  So its exact support is the whole layout.
        """
        c1, c2 = self.chi1.amplitudes, self.chi2.amplitudes
        s = np.vdot(c1, c2)
        t_sq = 2.0 * (np.real(s * s) + np.vdot(c1, c1).real * np.vdot(c2, c2).real)
        return self.layout.labels if t_sq > tol else ()


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


def _pauli_split(psi: StateVector, b: PauliSum, target: Sequence[str],
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The +/-1 eigencomponents (P+ psi, P- psi) of a Pauli involution B
    that leaves the recording chain `target` alone."""
    if set(b.support) & set(target):
        raise OperatorError("B must not act on the recording chain")
    _involution_check(b, tol)
    b_psi = _apply_sum_rows(b, psi.layout, psi.amplitudes)
    return 0.5 * (psi.amplitudes + b_psi), 0.5 * (psi.amplitudes - b_psi)


def b_eigenbranches(psi: StateVector, b: PauliSum,
                    tol: float = DEFAULT_TOL) -> BranchDecomposition:
    """Decompose psi into the +/-1 eigencomponents of an involution B,
    canonically gauged; branches with zero weight are dropped."""
    return _record(psi, *_pauli_split(psi, b, (), tol), (), tol)[1]


def _chain_flip(labels: Sequence[str]) -> PauliString:
    """prod_j (-i X_j) over a target chain: the completed conditional flip."""
    return PauliString.from_map({l: "X" for l in labels}, ipower=3 * len(labels))


def _ready_residual(layout: HilbertLayout, amps: np.ndarray,
                    target: Sequence[str]) -> float:
    """The norm of the amplitude outside the target chain's all-up subspace."""
    ready = np.ones(layout.dim, dtype=bool)
    for label in target:
        ready &= layout._qubit_flip(label)[1] > 0
    return float(_row_norms(np.where(ready, 0.0, amps)))


def _record(state: StateVector, plus: np.ndarray, minus: np.ndarray,
            target: Sequence[str],
            tol: float) -> tuple[StateVector, BranchDecomposition]:
    """Record an involution on the fresh all-up chain `target`, given the
    split state = plus + minus into its +1 and -1 eigencomponents: identity
    on plus, the per-atom -i flip of the target on minus.  The parts that
    carry weight (norm above tol), canonically gauged, are the new branch
    pair.  An empty target flips nothing and leaves the plain eigenbranches."""
    layout, target = state.layout, tuple(target)
    r = _ready_residual(layout, state.amplitudes, target)
    if r > tol:
        raise StateError(f"target chain is not in the ready all-up state (residual {r})")
    err = float(_row_norms(plus + minus - state.amplitudes))
    if err > tol:
        raise StateError(f"eigencomponent reconstruction error {err} exceeds {tol}")
    flipped = _apply_rows(_chain_flip(target), layout, minus)
    new_state = StateVector(layout, plus + flipped).check_normalized(1e-9)
    branches = BranchDecomposition(layout, tuple(
        canonical_split(layout, part, tol) for part in (plus, flipped)
        if _row_norms(part) > tol))
    return new_state, branches.validate(tol)


def second_chain_measure(state: StateVector, b: PauliSum,
                         target_chain: Sequence[str],
                         tol: float = DEFAULT_TOL) -> StateVector:
    """Record the involution B on a fresh all-up chain: identity on the
    B=+1 eigenspace, the per-atom -i flip of the target on B=-1."""
    return _record(state, *_pauli_split(state, b, target_chain, tol), target_chain, tol)[0]


def _recorded(k: int) -> str:
    """What stage k records."""
    return {1: "mu_z(C1)", 2: "B(S0,C1)"}.get(k, f"joint IT of stage {k - 1}")


def _stage_split(model: CascadeModel, k: int, state: StateVector,
                 prev: BranchDecomposition | None,
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The +/-1 eigencomponents of `state` that stage k records: of Z_S0
    (k = 1), of B of (S0, chain 1) (k = 2), and for k >= 3 along the
    eigenvectors (chi1 +- chi2)/sqrt 2 of the joint IT operator of `prev`,
    the branch pair of stage k-1."""
    if k <= 2:
        b = _Z_SYSTEM if k == 1 else it_operator(model.chain_atoms(1))
        return _pauli_split(state, b, model.chain_atoms(k), tol)
    chi1, chi2 = (chi.amplitudes for _, chi in prev.branches)
    eigvecs = ((chi1 + chi2) / np.sqrt(2.0), (chi1 - chi2) / np.sqrt(2.0))
    plus, minus = (np.vecdot(w, state.amplitudes) * w for w in eigvecs)
    return plus, minus


def _stage_amplitudes(chains: Sequence[int], a1: complex, a2):
    """The gauged branch amplitudes (b1, b2) of stages 2..m in closed form,
    with no state built: starting from (a1, (-1)^{n_1} a2), each stage k >= 2
    maps (b1, b2) to ((b1 + b2)/sqrt 2, (-i)^{n_k} (b1 - b2)/sqrt 2).  Exact
    up to rounding while every stage keeps both branches; `a2` may be an
    array of values, one cascade each."""
    b1, b2 = a1, (-1) ** chains[0] * a2
    for n in chains[1:]:
        b1, b2 = (b1 + b2) / np.sqrt(2.0), (-1j) ** n * (b1 - b2) / np.sqrt(2.0)
        yield b1, b2


def _closed_form_terminal(chains: Sequence[int], a1: complex, a2s,
                          tol: float) -> tuple[np.ndarray, np.ndarray]:
    """For the cascade of m >= 2 `chains` with a1 and each entry of `a2s` as
    a2: its terminal deviation, and the first stage >= 2 that leaves it a
    single branch (0 for none).  No state is built.

    The terminal joint IT operator connects orthonormal branches, so the
    deviation is exactly 2|Re(conj(b1) b2)| of the last stage's pair.  A
    stage keeps a branch where its amplitude exceeds tol, as `_record`
    does, and a cascade left with one branch reads 0.0, the deviation of a
    one-branch mixture.  Stage 1's pair is not read: stage 2 splits the
    whole state by B, whatever stage 1 kept."""
    a2s = np.asarray(a2s, dtype=complex)
    lost = np.zeros(a2s.shape, dtype=int)
    for k, (b1, b2) in enumerate(_stage_amplitudes(chains, a1, a2s), 2):
        lost[(lost == 0) & (np.minimum(np.abs(b1), np.abs(b2)) <= tol)] = k
    dev = np.abs(2.0 * np.real(np.conj(b1) * b2))
    return np.where(lost == 0, dev, 0.0), lost


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
        c1, c2 = chi1.amplitudes, chi2.amplitudes
        w1, w2 = np.abs([a1, a2]) ** 2
        mixed = (w1 * _connector_expectation(c1, c2, c1)
                 + w2 * _connector_expectation(c1, c2, c2))
        return float(np.abs(_connector_expectation(c1, c2, self.final.state.amplitudes)
                            - mixed))

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
    return StateVector(model.layout, _ready(model.layout, model.a1, model.a2))


def run_cascade(model: CascadeModel, stages: int | None = None,
                tol: float = DEFAULT_TOL) -> CascadeRun:
    """Run the measurement sequence through `stages` chains (default all).

    Stage k records one involution on the fresh chain k: Z_S0 for chain 1
    (the complete-flip passage), B of (S0, chain 1) for chain 2, and for
    k >= 3 the joint IT operator of stage k-1, split along its eigenvectors.
    A stage k >= 2 that leaves a single branch ends the run: no
    interference term is left for a later chain to record.
    """
    stages = model.m if stages is None else stages
    if not 1 <= stages <= model.m:
        raise ValueError(f"stages must be in 1..{model.m}, got {stages}")
    state, branches, out = initial_cascade_state(model), None, []
    for k in range(1, stages + 1):
        # stage 2 splits the whole state by B, whatever stage 1 kept
        if k >= 3 and len(branches.branches) < 2:
            break
        state, branches = _record(state, *_stage_split(model, k, state, branches, tol),
                                  model.chain_atoms(k), tol)
        out.append(CascadeStage(_recorded(k), state, branches))
    return CascadeRun(model, tuple(out))


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


def build_B2_flip_sum(chain1_atoms: Sequence[str], chain2_atoms: Sequence[str]) -> PauliSum:
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
                letters[SYSTEM_LABEL] = "Z"
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
