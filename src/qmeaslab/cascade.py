"""Multi-chain selfmeasurement cascades.

Every stage records one involution on a fresh chain: identity on its +1
eigenspace, the chain's complete flip on its -1 eigenspace.  Stage 1
records Z_S0 (chain 1's pointer passage), stage 2 records the interference
term B of (S0, chain 1), and stage k >= 3 records the joint IT operator of
stage k-1.  The terminal joint IT operator, with no chain left to record
it, is the unmeasurable witness; its expectation separates the final
superposition from the branch mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .chain import SYSTEM_LABEL, it_operator, pointer_operator
from .hilbert import (DEFAULT_TOL, BranchDecomposition, DensityMatrix,
                      HilbertLayout, StateError, StateVector, canonical_split,
                      check_dense_dim)
from .pauli import (OperatorError, PauliString, PauliSum, apply, apply_sum,
                    expectation)

_Z_SYSTEM = PauliSum.from_string(PauliString.single(SYSTEM_LABEL, "Z"))


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
        weight = abs(self.a1) ** 2 + abs(self.a2) ** 2
        if abs(weight - 1.0) > 1e-9:
            raise ValueError(f"amplitudes must satisfy |a1|^2+|a2|^2=1, got {weight}")

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

    @property
    def layout(self) -> HilbertLayout:
        return HilbertLayout.qubits((SYSTEM_LABEL,) + self.observer_labels)


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

    def apply_vec(self, vec: np.ndarray) -> np.ndarray:
        c1 = np.vdot(self.chi2.amplitudes, vec)
        c2 = np.vdot(self.chi1.amplitudes, vec)
        return c1 * self.chi1.amplitudes + c2 * self.chi2.amplitudes

    def expectation(self, state: StateVector) -> float:
        return float(np.real(np.vdot(state.amplitudes,
                                     self.apply_vec(state.amplitudes))))

    def expectation_mixed(self, rho: DensityMatrix) -> float:
        v = self.chi2.amplitudes.conj() @ rho.matrix @ self.chi1.amplitudes
        return float(2.0 * np.real(v))

    def eigenvectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit eigenvectors for eigenvalues +1 and -1."""
        plus = (self.chi1.amplitudes + self.chi2.amplitudes) / np.sqrt(2.0)
        minus = (self.chi1.amplitudes - self.chi2.amplitudes) / np.sqrt(2.0)
        return plus, minus

    def to_matrix(self) -> np.ndarray:
        check_dense_dim(self.layout, "connector")
        k = np.outer(self.chi1.amplitudes, self.chi2.amplitudes.conj())
        return k + k.conj().T

    def support(self, tol: float = DEFAULT_TOL) -> tuple[str, ...]:
        """Qubit labels the operator acts on nontrivially.

        A label is trivial iff the commutators with X and Z there vanish;
        Frobenius norms come from Gram matrices of the branch vectors, no
        dense matrices involved.
        """
        labels = []
        for sub in self.layout.subsystems:
            nontrivial = False
            for letter in ("X", "Z"):
                op = PauliString.single(sub.label, letter)
                a1 = apply(op, self.chi1).amplitudes
                a2 = apply(op, self.chi2).amplitudes
                # [T, A] = |chi1><A chi2| - |A chi1><chi2|
                #        + |chi2><A chi1| - |A chi2><chi1|
                us = [self.chi1.amplitudes, a1, self.chi2.amplitudes, a2]
                vs = [a2, self.chi2.amplitudes, a1, self.chi1.amplitudes]
                cs = [1.0, -1.0, 1.0, -1.0]
                norm_sq = 0.0
                for s in range(4):
                    for t in range(4):
                        norm_sq += np.real(cs[s] * np.conj(cs[t])
                                           * np.vdot(us[t], us[s])
                                           * np.vdot(vs[s], vs[t]))
                if norm_sq > tol:
                    nontrivial = True
                    break
            if nontrivial:
                labels.append(sub.label)
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


def _pauli_split(state: StateVector, b: PauliSum, target: Sequence[str],
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The +/-1 eigencomponents (P+ psi, P- psi) of a Pauli involution B
    that leaves the recording chain `target` alone."""
    if set(b.support) & set(target):
        raise OperatorError("B must not act on the recording chain")
    _involution_check(b, tol)
    b_psi = apply_sum(b, state)
    return 0.5 * (state.amplitudes + b_psi), 0.5 * (state.amplitudes - b_psi)


def b_eigenbranches(psi: StateVector, b: PauliSum,
                    tol: float = DEFAULT_TOL) -> BranchDecomposition:
    """Decompose psi into the +/-1 eigencomponents of an involution B,
    canonically gauged; branches with zero weight are dropped."""
    return _record(psi, *_pauli_split(psi, b, (), tol), (), tol)[1]


def _chain_flip(labels: Sequence[str]) -> PauliString:
    """prod_j (-i X_j) over a target chain: the completed conditional flip."""
    return PauliString.from_map({l: "X" for l in labels}, ipower=3 * len(labels))


def _ready_residual(state: StateVector, target: Sequence[str]) -> float:
    """Norm of the amplitude outside the target chain's all-up subspace."""
    ready = np.ones(state.layout.dim, dtype=bool)
    for label in target:
        ready &= state.layout._qubit_flip(label)[1] > 0
    return float(np.linalg.norm(np.where(ready, 0.0, state.amplitudes)))


def _record(state: StateVector, plus: np.ndarray, minus: np.ndarray,
            target: Sequence[str],
            tol: float) -> tuple[StateVector, BranchDecomposition]:
    """Record an involution on the fresh all-up chain `target`, given the
    split state = plus + minus into its +1 and -1 eigencomponents: identity
    on plus, the per-atom -i flip of the target on minus.  The two parts,
    canonically gauged, are the new branch pair.  An empty target flips
    nothing and leaves the plain eigenbranches."""
    target = tuple(target)
    r = _ready_residual(state, target)
    if r > tol:
        raise StateError(f"target chain is not in the ready all-up state (residual {r})")
    err = float(np.linalg.norm(plus + minus - state.amplitudes))
    if err > tol:
        raise StateError(f"eigencomponent reconstruction error {err} exceeds {tol}")
    flipped = apply(_chain_flip(target), StateVector(state.layout, minus)).amplitudes
    new_state = StateVector(state.layout, plus + flipped).check_normalized(1e-9)
    branches = tuple(canonical_split(state.layout, part, tol)
                     for part in (plus, flipped) if np.linalg.norm(part) > tol)
    return new_state, BranchDecomposition(state.layout, branches).validate(tol)


def second_chain_measure(state: StateVector, b: PauliSum,
                         target_chain: Sequence[str],
                         tol: float = DEFAULT_TOL) -> StateVector:
    """Record the involution B on a fresh all-up chain: identity on the
    B=+1 eigenspace, the per-atom -i flip of the target on B=-1."""
    return _record(state, *_pauli_split(state, b, target_chain, tol),
                   target_chain, tol)[0]


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
        t = self.terminal_connector()
        mixed = sum(abs(a) ** 2 * t.expectation(chi)
                    for a, chi in self.final.branches.branches)
        return abs(t.expectation(self.final.state) - mixed)

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
    layout = model.layout
    amps = np.zeros(layout.dim, dtype=complex)
    zeros = [0] * len(model.observer_labels)
    amps[layout.index_of([0] + zeros)] = model.a1
    amps[layout.index_of([1] + zeros)] = model.a2
    return StateVector(layout, amps).check_normalized()


def run_cascade(model: CascadeModel, stages: int | None = None,
                tol: float = DEFAULT_TOL) -> CascadeRun:
    """Run the measurement sequence through `stages` chains (default all).

    Stage k records one involution on the fresh chain k: Z_S0 for chain 1
    (the complete-flip passage), B of (S0, chain 1) for chain 2, and for
    k >= 3 the joint IT operator of stage k-1, split along its eigenvectors.
    A stage that leaves a single branch ends the run: no interference term
    is left for a later chain to record.
    """
    stages = model.m if stages is None else stages
    if not 1 <= stages <= model.m:
        raise ValueError(f"stages must be in 1..{model.m}, got {stages}")
    state = initial_cascade_state(model)
    out: list[CascadeStage] = []
    for k in range(1, stages + 1):
        if k >= 3 and len(out[-1].branches.branches) < 2:
            break
        target = model.chain_atoms(k)
        if k == 1:
            recorded = "mu_z(C1)"
            parts = _pauli_split(state, _Z_SYSTEM, target, tol)
        elif k == 2:
            recorded = "B(S0,C1)"
            parts = _pauli_split(state, it_operator(model.chain_atoms(1)), target, tol)
        else:
            recorded = f"joint IT of stage {k - 1}"
            eigvecs = joint_it_operator(out[-1].branches).eigenvectors()
            parts = tuple(np.vdot(w, state.amplitudes) * w for w in eigvecs)
        state, branches = _record(state, *parts, target, tol)
        out.append(CascadeStage(recorded, state, branches))
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
