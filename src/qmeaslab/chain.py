"""Spin-chain measurement dynamics: sequential conditional flips, pointer and
interference-term observables, strictness checks, and the ferromagnetic
extension.

A spin-1/2 system qubit S0 crosses a chain of N spin-1/2 atoms A1..AN.  Each
crossing applies the conditional pulse

    |u0><u0| (x) I  +  |d0><d0| (x) exp(-i theta sigma_x),

a complete flip with per-atom phase -i at the calibrated theta = pi/2.
The measured superposition on ready all-up atoms is built here once
(`_ready`), for chains and cascades alike, and so is the system's Z
(`_Z_SYSTEM`).  Pulses act in place on strided views of an amplitude
array (`_pulse`), so a passage copies nothing per step, and pulses at
-theta undo it.  The closed form's flipped-branch factor (`_closed_branch`)
is built once per (N, theta) and shared by every amplitude pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .hilbert import (DEFAULT_TOL, BranchDecomposition, HilbertLayout,
                      StateVector, StateError, _check_unit, _check_weights,
                      _pointer_branches)
from .pauli import (OperatorError, PauliString, PauliSum, apply_sum,
                    commutator, expectation, _check_qubit_support)

SYSTEM_LABEL = "S0"
_Z_SYSTEM = PauliSum.from_string(PauliString.single(SYSTEM_LABEL, "Z"))


def atom_labels(n_atoms: int) -> tuple[str, ...]:
    return tuple(f"A{i}" for i in range(1, n_atoms + 1))


def _as_labels(atoms: int | Sequence[str]) -> tuple[str, ...]:
    if isinstance(atoms, int):
        return atom_labels(atoms)
    return tuple(atoms)


@dataclass(frozen=True)
class ChainModel:
    """One chain: system qubit S0 plus atoms A1..AN and the incoming
    amplitudes (a1, a2) of the measured superposition."""

    n_atoms: int
    a1: complex
    a2: complex
    theta: float = math.pi / 2

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError(f"chain model requires n_atoms >= 1, got {self.n_atoms}")
        _check_weights(self.a1, self.a2)

    @property
    def atoms(self) -> tuple[str, ...]:
        return atom_labels(self.n_atoms)

    @cached_property
    def layout(self) -> HilbertLayout:
        # built once per model, so its flip tables are shared by every state
        return HilbertLayout.qubits((SYSTEM_LABEL,) + self.atoms)


def _ready(layout: HilbertLayout, a1: complex, a2: complex) -> np.ndarray:
    """The amplitudes of a1|u>|u...u> + a2|d>|u...u>, checked normalized: the
    measured qubit is first in the layout, and every qubit after it is a
    ready all-up atom."""
    amps = np.zeros(layout.dim, dtype=complex)
    amps[0], amps[layout.dim // 2] = a1, a2
    _check_unit(amps, DEFAULT_TOL)
    return amps


def initial_state(model: ChainModel) -> StateVector:
    """(a1|u0> + a2|d0>) tensor |u...u>."""
    return StateVector(model.layout, _ready(model.layout, model.a1, model.a2))


def _complete_flip(theta: float) -> bool:
    # the calibrated pi/2 to a few ulps: the pulse is exact, branches exist
    return abs(theta - math.pi / 2) < 1e-15


def _pulse_coeffs(theta: float) -> tuple[float, float]:
    # the calibrated complete flip is exact, not cos(pi/2) ~ 6e-17
    if _complete_flip(theta):
        return 0.0, 1.0
    return math.cos(theta), math.sin(theta)


def _pulse(amps: np.ndarray, layout: HilbertLayout, system: str, atom: str,
           theta: float) -> None:
    """One conditional pulse on (system, atom), in place on the amplitude
    array `amps` through strided views of it, then checked normalized; an
    array that only a copy could reshape is refused (AttributeError)."""
    _check_qubit_support((system, atom), layout)
    if system == atom:
        raise OperatorError("system and atom must be distinct qubits")
    grid = amps.view()
    grid.shape = layout.dims()
    # the half where the system is |d>, and it again with the atom's |u> and
    # |d> swapped: slices, so both are views of amps even at N = 1
    at = [slice(None)] * grid.ndim
    at[layout.axis(system)] = slice(1, 2)
    pair = grid[tuple(at)]
    at[layout.axis(atom)] = slice(None, None, -1)
    c, s = _pulse_coeffs(theta)
    # exp(-i theta sigma_x) = cos(theta) I - i sin(theta) sigma_x on the atom
    pair[...] = c * pair - 1j * s * grid[tuple(at)]
    _check_unit(amps, 1e-9)


def passage_step(state: StateVector, atom: str,
                 system: str = SYSTEM_LABEL,
                 theta: float = math.pi / 2) -> StateVector:
    """One conditional pulse on (system, atom); unitary for every theta.

    A passage visits each atom once; repeated application is legal and
    composes pulse angles.
    """
    amps = state.amplitudes.copy()
    _pulse(amps, state.layout, system, atom, theta)
    return StateVector(state.layout, amps)


def full_passage(model: ChainModel) -> StateVector:
    """Stepwise crossing of the whole chain, one in-place pulse per atom."""
    amps = _ready(model.layout, model.a1, model.a2)
    for atom in model.atoms:
        _pulse(amps, model.layout, SYSTEM_LABEL, atom, model.theta)
    return StateVector(model.layout, amps)


def _closed_branch(n_atoms: int, theta: float) -> np.ndarray:
    """prod_i (cos theta |u> - i sin theta |d>) over n_atoms atoms: the chain
    factor of the flipped branch, shared by every model with these two."""
    c, s = _pulse_coeffs(theta)
    return reduce(np.kron, [np.array([c, -1j * s], dtype=complex)] * n_atoms,
                  np.ones(1, dtype=complex))


def _closed_form(layout: HilbertLayout, a1: complex, a2: complex,
                 branch: np.ndarray) -> StateVector:
    """a1|u0>|u..u> + a2|d0> (x) branch, checked normalized."""
    amps = np.zeros(layout.dim, dtype=complex)
    amps[0] = a1
    amps[layout.dim // 2:] = a2 * branch
    return StateVector(layout, amps).check_normalized(1e-9)


def closed_form_final(model: ChainModel) -> StateVector:
    """Final state built directly: a1|u0>|u..u> + a2 prod_i (-i sigma_x^i
    pulse) |d0>|..>; reduces to a2 (-i)^N |d0>|d..d> at theta = pi/2."""
    return _closed_form(model.layout, model.a1, model.a2,
                        _closed_branch(model.n_atoms, model.theta))


def final_branches(model: ChainModel, tol: float = DEFAULT_TOL) -> BranchDecomposition:
    """Pointer-branch decomposition of the final state.

    Only defined for the calibrated complete flip, where the two branches
    are orthogonal basis products.
    """
    if not _complete_flip(model.theta):
        raise StateError("pointer branches require the complete flip theta = pi/2")
    layout = model.layout
    up, down = np.zeros((2, layout.dim), dtype=complex)
    up[0] = down[-1] = 1.0  # |u0>|u...u> and |d0>|d...d>
    return _pointer_branches(layout, model.a1, up, model.a2 * (-1j) ** model.n_atoms,
                             down, tol)


def pointer_operator(atoms: int | Sequence[str]) -> PauliSum:
    """Chain polarization (1/N) sum_i Z_i; acts on the atoms only."""
    labels = _as_labels(atoms)
    if not labels:
        raise ValueError("pointer operator needs at least one atom")
    w = 1.0 / len(labels)
    return PauliSum.from_terms((w, PauliString.single(l, "Z")) for l in labels)


def it_operator(atoms: int | Sequence[str]) -> PauliSum:
    """Joint interference-term operator X_system prod_i Y_i."""
    labels = _as_labels(atoms)
    if not labels:
        raise ValueError("interference operator needs at least one atom")
    letters = {SYSTEM_LABEL: "X"}
    letters.update({l: "Y" for l in labels})
    return PauliSum.from_string(PauliString.from_map(letters))


@dataclass(frozen=True)
class StrictMeasurementReport:
    """Expectations of a system observable and its apparatus stand-in."""

    q_expect: float
    qo_expect: float

    @property
    def delta(self) -> float:
        return self.q_expect - self.qo_expect


def strict_check(q: PauliSum, q_o: PauliSum, state: StateVector,
                 tol: float = DEFAULT_TOL) -> StrictMeasurementReport:
    """Strictness report for a system observable q on S0 against an
    apparatus observable q_o; exact measurement means delta = 0."""
    sys_set = {SYSTEM_LABEL}
    apparatus = set(state.layout.labels) - sys_set
    if not set(q.support) <= sys_set:
        raise OperatorError(f"q must be supported on {sorted(sys_set)}, got {q.support}")
    if not set(q_o.support) <= apparatus:
        raise OperatorError(
            f"q_o must be supported on the apparatus {sorted(apparatus)}, got {q_o.support}")
    return StrictMeasurementReport(expectation(q, state, tol),
                                   expectation(q_o, state, tol))


def heisenberg_hamiltonian(atoms: int | Sequence[str], j: float = 1.0) -> PauliSum:
    """Nearest-neighbor exchange J sum_i (X_i X_i+1 + Y_i Y_i+1 + Z_i Z_i+1)
    over the chain; constant coupling since atom positions are frozen."""
    labels = _as_labels(atoms)
    if len(labels) < 2:
        raise ValueError(f"exchange chain needs N >= 2 atoms, got {len(labels)}")
    terms = []
    for a, b in zip(labels, labels[1:]):
        for letter in ("X", "Y", "Z"):
            terms.append((complex(j), PauliString.from_map({a: letter, b: letter})))
    return PauliSum.from_terms(terms)


def eigenstate_residual(h: PauliSum, state: StateVector,
                        tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """(||H psi - lambda psi||, lambda) with lambda = <psi|H|psi>."""
    lam = expectation(h, state, tol)
    resid = apply_sum(h, state) - lam * state.amplitudes
    return float(np.linalg.norm(resid)), lam


@dataclass(frozen=True)
class CommutatorAudit:
    """String-level [mu_z, B] against the reference sum
    (i/N) X_s0 sum_i X_i prod_{j!=i} Y_j, with the measured constant."""

    lhs: PauliSum
    reference: PauliSum
    constant: complex
    proportional: bool


def it_commutator_audit(n_atoms: int, tol: float = DEFAULT_TOL) -> CommutatorAudit:
    labels = atom_labels(n_atoms)
    lhs = commutator(pointer_operator(labels), it_operator(labels))
    ref_terms = []
    for i, flip in enumerate(labels):
        letters = {SYSTEM_LABEL: "X", flip: "X"}
        letters.update({l: "Y" for k, l in enumerate(labels) if k != i})
        ref_terms.append((1j / n_atoms, PauliString.from_map(letters)))
    reference = PauliSum.from_terms(ref_terms)
    ratios = []
    by_key = {s.letters: c for c, s in lhs.terms}
    proportional = len(lhs.terms) == len(reference.terms)
    for c_ref, s_ref in reference.terms:
        c_lhs = by_key.get(s_ref.letters)
        if c_lhs is None:
            proportional = False
            continue
        ratios.append(c_lhs / c_ref)
    constant = ratios[0] if ratios else 0.0
    if any(abs(r - constant) > tol for r in ratios):
        proportional = False
    return CommutatorAudit(lhs, reference, complex(constant), proportional)
