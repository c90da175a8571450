"""Spin-chain measurement dynamics: sequential conditional flips, pointer and
interference-term observables, strictness checks, and the ferromagnetic
extension.

A spin-1/2 system qubit S0 crosses a chain of N spin-1/2 atoms A1..AN.  Each
crossing applies the conditional pulse

    |u0><u0| (x) I  +  |d0><d0| (x) exp(-i theta sigma_x),

a complete flip with per-atom phase -i at the calibrated theta = pi/2.
The measured superposition on ready all-up atoms is built here once, over
rows (`_ready_rows`), for chains and cascades alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .hilbert import (DEFAULT_TOL, BranchDecomposition, HilbertLayout,
                      StateVector, StateError, _check_unit_rows, _check_weights,
                      _pointer_branches)
from .pauli import (OperatorError, PauliString, PauliSum, apply_sum,
                    commutator, expectation, _check_qubit_support)

SYSTEM_LABEL = "S0"


def atom_labels(n_atoms: int, prefix: str = "A") -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(1, n_atoms + 1))


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


def _ready_rows(layout: HilbertLayout, a1: complex, a2s) -> np.ndarray:
    """Rows a1|u>|u...u> + a2|d>|u...u>, one per entry of a2s, each checked
    normalized: the measured qubit is first in the layout, and every qubit
    after it is a ready all-up atom."""
    amps = np.zeros((len(a2s), layout.dim), dtype=complex)
    amps[:, 0] = a1
    amps[:, layout.dim // 2] = a2s
    _check_unit_rows(amps, DEFAULT_TOL)
    return amps


def initial_state(model: ChainModel) -> StateVector:
    """(a1|u0> + a2|d0>) tensor |u...u>."""
    return StateVector(model.layout, _ready_rows(model.layout, model.a1, [model.a2])[0])


def _complete_flip(theta: float) -> bool:
    # the calibrated pi/2 to a few ulps: the pulse is exact, branches exist
    return abs(theta - math.pi / 2) < 1e-15


def _pulse_coeffs(theta: float) -> tuple[float, float]:
    # the calibrated complete flip is exact, not cos(pi/2) ~ 6e-17
    if _complete_flip(theta):
        return 0.0, 1.0
    return math.cos(theta), math.sin(theta)


def passage_step(state: StateVector, atom: str,
                 system: str = SYSTEM_LABEL,
                 theta: float = math.pi / 2) -> StateVector:
    """One conditional pulse on (system, atom); unitary for every theta.

    A passage visits each atom once; repeated application is legal and
    composes pulse angles.
    """
    layout = state.layout
    _check_qubit_support((system, atom), layout)
    if system == atom:
        raise OperatorError("system and atom must be distinct qubits")
    _, s_sign = layout._qubit_flip(system)
    a_stride, a_sign = layout._qubit_flip(atom)
    # the pulse rotates atom |u> <-> |d> where the system is |d>
    up = np.flatnonzero((s_sign < 0) & (a_sign > 0))
    down = up + a_stride
    amps = state.amplitudes
    out = amps.copy()
    c, s = _pulse_coeffs(theta)
    # exp(-i theta sigma_x) = cos(theta) I - i sin(theta) sigma_x on the atom
    out[up] = c * amps[up] - 1j * s * amps[down]
    out[down] = c * amps[down] - 1j * s * amps[up]
    return StateVector(layout, out).check_normalized(1e-9)


def full_passage(model: ChainModel) -> StateVector:
    """Stepwise crossing of the whole chain."""
    state = initial_state(model)
    for atom in model.atoms:
        state = passage_step(state, atom, theta=model.theta)
    return state


def closed_form_final(model: ChainModel) -> StateVector:
    """Final state built directly: a1|u0>|u..u> + a2 prod_i (-i sigma_x^i
    pulse) |d0>|..>; reduces to a2 (-i)^N |d0>|d..d> at theta = pi/2."""
    layout = model.layout
    c, s = _pulse_coeffs(model.theta)
    flipped = np.array([c, -1j * s], dtype=complex)
    branch2 = np.array([1.0], dtype=complex)
    for _ in range(model.n_atoms):
        branch2 = np.kron(branch2, flipped)
    amps = np.zeros(layout.dim, dtype=complex)
    half = layout.dim // 2
    amps[0] = model.a1
    amps[half:] = model.a2 * branch2
    return StateVector(layout, amps).check_normalized(1e-9)


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


def it_operator(atoms: int | Sequence[str], system: str = SYSTEM_LABEL) -> PauliSum:
    """Joint interference-term operator X_system prod_i Y_i."""
    labels = _as_labels(atoms)
    if not labels:
        raise ValueError("interference operator needs at least one atom")
    letters = {system: "X"}
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
                 system_labels: Sequence[str] = (SYSTEM_LABEL,),
                 tol: float = DEFAULT_TOL) -> StrictMeasurementReport:
    """Strictness report for a system observable q against an apparatus
    observable q_o; exact measurement means delta = 0."""
    sys_set = set(system_labels)
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
