"""Sector decompositions, restricted observable algebras, and the operational
pure/mixed discrimination engine.

A sector decomposition is a partition of the computational basis: one
sector label per basis state, and one mask projector per sector.  Whether
an operator keeps every sector is one rule, `_keeps_sectors`, run on a mask
by `Projector.commutes_with` and on the labels by `restricted_algebra`,
which shares its memo across the pool: one label test per flip pattern.
Observables that commute with every projector cannot see coherences between
sectors; the discrimination verdict makes that operational by maximizing
|<Q>_pure - sum_i |a_i|^2 <chi_i|Q|chi_i>| over an allowed observable family,
with the branch mixture kept as its branch vectors chi_i.  Both sides are
one weighted mean, `_mean`, with weight 1 or |a_i|^2.

Observables come as Pauli sums, dense arrays, or factored
`KronObservable`s S (x) diag(f).  A closed family's factored members are
stacked and evaluated by one batched kernel; no dim x dim array is built
for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .hilbert import (DEFAULT_TOL, BranchDecomposition, DensityMatrix,
                      HilbertLayout, StateError, StateVector, check_dense_dim)
from .pauli import (OperatorError, PauliString, PauliSum, all_strings,
                    apply_sum, expectation, format_string, format_sum,
                    hermitian_part, string_matrix, sum_matrix, sup_norm_estimate,
                    _check_qubit_support, _diagonal_values, _flip_permutation,
                    _flips, _is_z_diagonal, _real_part)

DEGENERACY_TOL = 1e-9

CHAIN_PRESETS = ("all_strings", "sector_preserving", "pointer_only", "with_B")


class SectorError(ValueError):
    """Invalid sector decomposition or projector."""


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector onto the basis states of a mask.  Exact at any
    dimension; its dense realization obeys the dense cap."""

    layout: HilbertLayout
    mask: np.ndarray
    name: str = "P"

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool).copy()
        if m.shape != (self.layout.dim,):
            raise SectorError("mask length does not match layout dimension")
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)

    @property
    def rank(self) -> int:
        return int(self.mask.sum())

    def apply_vec(self, vec: np.ndarray) -> np.ndarray:
        return np.where(self.mask, vec, 0.0)

    def to_matrix(self) -> np.ndarray:
        check_dense_dim(self.layout, "projector")
        return np.diag(self.mask.astype(complex))

    def commutes_with(self, op, tol: float = DEFAULT_TOL) -> bool:
        """Exact permutation test for strings and term by term for sums;
        dense commutator (under the cap) otherwise: see `_keeps_sectors`."""
        return _keeps_sectors(self.mask, (self,), op, self.layout, tol, {})


@dataclass(frozen=True, eq=False)
class SectorDecomposition:
    """A partition of the basis: `labels[i]` is the sector of basis state i,
    `names[k]` names sector k, and `eigenvalues[k]` is the pointer
    eigenvalue it collects (when known)."""

    layout: HilbertLayout
    labels: np.ndarray
    names: tuple[str, ...]
    eigenvalues: tuple[float, ...] | None = None

    def __post_init__(self):
        labels, names = np.array(self.labels), tuple(self.names)
        if labels.shape != (self.layout.dim,):
            raise SectorError("labels length does not match layout dimension")
        if not np.issubdtype(labels.dtype, np.integer):
            raise SectorError(f"sector labels must be integers, got {labels.dtype}")
        if labels.min() < 0 or labels.max() >= len(names):
            raise SectorError(f"sector labels must lie in 0..{len(names) - 1}")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "names", names)
        if self.eigenvalues is not None:
            object.__setattr__(self, "eigenvalues", tuple(self.eigenvalues))
            if len(self.eigenvalues) != len(names):
                raise SectorError("one eigenvalue per sector required")

    @cached_property
    def projectors(self) -> tuple[Projector, ...]:
        # cached: every restricted_algebra call over these sectors hands them
        # to _keeps_sectors, whose dense fallback multiplies by them
        return tuple(Projector(self.layout, self.labels == k, name)
                     for k, name in enumerate(self.names))


def _keeps_sectors(values: np.ndarray, projectors: Sequence[Projector], op,
                   layout: HilbertLayout, tol: float, memo: dict) -> bool:
    """Whether op commutes with each of `projectors`, the sectors on which
    `values` (a mask, or the sector labels) is constant.  A Pauli string
    does iff its basis permutation, set by its flip pattern alone, keeps
    `values`; a sum does if every term does, which is exact for one term.
    Other sums and any dense or factored op take the dense commutator.
    `memo` is one caller's: flip pattern -> verdict, and each label checked
    as a qubit of the layout -> True."""
    # sums tested first: a restricted_algebra pool holds thousands of them
    terms = (op.terms if isinstance(op, PauliSum)
             else ((1.0, op),) if isinstance(op, PauliString) else None)
    if terms is not None:
        for _, s in terms:
            for label, _ in s.letters:
                if label not in memo:
                    _check_qubit_support((label,), layout)
                    memo[label] = True
        keeps = True
        for _, s in terms:
            flips = _flips(s)
            keeps = memo.get(flips)
            if keeps is None:
                keeps = memo[flips] = bool(np.array_equal(
                    values[_flip_permutation(flips, layout)], values))
            if not keeps:
                break
        if keeps or len(terms) == 1:
            return keeps
    q = as_matrix(op, layout)
    return all(float(np.linalg.norm(p @ q - q @ p)) <= tol
               for p in (proj.to_matrix() for proj in projectors))


def _grouped_sectors(layout: HilbertLayout, values: np.ndarray) -> SectorDecomposition:
    """Sectors of the rows of `values` (one row per basis index, one column
    per pointer) grouped by their entries rounded to DEGENERACY_TOL, in
    descending order, each named and labeled by its first row."""
    _, first, group = np.unique(np.round(values / DEGENERACY_TOL), axis=0,
                                return_index=True, return_inverse=True)
    first = first[::-1]
    names = ["P(" + ",".join(f"{v:g}" for v in values[i]) + ")" for i in first]
    eigenvalues = [float(values[i, 0]) for i in first] if values.shape[1] == 1 else None
    return SectorDecomposition(layout, len(first) - 1 - group.reshape(-1), names,
                               eigenvalues)


def joint_sectors(pointers: Sequence[PauliSum], layout: HilbertLayout) -> SectorDecomposition:
    """Joint eigenvalue sectors of a commuting family of Hermitian
    {I,Z}-supported pointers, in descending order."""
    if not pointers:
        raise SectorError("joint_sectors needs at least one pointer")
    for p in pointers:
        if not _is_z_diagonal(p):
            raise SectorError("joint sectors are implemented for Z-diagonal pointers")
        if not p.is_hermitian():
            raise OperatorError(f"pointer is not Hermitian: {format_sum(p)}")
    return _grouped_sectors(layout, np.stack(
        [np.real(_diagonal_values(p, layout)) for p in pointers], axis=1))


def structure_residual(state: StateVector, projectors: Sequence[Projector]) -> float:
    """||(prod_j P_j) psi - psi||; zero iff psi is a +1 eigenstate of every
    P_j, i.e. the structure-conservation condition holds."""
    vec = state.amplitudes
    for p in projectors:
        vec = p.apply_vec(vec)
    return float(np.linalg.norm(vec - state.amplitudes))


def sector_decohere(rho: DensityMatrix, sectors: SectorDecomposition) -> DensityMatrix:
    """sum_k P_k rho P_k: deletes intersector coherences, preserves trace,
    idempotent."""
    labels = sectors.labels
    return DensityMatrix(rho.layout, np.where(labels[:, None] == labels[None, :],
                                              rho.matrix, 0.0))


# ---------------------------------------------------------------------------
# observable families

@dataclass(frozen=True, eq=False)
class KronObservable:
    """S (x) diag(f): a square matrix S on the leading factor of the layout
    tensored with a real diagonal f on the trailing factor, so the layout
    dimension is len(S) * len(f).  Hermitian iff S is.  `matrix()` is the
    dense reference the factored kernels are checked against."""

    system: np.ndarray
    field: np.ndarray

    def __post_init__(self):
        sys = np.asarray(self.system, dtype=complex)
        field = np.asarray(self.field)
        if (sys.ndim != 2 or sys.shape[0] != sys.shape[1] or field.ndim != 1
                or np.iscomplexobj(field)):
            raise OperatorError("KronObservable needs a square system matrix and a real "
                                f"diagonal, got {sys.shape} and {field.shape} {field.dtype}")
        object.__setattr__(self, "system", sys)
        object.__setattr__(self, "field", field.astype(float))

    def matrix(self) -> np.ndarray:
        return np.kron(self.system, np.diag(self.field.astype(complex)))


# The factored kernels take system factors (..., s, s) and real diagonals
# (..., f): one observable, or a stack of them along a leading axis.

def _kron_gram(vec: np.ndarray, s: int, f: int) -> np.ndarray:
    """conj(v[a, k]) v[b, k] for v = vec as an (s, f) array, one row per
    pair (a, b), so <v|S (x) diag(f)|v> = sum_ab S[a, b] (row_ab . f)."""
    if s * f != vec.shape[0]:
        raise OperatorError(f"factored observable of dim {s} x {f} does not match "
                            f"layout dim {vec.shape[0]}")
    v = vec.reshape(s, f)
    return (v.conj()[:, None, :] * v[None, :, :]).reshape(s * s, f)


def _mixture(branches: BranchDecomposition) -> list[tuple[float, StateVector]]:
    """(|a_i|^2, chi_i): the branch mixture as (weight, vector) pairs."""
    return [(abs(a) ** 2, chi) for a, chi in branches.branches]


def _branch_gram(weighted, s: int, f: int) -> np.ndarray:
    """sum_k w_k (Gram array of v_k) over (weight, vector) pairs: the
    weighted vectors as every factored observable sees them."""
    return sum(w * _kron_gram(v.amplitudes, s, f) for w, v in weighted)


def _kron_values(system: np.ndarray, field: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Expectations of every stacked observable from one Gram array: one
    matmul and one weighted row sum."""
    s, f = system.shape[-1], field.shape[-1]
    return np.sum((system.reshape(-1, s * s) @ gram) * field.reshape(-1, f), axis=1)


def _kron_deviations(system: np.ndarray, field: np.ndarray, pure: StateVector,
                     branches: BranchDecomposition) -> np.ndarray:
    """|<Q>_pure - sum_i |a_i|^2 <chi_i|Q|chi_i>| of every stacked observable,
    from the real parts of both expectations."""
    s, f = system.shape[-1], field.shape[-1]
    mixed = _branch_gram(_mixture(branches), s, f)
    return np.abs(_kron_values(system, field, _kron_gram(pure.amplitudes, s, f)).real
                  - _kron_values(system, field, mixed).real)


def _kron_norms(system: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Spectral norms ||S||_2 max|f|, exact: the singular values of a
    Kronecker product are the products of the factors' singular values."""
    return (np.linalg.norm(system, ord=2, axis=(-2, -1))
            * np.max(np.abs(field), axis=-1))


@dataclass(frozen=True)
class ObservableSet:
    """A named generating family of Hermitian operators (Pauli sums, dense
    matrices or KronObservables), optionally closed under pairwise
    products.  Pauli-string generators are stored as one-term sums."""

    name: str
    generators: tuple[tuple[str, object], ...]
    closure_depth: int = 2

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(
            (name, PauliSum.from_string(op) if isinstance(op, PauliString) else op)
            for name, op in self.generators))

    def validate(self, tol: float = DEFAULT_TOL) -> "ObservableSet":
        for name, op in self.generators:
            if not op_is_hermitian(op, tol):
                raise OperatorError(f"generator {name!r} is not Hermitian")
        return self

    def __len__(self) -> int:
        return len(self.generators)


def as_matrix(op, layout: HilbertLayout) -> np.ndarray:
    """Dense realization; Pauli operators obey the dense cap, a factored
    observable is realized only next to a dense operand of the same size."""
    if isinstance(op, PauliString):
        return string_matrix(op, layout)
    if isinstance(op, PauliSum):
        return sum_matrix(op, layout)
    arr = op.matrix() if isinstance(op, KronObservable) else np.asarray(op, dtype=complex)
    if arr.shape != (layout.dim, layout.dim):
        raise OperatorError(f"dense operator shape {arr.shape} does not match layout")
    return arr


def op_is_hermitian(op, tol: float = DEFAULT_TOL) -> bool:
    if isinstance(op, PauliSum):
        return op.is_hermitian(tol)
    if isinstance(op, KronObservable):
        # ||(S - S^H) (x) diag(f)||_F = ||S - S^H||_F ||f||
        sys = op.system
        return bool(np.linalg.norm(sys - sys.conj().T) * np.linalg.norm(op.field) <= tol)
    arr = np.asarray(op)
    return bool(np.linalg.norm(arr - arr.conj().T) <= tol)


def _mean(op, weighted) -> complex:
    """sum_k w_k <v_k|op|v_k> over (weight, vector) pairs: one kernel
    application per vector, or one weighted Gram array for a factored op."""
    if isinstance(op, KronObservable):
        gram = _branch_gram(weighted, len(op.system), len(op.field))
        return complex(_kron_values(op.system, op.field, gram)[0])
    total = 0.0 + 0.0j
    for w, v in weighted:
        if isinstance(op, PauliSum):
            image = apply_sum(op, v)
        else:
            image = np.asarray(op, dtype=complex) @ v.amplitudes
        total += w * np.vdot(v.amplitudes, image)
    return complex(total)


def op_expectation(op, state: StateVector, tol: float = DEFAULT_TOL) -> float:
    if isinstance(op, PauliSum):
        return expectation(op, state, tol)
    return _real_part(_mean(op, [(1.0, state)]), tol, "expectation")


def op_expectation_mixed(op, branches: BranchDecomposition,
                         tol: float = DEFAULT_TOL) -> float:
    """Expectation in the branch mixture, sum_i |a_i|^2 <chi_i|Q|chi_i>,
    evaluated on the branch vectors (no density matrix); the branches are
    validated and the imaginary part is checked against tol."""
    branches.validate(tol)
    if isinstance(op, PauliSum) and not op.is_hermitian(tol):
        raise OperatorError(f"operator is not Hermitian: {format_sum(op)}")
    return _real_part(_mean(op, _mixture(branches)), tol, "mixture expectation")


def op_sup_norm(op, layout: HilbertLayout) -> float:
    if isinstance(op, PauliSum):
        return sup_norm_estimate(op, layout)
    if isinstance(op, KronObservable):
        return float(_kron_norms(op.system, op.field))
    arr = np.asarray(op, dtype=complex)
    # most products of the vacuum connector vanish exactly: no SVD for them
    return float(np.linalg.norm(arr, ord=2)) if arr.any() else 0.0


def _op_product_hermitian(a, b, layout: HilbertLayout):
    """Hermitian part of a*b, staying in the Pauli algebra when possible."""
    if isinstance(a, PauliSum) and isinstance(b, PauliSum):
        return hermitian_part(a @ b)
    prod = as_matrix(a, layout) @ as_matrix(b, layout)
    return 0.5 * (prod + prod.conj().T)


class _ClosedFamily(NamedTuple):
    """Generators then their pairwise Hermitian products, in sweep order:
    member g + p is herm(G_i[p] G_j[p]) for g generators, the pairs in
    np.triu_indices order.  Members built only from KronObservables are
    stacked: row r of system and field is the member at position at[r]
    (ascending).  Every other member is its own operator in `other`."""

    i: np.ndarray
    j: np.ndarray
    at: np.ndarray
    system: np.ndarray
    field: np.ndarray
    other: dict[int, object]


def _closed_family(allowed: ObservableSet, layout: HilbertLayout) -> _ClosedFamily:
    """The product of two factored members is herm(S_a S_b) (x) (f_a f_b)
    exactly, because real diagonals commute, so all factored products come
    from one batched matmul and one elementwise product; a product with any
    other operator goes through `_op_product_hermitian`."""
    gens = [op for _, op in allowed.generators]
    g = len(gens)
    i, j = np.triu_indices(g if allowed.closure_depth >= 2 else 0)
    factored = np.array([isinstance(op, KronObservable) for op in gens], dtype=bool)
    both = factored[i] & factored[j]
    at = np.concatenate([np.flatnonzero(factored), g + np.flatnonzero(both)])
    other = {k: op for k, op in enumerate(gens) if not factored[k]}
    for p in np.flatnonzero(~both):
        other[g + int(p)] = _op_product_hermitian(gens[i[p]], gens[j[p]], layout)
    kron = [op for op in gens if isinstance(op, KronObservable)]
    system = field = np.empty(0)
    if kron:
        row = np.cumsum(factored) - 1  # stack row of each factored generator
        a, b = row[i[both]], row[j[both]]
        system = np.stack([op.system for op in kron])
        field = np.stack([op.field for op in kron])
        prod = system[a] @ system[b]
        system = np.concatenate([system, 0.5 * (prod + prod.conj().swapaxes(-1, -2))])
        field = np.concatenate([field, field[a] * field[b]])
    return _ClosedFamily(i, j, at, system, field, other)


@dataclass(frozen=True)
class DiscriminationVerdict:
    """Outcome of a pure-vs-mixed sweep over an allowed observable family."""

    max_deviation: float
    witness_name: str | None

    @property
    def distinguishable(self) -> bool:
        return self.witness_name is not None


def discriminate(pure: StateVector, branches: BranchDecomposition,
                 allowed: ObservableSet, tol: float = DEFAULT_TOL) -> DiscriminationVerdict:
    """Maximize |<Q>_pure - sum_i |a_i|^2 <chi_i|Q|chi_i>| over the allowed
    family (generators plus pairwise Hermitian products, each normalized by
    its exact spectral norm), with the mixture given by its branches.  Members
    of norm <= tol are skipped; the first member reaching the maximum is the
    witness, and only its name is formatted.  Distinguishable iff the maximum
    exceeds tol."""
    if pure.layout.labels != branches.layout.labels:
        raise StateError("pure state and mixture live on different layouts")
    if not allowed.generators:
        raise OperatorError(f"observable set {allowed.name!r} is empty")
    branches.validate(tol)
    allowed.validate(tol)
    family = _closed_family(allowed, pure.layout)
    names = [name for name, _ in allowed.generators]
    mixture = _mixture(branches)
    devs = np.zeros(len(names) + family.i.size)
    if family.at.size:
        norms = _kron_norms(family.system, family.field)
        diff = _kron_deviations(family.system, family.field, pure, branches)
        seen = norms > tol
        devs[family.at[seen]] = diff[seen] / norms[seen]
    for k, op in family.other.items():
        norm = op_sup_norm(op, pure.layout)
        if norm > tol:
            devs[k] = abs(op_expectation(op, pure, tol=np.inf)
                          - _mean(op, mixture).real) / norm
    k = int(np.argmax(devs))
    best = float(devs[k])
    if best <= tol:
        return DiscriminationVerdict(best, None)
    p = k - len(names)
    return DiscriminationVerdict(best, names[k] if p < 0 else
                                 f"herm({names[family.i[p]]}*{names[family.j[p]]})")


def restricted_algebra(sectors: SectorDecomposition, candidate_pool: ObservableSet,
                       tol: float = DEFAULT_TOL) -> ObservableSet:
    """Sub-family of candidates commuting with every sector projector (the
    sector-preserving observables): `_keeps_sectors` on the sector labels,
    with one memo for the whole pool, so each flip pattern is tested and
    each label checked once per call."""
    labels, projectors, layout = sectors.labels, sectors.projectors, sectors.layout
    memo: dict = {}
    kept = [(name, op) for name, op in candidate_pool.generators
            if _keeps_sectors(labels, projectors, op, layout, tol, memo)]
    return ObservableSet(name=f"{candidate_pool.name}/sector-preserving",
                         generators=tuple(kept), closure_depth=candidate_pool.closure_depth)


# ---------------------------------------------------------------------------
# named presets over one measurement chain

def chain_observable_preset(name: str, n_atoms: int,
                            tol: float = DEFAULT_TOL) -> ObservableSet:
    """Presets: all_strings, sector_preserving, pointer_only, with_B."""
    from .chain import SYSTEM_LABEL, atom_labels, it_operator, pointer_operator

    atoms = atom_labels(n_atoms)
    labels = (SYSTEM_LABEL,) + atoms
    mu = pointer_operator(atoms)
    if name == "pointer_only":
        return ObservableSet("pointer_only", (("mu_z", mu),))
    if name == "with_B":
        return ObservableSet("with_B", (("mu_z", mu), ("B", it_operator(atoms))))
    if name in ("all_strings", "sector_preserving"):
        gens = tuple((format_string(s), PauliSum.from_string(s))
                     for s in all_strings(labels))
        pool = ObservableSet("all_strings", gens, closure_depth=1)
        if name == "all_strings":
            return pool
        layout = HilbertLayout.qubits(labels)
        z0 = PauliSum.from_string(PauliString.single(SYSTEM_LABEL, "Z"))
        sec = joint_sectors([z0, mu], layout)
        return restricted_algebra(sec, pool, tol)
    raise ValueError(f"unknown observable preset {name!r}; expected one of "
                     f"{', '.join(CHAIN_PRESETS)}")
