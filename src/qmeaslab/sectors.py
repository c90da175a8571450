"""Sector decompositions, restricted observable algebras, and the operational
pure/mixed discrimination engine.

A sector decomposition is a complete family of orthogonal projectors.
Observables that commute with every projector cannot see coherences between
sectors; the discrimination verdict makes that operational by maximizing
|<Q>_pure - sum_i |a_i|^2 <chi_i|Q|chi_i>| over an allowed observable family,
with the branch mixture kept as its branch vectors chi_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import (DEFAULT_DENSE_CAP, DEFAULT_TOL, BranchDecomposition,
                      DensityMatrix, DimensionCapError, HilbertLayout,
                      StateError, StateVector)
from .pauli import (OperatorError, PauliString, PauliSum, all_strings,
                    apply_sum, expectation, format_sum, hermitian_part,
                    string_matrix, sum_matrix, sup_norm_estimate,
                    _diagonal_values, _is_z_diagonal, _permutation_action)

DEGENERACY_TOL = 1e-9

CHAIN_PRESETS = ("all_strings", "sector_preserving", "pointer_only", "with_B")


class SectorError(ValueError):
    """Invalid sector decomposition or projector."""


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector, stored as a basis mask (diagonal) or a dense
    matrix.  Masks stay exact at any dimension; matrices obey the dense cap."""

    layout: HilbertLayout
    mask: np.ndarray | None = None
    matrix: np.ndarray | None = None
    name: str = "P"

    def __post_init__(self):
        if (self.mask is None) == (self.matrix is None):
            raise SectorError("projector needs exactly one of mask or matrix")
        if self.mask is not None:
            m = np.asarray(self.mask, dtype=bool).copy()
            if m.shape != (self.layout.dim,):
                raise SectorError("mask length does not match layout dimension")
            m.setflags(write=False)
            object.__setattr__(self, "mask", m)
        else:
            mat = np.asarray(self.matrix, dtype=complex).copy()
            d = self.layout.dim
            if mat.shape != (d, d):
                raise SectorError("projector matrix shape does not match layout")
            mat.setflags(write=False)
            object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_mask(cls, layout: HilbertLayout, mask, name: str = "P") -> "Projector":
        return cls(layout, mask=np.asarray(mask, dtype=bool), name=name)

    @classmethod
    def from_matrix(cls, layout: HilbertLayout, matrix, name: str = "P") -> "Projector":
        return cls(layout, matrix=matrix, name=name)

    @classmethod
    def from_span(cls, states: Sequence[StateVector], name: str = "P") -> "Projector":
        if not states:
            raise SectorError("span projector needs at least one state")
        layout = states[0].layout
        vecs = np.column_stack([s.amplitudes for s in states])
        q, _ = np.linalg.qr(vecs)
        return cls(layout, matrix=q @ q.conj().T, name=name)

    @property
    def rank(self) -> int:
        if self.mask is not None:
            return int(self.mask.sum())
        return int(round(float(np.real(np.trace(self.matrix)))))

    def apply_vec(self, vec: np.ndarray) -> np.ndarray:
        if self.mask is not None:
            return np.where(self.mask, vec, 0.0)
        return self.matrix @ vec

    def conjugate(self, rho: np.ndarray) -> np.ndarray:
        """P rho P."""
        if self.mask is not None:
            keep = self.mask.astype(float)
            return rho * np.outer(keep, keep)
        return self.matrix @ rho @ self.matrix

    def to_matrix(self, dense_cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
        if self.matrix is not None:
            return np.asarray(self.matrix)
        if self.layout.dim > dense_cap:
            raise DimensionCapError(
                f"dense projector of dim {self.layout.dim} exceeds cap {dense_cap}")
        return np.diag(self.mask.astype(complex))

    def idempotency_residual(self) -> float:
        if self.mask is not None:
            return 0.0
        return float(np.linalg.norm(self.matrix @ self.matrix - self.matrix))

    def commutes_with(self, op, tol: float = DEFAULT_TOL,
                      dense_cap: int = DEFAULT_DENSE_CAP) -> bool:
        """Exact permutation test for single strings on masks; dense
        commutator (under the cap) otherwise."""
        if self.mask is not None and isinstance(op, PauliString):
            pi, _ = _permutation_action(op, self.layout)
            return bool(np.array_equal(self.mask[pi], self.mask))
        if self.mask is not None and isinstance(op, PauliSum):
            termwise = all(self.commutes_with(s, tol, dense_cap)
                           for _, s in op.terms)
            # termwise preservation is sufficient, and exact for one term
            if termwise or len(op.terms) == 1:
                return termwise
        p = self.to_matrix(dense_cap)
        q = as_matrix(op, self.layout, dense_cap)
        return float(np.linalg.norm(p @ q - q @ p)) <= tol


@dataclass(frozen=True)
class SectorDecomposition:
    """Orthogonal projectors summing to identity, one per sector, labeled by
    the pointer eigenvalue they collect (when known)."""

    layout: HilbertLayout
    projectors: tuple[Projector, ...]
    eigenvalues: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "projectors", tuple(self.projectors))
        if self.eigenvalues is not None:
            object.__setattr__(self, "eigenvalues", tuple(self.eigenvalues))
            if len(self.eigenvalues) != len(self.projectors):
                raise SectorError("one eigenvalue per projector required")

    def validate(self, tol: float = DEFAULT_TOL,
                 dense_cap: int = DEFAULT_DENSE_CAP) -> "SectorDecomposition":
        if not self.projectors:
            raise SectorError("empty sector decomposition")
        if all(p.mask is not None for p in self.projectors):
            total = np.zeros(self.layout.dim, dtype=int)
            for p in self.projectors:
                total += p.mask.astype(int)
            if not np.array_equal(total, np.ones_like(total)):
                raise SectorError("masks do not partition the basis")
            return self
        mats = [p.to_matrix(dense_cap) for p in self.projectors]
        eye = np.eye(self.layout.dim)
        if float(np.linalg.norm(sum(mats) - eye)) > tol:
            raise SectorError("projectors do not sum to identity")
        for i, a in enumerate(mats):
            if float(np.linalg.norm(a @ a - a)) > tol:
                raise SectorError(f"projector {i} is not idempotent")
            for b in mats[i + 1:]:
                if float(np.linalg.norm(a @ b)) > tol:
                    raise SectorError("projectors are not mutually orthogonal")
        return self

    def completeness_residual(self, dense_cap: int = DEFAULT_DENSE_CAP) -> float:
        if all(p.mask is not None for p in self.projectors):
            total = sum(p.mask.astype(float) for p in self.projectors)
            return float(np.linalg.norm(total - 1.0))
        mats = [p.to_matrix(dense_cap) for p in self.projectors]
        return float(np.linalg.norm(sum(mats) - np.eye(self.layout.dim)))


def _group_values(values: np.ndarray, tol: float) -> list[tuple[float, np.ndarray]]:
    order = np.argsort(-values)
    groups: list[tuple[float, list[int]]] = []
    for idx in order:
        v = float(values[idx])
        if groups and abs(groups[-1][0] - v) <= tol:
            groups[-1][1].append(int(idx))
        else:
            groups.append((v, [int(idx)]))
    return [(v, np.array(ix, dtype=int)) for v, ix in groups]


def pointer_sectors(pointer: PauliSum, layout: HilbertLayout,
                    degeneracy_tol: float = DEGENERACY_TOL,
                    tol: float = DEFAULT_TOL,
                    dense_cap: int = DEFAULT_DENSE_CAP) -> SectorDecomposition:
    """Spectral projectors of a Hermitian pointer, grouped by eigenvalue
    (descending).  {I,Z}-supported pointers use the exact diagonal path."""
    if not pointer.is_hermitian(tol):
        raise OperatorError(f"pointer is not Hermitian: {format_sum(pointer)}")
    if _is_z_diagonal(pointer):
        diag = np.real(_diagonal_values(pointer, layout))
        projectors, eigenvalues = [], []
        for v, idx in _group_values(diag, degeneracy_tol):
            mask = np.zeros(layout.dim, dtype=bool)
            mask[idx] = True
            projectors.append(Projector.from_mask(layout, mask, name=f"P({v:g})"))
            eigenvalues.append(v)
        return SectorDecomposition(layout, tuple(projectors), tuple(eigenvalues))
    mat = sum_matrix(pointer, layout, dense_cap)
    vals, vecs = np.linalg.eigh(mat)
    projectors, eigenvalues = [], []
    for v, idx in _group_values(vals, degeneracy_tol):
        block = vecs[:, idx]
        projectors.append(Projector.from_matrix(layout, block @ block.conj().T,
                                                name=f"P({v:g})"))
        eigenvalues.append(v)
    return SectorDecomposition(layout, tuple(projectors), tuple(eigenvalues))


def joint_sectors(pointers: Sequence[PauliSum], layout: HilbertLayout,
                  degeneracy_tol: float = DEGENERACY_TOL) -> SectorDecomposition:
    """Joint eigenvalue sectors of a commuting {I,Z}-supported family."""
    if not pointers:
        raise SectorError("joint_sectors needs at least one pointer")
    for p in pointers:
        if not _is_z_diagonal(p):
            raise SectorError("joint sectors are implemented for Z-diagonal pointers")
    diags = [np.real(_diagonal_values(p, layout)) for p in pointers]
    keys = {}
    for i in range(layout.dim):
        key = tuple(round(float(d[i]) / degeneracy_tol) for d in diags)
        keys.setdefault(key, []).append(i)
    projectors = []
    for key in sorted(keys, reverse=True):
        mask = np.zeros(layout.dim, dtype=bool)
        mask[keys[key]] = True
        vals = ",".join(f"{d[keys[key][0]]:g}" for d in diags)
        projectors.append(Projector.from_mask(layout, mask, name=f"P({vals})"))
    return SectorDecomposition(layout, tuple(projectors))


def structure_residual(state: StateVector, projectors: Sequence[Projector],
                       tol: float = DEFAULT_TOL) -> float:
    """||(prod_j P_j) psi - psi||; zero iff psi is a +1 eigenstate of every
    P_j, i.e. the structure-conservation condition holds."""
    for p in projectors:
        r = p.idempotency_residual()
        if r > tol:
            raise SectorError(f"projector {p.name} not idempotent (residual {r})")
    vec = state.amplitudes
    for p in projectors:
        vec = p.apply_vec(vec)
    return float(np.linalg.norm(vec - state.amplitudes))


def sector_decohere(rho: DensityMatrix, sectors: SectorDecomposition,
                    tol: float = DEFAULT_TOL) -> DensityMatrix:
    """sum_k P_k rho P_k: deletes intersector coherences, preserves trace,
    idempotent."""
    sectors.validate(tol)
    out = np.zeros_like(rho.matrix)
    for p in sectors.projectors:
        out = out + p.conjugate(rho.matrix)
    return DensityMatrix(rho.layout, out)


# ---------------------------------------------------------------------------
# observable families

@dataclass(frozen=True)
class ObservableSet:
    """A named generating family of Hermitian operators (Pauli sums or dense
    matrices), optionally closed under pairwise products."""

    name: str
    generators: tuple[tuple[str, object], ...]
    closure_depth: int = 2

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))

    def validate(self, layout: HilbertLayout, tol: float = DEFAULT_TOL,
                 dense_cap: int = DEFAULT_DENSE_CAP) -> "ObservableSet":
        for name, op in self.generators:
            if not op_is_hermitian(op, tol):
                raise OperatorError(f"generator {name!r} is not Hermitian")
        return self

    def __len__(self) -> int:
        return len(self.generators)


def as_matrix(op, layout: HilbertLayout,
              dense_cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    if isinstance(op, PauliString):
        return string_matrix(op, layout, dense_cap)
    if isinstance(op, PauliSum):
        return sum_matrix(op, layout, dense_cap)
    arr = np.asarray(op, dtype=complex)
    if arr.shape != (layout.dim, layout.dim):
        raise OperatorError(f"dense operator shape {arr.shape} does not match layout")
    return arr


def op_is_hermitian(op, tol: float = DEFAULT_TOL) -> bool:
    if isinstance(op, PauliString):
        return op.is_hermitian()
    if isinstance(op, PauliSum):
        return op.is_hermitian(tol)
    arr = np.asarray(op)
    return bool(np.linalg.norm(arr - arr.conj().T) <= tol)


def op_expectation(op, state: StateVector, tol: float = DEFAULT_TOL) -> float:
    if isinstance(op, PauliString):
        op = PauliSum.from_string(op)
    if isinstance(op, PauliSum):
        return expectation(op, state, tol)
    arr = np.asarray(op, dtype=complex)
    val = complex(np.vdot(state.amplitudes, arr @ state.amplitudes))
    if abs(val.imag) > tol:
        raise OperatorError(f"expectation has imaginary part {val.imag}")
    return float(val.real)


def _branch_mean(op, branches: BranchDecomposition) -> complex:
    """sum_i |a_i|^2 <chi_i|op|chi_i>: one kernel application per branch."""
    total = 0.0 + 0.0j
    for a, chi in branches.branches:
        if isinstance(op, PauliSum):
            image = apply_sum(op, chi)
        else:
            image = np.asarray(op, dtype=complex) @ chi.amplitudes
        total += abs(a) ** 2 * np.vdot(chi.amplitudes, image)
    return complex(total)


def op_expectation_mixed(op, branches: BranchDecomposition,
                         tol: float = DEFAULT_TOL) -> float:
    """Expectation in the branch mixture, sum_i |a_i|^2 <chi_i|Q|chi_i>,
    evaluated on the branch vectors (no density matrix); the branches are
    validated and the imaginary part is checked against tol."""
    branches.validate(tol)
    if isinstance(op, PauliString):
        op = PauliSum.from_string(op)
    if isinstance(op, PauliSum) and not op.is_hermitian(tol):
        raise OperatorError(f"operator is not Hermitian: {format_sum(op)}")
    val = _branch_mean(op, branches)
    if abs(val.imag) > tol:
        raise OperatorError(f"mixture expectation has imaginary part {val.imag}")
    return float(val.real)


def op_sup_norm(op, layout: HilbertLayout,
                dense_cap: int = DEFAULT_DENSE_CAP) -> float:
    if isinstance(op, PauliString):
        return 1.0
    if isinstance(op, PauliSum):
        return sup_norm_estimate(op, layout, dense_cap)
    return float(np.linalg.norm(np.asarray(op, dtype=complex), ord=2))


def _op_product_hermitian(a, b, layout: HilbertLayout, dense_cap: int):
    """Hermitian part of a*b, staying in the Pauli algebra when possible."""
    if isinstance(a, PauliSum) and isinstance(b, PauliSum):
        return hermitian_part(a @ b)
    prod = as_matrix(a, layout, dense_cap) @ as_matrix(b, layout, dense_cap)
    return 0.5 * (prod + prod.conj().T)


def _closed_family(allowed: ObservableSet, layout: HilbertLayout,
                   dense_cap: int) -> list[tuple[str, object]]:
    gens = [(name, op if not isinstance(op, PauliString) else PauliSum.from_string(op))
            for name, op in allowed.generators]
    family = list(gens)
    if allowed.closure_depth >= 2:
        for (na, a), (nb, b) in itertools.combinations_with_replacement(gens, 2):
            prod = _op_product_hermitian(a, b, layout, dense_cap)
            family.append((f"herm({na}*{nb})", prod))
    return family


@dataclass(frozen=True)
class DiscriminationVerdict:
    """Outcome of a pure-vs-mixed sweep over an allowed observable family."""

    max_deviation: float
    witness_name: str | None
    distinguishable: bool
    witness: object | None = None

    def __post_init__(self):
        if self.distinguishable != (self.witness_name is not None):
            raise StateError("witness must be present iff distinguishable")


def discriminate(pure: StateVector, branches: BranchDecomposition,
                 allowed: ObservableSet, tol: float = DEFAULT_TOL,
                 dense_cap: int = DEFAULT_DENSE_CAP) -> DiscriminationVerdict:
    """Maximize |<Q>_pure - sum_i |a_i|^2 <chi_i|Q|chi_i>| over the allowed
    family (generators plus pairwise Hermitian products, each normalized by
    a sup-norm estimate), with the mixture given by its branches.
    Distinguishable iff the maximum exceeds tol."""
    if pure.layout.labels != branches.layout.labels:
        raise StateError("pure state and mixture live on different layouts")
    if not allowed.generators:
        raise OperatorError(f"observable set {allowed.name!r} is empty")
    branches.validate(tol)
    allowed.validate(pure.layout, tol, dense_cap)
    best = 0.0
    best_name: str | None = None
    best_op: object | None = None
    for name, op in _closed_family(allowed, pure.layout, dense_cap):
        norm = op_sup_norm(op, pure.layout, dense_cap)
        if norm <= tol:
            continue
        dev = abs(op_expectation(op, pure, tol=np.inf)
                  - _branch_mean(op, branches).real) / norm
        if dev > best:
            best, best_name, best_op = dev, name, op
    distinguishable = best > tol
    return DiscriminationVerdict(best,
                                 best_name if distinguishable else None,
                                 distinguishable,
                                 best_op if distinguishable else None)


def restricted_algebra(sectors: SectorDecomposition, candidate_pool: ObservableSet,
                       tol: float = DEFAULT_TOL,
                       dense_cap: int = DEFAULT_DENSE_CAP) -> ObservableSet:
    """Sub-family of candidates commuting with every sector projector (the
    sector-preserving observables)."""
    kept = []
    for name, op in candidate_pool.generators:
        if all(p.commutes_with(op, tol, dense_cap) for p in sectors.projectors):
            kept.append((name, op))
    return ObservableSet(name=f"{candidate_pool.name}/sector-preserving",
                         generators=tuple(kept),
                         closure_depth=candidate_pool.closure_depth)


# ---------------------------------------------------------------------------
# named presets over one measurement chain

def chain_observable_preset(name: str, n_atoms: int,
                            tol: float = DEFAULT_TOL,
                            dense_cap: int = DEFAULT_DENSE_CAP) -> ObservableSet:
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
        gens = tuple((format_sum(PauliSum.from_string(s)), PauliSum.from_string(s))
                     for s in all_strings(labels))
        pool = ObservableSet("all_strings", gens, closure_depth=1)
        if name == "all_strings":
            return pool
        layout = HilbertLayout.qubits(labels)
        z0 = PauliSum.from_string(PauliString.single(SYSTEM_LABEL, "Z"))
        sec = joint_sectors([z0, mu], layout)
        return restricted_algebra(sec, pool, tol, dense_cap)
    raise ValueError(f"unknown observable preset {name!r}; expected one of "
                     f"{', '.join(CHAIN_PRESETS)}")
