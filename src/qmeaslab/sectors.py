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
with the mixture the even one of psi+/- = a1 chi1 +/- a2 chi2 (`_phase_pair`),
so the deviation is the interference term (<Q>_psi+ - <Q>_psi-) / 2 itself.
A diagonal member d reads it from one diagonal as |d . w|, with the branches'
cross weights w (`_cross_weights`).

Observables come as Pauli sums, dense arrays, or factored
`KronObservable`s S (x) diag(f).  A closed family's factored members are
stacked and evaluated by one batched kernel; no dim x dim array is built
for them.  The stack keeps each distinct system factor and each distinct
diagonal row once (keyed on their bytes) and each member as a pair of ids,
so the products, spectral norms and Gram contractions of the factors run
once per distinct factor, and each distinct (system, diagonal) pair is
normed and evaluated once, not once per member.  A member that lives on
two basis states {r, p} of the trailing factor (`_TwoIndexObservable`,
such as the radiation model's vacuum connector) is kept as its (2s, 2s)
block, and so is each of its products with a factored member:
S (x) diag(f) maps C^s (x) span{r, p} into itself.  Those blocks are
stacked too, with one batched SVD for their norms and the branches' (s, 2)
slices for their deviations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .hilbert import (DEFAULT_TOL, BranchDecomposition, DensityMatrix,
                      HilbertLayout, StateError, StateVector, check_dense_dim)
from .pauli import (OperatorError, PauliString, PauliSum, all_strings, apply_sum,
                    expectation, format_string, hermitian_part,
                    string_matrix, sum_matrix, sup_norm_estimate,
                    _check_hermitian, _check_qubit_support, _diagonal_values,
                    _flip_permutation, _flips, _is_z_diagonal, _real_part)

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
    check_dense_dim(layout, "projector")
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
        _check_hermitian(p, DEFAULT_TOL, "pointer")
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


@dataclass(frozen=True, eq=False)
class _TwoIndexObservable:
    """An operator on C^s (x) span{|r>, |p>}, zero off that span, where
    `index` = (r, p) are two distinct basis indices of the layout's
    trailing factor: `block` is its (2s, 2s) matrix, ordered as
    np.kron(system, field) with r before p."""

    block: np.ndarray
    index: tuple[int, int]


# entries of one block of a factored kernel's row sums: a few MB of
# temporaries however many members a family stacks
_ROW_BLOCK = 2 ** 16

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


def _phase_pair(branches: BranchDecomposition) -> tuple[StateVector, StateVector]:
    """psi+/- = a1 chi1 +/- a2 chi2, summed as `BranchDecomposition.state`
    sums them (one branch: a1 chi1 twice); their even mixture is the branch
    mixture, so <Q>_mix = (<Q>_psi+ + <Q>_psi-) / 2."""
    if len(branches.branches) > 2:
        raise StateError(f"a mixture of {len(branches.branches)} branches has no phase "
                         "pair: pure/mixed deviations take one or two branches")
    (a1, chi1), *rest = branches.branches
    first = np.zeros(branches.layout.dim, dtype=complex) + a1 * chi1.amplitudes
    second = rest[0][0] * rest[0][1].amplitudes if rest else 0.0
    return (StateVector(branches.layout, first + second),
            StateVector(branches.layout, first - second))


def _cross_pair(branches: BranchDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """x = a1 chi1 and y = a2 chi2 (zero for one branch), so psi+/- = x +/- y
    and a Hermitian Q has (<Q>_psi+ - <Q>_psi-) / 2 = 2 Re(x^H Q y)."""
    (a1, chi1), *rest = branches.branches
    x = a1 * chi1.amplitudes
    return x, (rest[0][0] * rest[0][1].amplitudes if rest else np.zeros_like(x))


def _cross_weights(branches: BranchDecomposition) -> np.ndarray:
    """w = 2 Re(conj(a1 chi1) a2 chi2), the phase pair's (|psi+|^2 - |psi-|^2)
    / 2 (zero for one branch), so a diagonal d has deviation |d . w|: 0.0 by
    construction where the branches' supports are disjoint."""
    x, y = _cross_pair(branches)
    return 2.0 * np.real(np.conj(x) * y)


def _kron_values(system: np.ndarray, field: np.ndarray, gram: np.ndarray,
                 sid: np.ndarray | None = None, fid: np.ndarray | None = None
                 ) -> np.ndarray:
    """Expectations of every stacked observable from one Gram array: one
    matmul over the system factors and one weighted row sum per member.
    Member r has system factor system[sid[r]] and diagonal field[fid[r]]
    (with no `sid` or no `fid`, row r of that stack), so a factor shared by
    many members is contracted once.  The row sums run over blocks of at
    most _ROW_BLOCK entries: each row is summed alone, so a member's value
    does not depend on the block it falls in."""
    s, f = system.shape[-1], field.shape[-1]
    values = system.reshape(-1, s * s) @ gram
    field = field.reshape(-1, f)
    n = max(len(values) if sid is None else len(sid), len(field) if fid is None else len(fid))
    out = np.empty(n, dtype=values.dtype)
    step = max(1, _ROW_BLOCK // f)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        out[rows] = np.sum((values[rows] if sid is None else values[sid[rows]])
                           * (field[rows] if fid is None else field[fid[rows]]), axis=1)
    return out


def _kron_deviations(system: np.ndarray, field: np.ndarray, branches: BranchDecomposition,
                     sid: np.ndarray | None = None, fid: np.ndarray | None = None
                     ) -> np.ndarray:
    """|<Q>_pure - <Q>_mix| = |<Q>_psi+ - <Q>_psi-| / 2 (`_phase_pair`) of
    every stacked observable (members as in `_kron_values`), from the real
    parts of both expectations."""
    s, f = system.shape[-1], field.shape[-1]
    plus, minus = (_kron_values(system, field, _kron_gram(v.amplitudes, s, f), sid, fid).real
                   for v in _phase_pair(branches))
    return 0.5 * np.abs(plus - minus)


def _kron_norms(system: np.ndarray, field: np.ndarray, sid: np.ndarray | None = None,
                fid: np.ndarray | None = None) -> np.ndarray:
    """Spectral norms ||S||_2 max|f| (members as in `_kron_values`), exact:
    the singular values of a Kronecker product are the products of the
    factors' singular values.  One SVD per system factor and one max per
    field row."""
    norms = np.linalg.norm(system, ord=2, axis=(-2, -1))
    peaks = np.max(np.abs(field), axis=-1)
    return (norms if sid is None else norms[sid]) * (peaks if fid is None else peaks[fid])


def _kron_skew(system: np.ndarray, field: np.ndarray) -> np.ndarray:
    """||S - S^H||_F ||f|| = ||(S - S^H) (x) diag(f)||_F of every stacked
    observable: zero iff it is Hermitian."""
    return (np.linalg.norm(system - system.conj().swapaxes(-1, -2), axis=(-2, -1))
            * np.linalg.norm(field, axis=-1))


def _block_slices(vec: np.ndarray, s: int, index: np.ndarray) -> np.ndarray:
    """The (2s,) slice v[:, index[m]] of vec as an (s, f) array, one row per
    stacked index pair, in the order of a two-index block."""
    if vec.shape[0] % s or np.max(index) >= vec.shape[0] // s:
        raise OperatorError(f"two-index observable of system dim {s} and field indices "
                            f"up to {np.max(index)} does not match layout dim {vec.shape[0]}")
    v = vec.reshape(s, -1)[:, index]
    return v.transpose(1, 0, 2).reshape(len(index), 2 * s)


def _block_deviations(blocks: np.ndarray, index: np.ndarray,
                      branches: BranchDecomposition) -> np.ndarray:
    """|<Q>_pure - <Q>_mix| = 2|Re(x^H Q y)| (`_cross_pair`) of every stacked
    two-index member: blocks[m] on field indices index[m], read on the (s, 2)
    slices of x and y there."""
    s = blocks.shape[-1] // 2
    x, y = (_block_slices(v, s, index) for v in _cross_pair(branches))
    return 2.0 * np.abs(np.einsum("mi,mij,mj->m", x.conj(), blocks, y).real)


def _block_norms(blocks: np.ndarray) -> np.ndarray:
    """Spectral norms of stacked blocks, which are those of their two-index
    members: one batched SVD over the blocks that are not exactly zero
    (most connector products), whose norm is 0.0."""
    norms = np.zeros(len(blocks))
    live = blocks.reshape(len(blocks), -1).any(axis=1)
    if live.any():
        norms[live] = np.linalg.norm(blocks[live], ord=2, axis=(-2, -1))
    return norms


def _distinct(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct matrices of a stack and the index of each stacked matrix
    among them, keyed on their exact bytes with -0.0 read as 0.0 (`+ 0.0`):
    equal values, so the same spectral norms, and Gram contractions that
    can differ only in the sign of an exact zero, which every deviation
    takes the modulus of."""
    flat = (matrices + 0.0).reshape(len(matrices), -1)
    keys = flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return matrices[first], inverse


@dataclass(frozen=True)
class ObservableSet:
    """A named generating family of Hermitian operators (Pauli sums, dense
    matrices, KronObservables or two-index blocks), optionally closed under
    pairwise products.  Pauli-string generators are stored as one-term
    sums."""

    name: str
    generators: tuple[tuple[str, object], ...]
    closure_depth: int = 2

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(
            (name, PauliSum.from_string(op) if isinstance(op, PauliString) else op)
            for name, op in self.generators))

    def validate(self, tol: float = DEFAULT_TOL) -> "ObservableSet":
        """Raise for the first non-Hermitian generator; the factored ones
        are checked in one stacked call."""
        kron = [op for _, op in self.generators if isinstance(op, KronObservable)]
        kron_ok = iter(())
        if kron:
            kron_ok = iter(_kron_skew(np.stack([op.system for op in kron]),
                                      np.stack([op.field for op in kron])) <= tol)
        for name, op in self.generators:
            ok = next(kron_ok) if isinstance(op, KronObservable) else op_is_hermitian(op, tol)
            if not ok:
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
    if isinstance(op, _TwoIndexObservable):
        s = len(op.block) // 2
        rows = (np.arange(s)[:, None] * (layout.dim // s) + np.array(op.index)).ravel()
        arr = np.zeros((layout.dim, layout.dim), dtype=complex)
        arr[np.ix_(rows, rows)] = op.block
    else:
        arr = op.matrix() if isinstance(op, KronObservable) else np.asarray(op, dtype=complex)
    if arr.shape != (layout.dim, layout.dim):
        raise OperatorError(f"dense operator shape {arr.shape} does not match layout")
    return arr


def op_is_hermitian(op, tol: float = DEFAULT_TOL) -> bool:
    if isinstance(op, PauliSum):
        return op.is_hermitian(tol)
    if isinstance(op, KronObservable):
        return bool(_kron_skew(op.system, op.field) <= tol)
    arr = op.block if isinstance(op, _TwoIndexObservable) else np.asarray(op)
    return bool(np.linalg.norm(arr - arr.conj().T) <= tol)


def _value(op, state: StateVector) -> complex:
    """<state|op|state>: a Pauli sum by its string actions, a factored op
    from one Gram array, a dense op by one product."""
    v = state.amplitudes
    if isinstance(op, PauliSum):
        return complex(np.vdot(v, apply_sum(op, state)))
    if isinstance(op, KronObservable):
        gram = _kron_gram(v, len(op.system), len(op.field))
        return complex(_kron_values(op.system, op.field, gram)[0])
    if isinstance(op, _TwoIndexObservable):
        vb = _block_slices(v, len(op.block) // 2, np.array([op.index]))[0]
        return complex(np.vdot(vb, op.block @ vb))
    return complex(np.vdot(v, np.asarray(op, dtype=complex) @ v))


def op_expectation(op, state: StateVector, tol: float = DEFAULT_TOL) -> float:
    if isinstance(op, PauliSum):
        return expectation(op, state, tol)
    return _real_part(_value(op, state), tol, "expectation")


def op_expectation_mixed(op, branches: BranchDecomposition,
                         tol: float = DEFAULT_TOL) -> float:
    """Expectation in the branch mixture, sum_i |a_i|^2 <chi_i|Q|chi_i>, as the
    mean of its values in psi+ and psi- (`_phase_pair`); the branches are
    validated and the imaginary part is checked against tol."""
    branches.validate(tol)
    if isinstance(op, PauliSum):
        _check_hermitian(op, tol)
    values = [_value(op, v) for v in _phase_pair(branches)]
    return _real_part(0.5 * (values[0] + values[1]), tol, "mixture expectation")


def op_sup_norm(op, layout: HilbertLayout) -> float:
    if isinstance(op, PauliSum):
        return sup_norm_estimate(op, layout)
    if isinstance(op, KronObservable):
        return float(_kron_norms(op.system, op.field))
    if isinstance(op, _TwoIndexObservable):
        return float(_block_norms(op.block[None])[0])
    return float(np.linalg.norm(np.asarray(op, dtype=complex), ord=2))


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
    stacked: the member at position at[r] (ascending) is
    systems[sid[r]] (x) diag(fields[fid[r]]), with (sid, fid)[r] =
    pairs[pid[r]].  `systems` and `fields` hold each distinct system factor
    and field row once, and `pairs` each distinct (system, field) pair once,
    so their work is done once per distinct factor or pair, not once per
    member.  Members on two field indices are stacked as blocks: the member
    at position pair_at[r] is the two-index observable blocks[r] on
    index[r].  Every other member is its own operator in `other`."""

    i: np.ndarray
    j: np.ndarray
    at: np.ndarray
    systems: np.ndarray
    fields: np.ndarray
    pairs: np.ndarray
    pid: np.ndarray
    pair_at: np.ndarray
    blocks: np.ndarray
    index: np.ndarray
    other: dict[int, object]

    @property
    def sid(self) -> np.ndarray:
        return self.pairs[self.pid, 0]

    @property
    def fid(self) -> np.ndarray:
        return self.pairs[self.pid, 1]

    @property
    def system(self) -> np.ndarray:
        """The system factor of every stacked member, one row each."""
        return self.systems[self.sid]

    @property
    def field(self) -> np.ndarray:
        """The field row of every stacked member, one row each."""
        return self.fields[self.fid]


def _closed_factors(gen: np.ndarray, a: np.ndarray, b: np.ndarray,
                    product) -> tuple[np.ndarray, np.ndarray]:
    """The distinct factors among a stack of generator factors and their
    products product(gen[a[p]], gen[b[p]]), and the index among them of each
    generator, then of each product: each distinct pair of distinct
    generator factors (keyed on their bytes) is multiplied once, by one
    batched call."""
    distinct, gid = _distinct(gen)
    u = len(distinct)
    pairs, pair_id = np.unique(gid[a] * u + gid[b], return_inverse=True)
    factors, ids = _distinct(np.concatenate(
        [distinct, product(distinct[pairs // u], distinct[pairs % u])]))
    return factors, ids[np.concatenate([gid, u + pair_id])]


def _herm_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    prod = x @ y
    return 0.5 * (prod + prod.conj().swapaxes(-1, -2))


def _closed_family(allowed: ObservableSet, layout: HilbertLayout) -> _ClosedFamily:
    """The product of two factored members is herm(S_a S_b) (x) (f_a f_b)
    exactly, because real diagonals commute.  The system factors and the
    field rows are each kept once (`_closed_factors`): one batched matmul
    over the distinct pairs of distinct system factors, one elementwise
    product per distinct pair of distinct field rows.  A two-index member
    times a factored member, or times a two-index member on the same pair,
    is a two-index member on that pair (`_pair_blocks`).  Any other product
    goes through `_op_product_hermitian`."""
    gens = [op for _, op in allowed.generators]
    g = len(gens)
    i, j = np.triu_indices(g if allowed.closure_depth >= 2 else 0)
    factored = np.array([isinstance(op, KronObservable) for op in gens], dtype=bool)
    two = np.array([isinstance(op, _TwoIndexObservable) for op in gens], dtype=bool)
    both = factored[i] & factored[j]
    on_pair = (two[i] & (factored[j] | two[j])) | (factored[i] & two[j])
    for p in np.flatnonzero(two[i] & two[j]):
        on_pair[p] = gens[i[p]].index == gens[j[p]].index
    at = np.concatenate([np.flatnonzero(factored), g + np.flatnonzero(both)])
    pair_at = np.concatenate([np.flatnonzero(two), g + np.flatnonzero(on_pair)])
    other = {k: op for k, op in enumerate(gens) if not (factored[k] or two[k])}
    for p in np.flatnonzero(~(both | on_pair)):
        other[g + int(p)] = _op_product_hermitian(gens[i[p]], gens[j[p]], layout)
    kron = [op for op in gens if isinstance(op, KronObservable)]
    kron_system = np.stack([op.system for op in kron]) if kron else np.empty((0, 0, 0))
    kron_field = np.stack([op.field for op in kron]) if kron else np.empty((0, 0))
    systems, fields = np.empty((0, 0, 0)), np.empty((0, 0))
    pairs, pid = np.empty((0, 2), dtype=np.intp), np.empty(0, dtype=np.intp)
    row = np.cumsum(factored) - 1  # stack row of each factored generator
    if kron:
        a, b = row[i[both]], row[j[both]]
        systems, sid = _closed_factors(kron_system, a, b, _herm_product)
        fields, fid = _closed_factors(kron_field, a, b, np.multiply)
        keys, pid = np.unique(sid * len(fields) + fid, return_inverse=True)
        pairs = np.stack([keys // len(fields), keys % len(fields)], axis=1)
    blocks, index = np.empty((0, 0, 0), dtype=complex), np.empty((0, 2), dtype=np.intp)
    if two.any():
        blocks, index = _pair_blocks(gens, i[on_pair], j[on_pair], row,
                                     kron_system, kron_field)
    return _ClosedFamily(i, j, at, systems, fields, pairs, pid, pair_at, blocks, index, other)


def _pair_blocks(gens: list, a: np.ndarray, b: np.ndarray, row: np.ndarray,
                 kron_system: np.ndarray, kron_field: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Blocks and index pairs of the two-index generators, then of
    herm(G_a[m] G_b[m]) for each product on a pair: one batched matmul of
    the operands' blocks on that pair.  The factored generator in stack row
    row[k] (systems `kron_system`, diagonals `kron_field`) maps
    C^s (x) span{r, p} into itself, as kron(S, diag(f[[r, p]]))."""
    pairs = np.array([op.index if isinstance(op, _TwoIndexObservable) else (-1, -1)
                      for op in gens], dtype=np.intp)
    two = np.flatnonzero(pairs[:, 0] >= 0)
    own = np.stack([gens[k].block for k in two])
    s = own.shape[-1] // 2
    index = np.where(pairs[a] >= 0, pairs[a], pairs[b])

    def operands(ks: np.ndarray) -> np.ndarray:
        out = np.empty((len(ks), s, 2, s, 2), dtype=complex)
        kron = pairs[ks, 0] < 0
        if kron.any():
            r = row[ks[kron]]
            diag = kron_field[r[:, None], index[kron]][:, :, None] * np.eye(2)
            out[kron] = kron_system[r][:, :, None, :, None] * diag[:, None, :, None, :]
        out[~kron] = own[np.searchsorted(two, ks[~kron])].reshape(-1, s, 2, s, 2)
        return out.reshape(len(ks), 2 * s, 2 * s)

    prod = operands(a) @ operands(b)
    return (np.concatenate([own, 0.5 * (prod + prod.conj().swapaxes(-1, -2))]),
            np.concatenate([pairs[two], index]))


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
    its exact spectral norm), with `pure` the superposition of the one or two
    branches to tol, as |<Q>_psi+ - <Q>_psi-| / 2 (`_phase_pair`).  Members
    of norm <= tol are skipped; the first member reaching the maximum is the
    witness, and only its name is formatted.  Distinguishable iff the maximum
    exceeds tol."""
    return _prefix_verdicts(pure, branches, allowed, (len(allowed.generators),), tol)[0]


def _prefix_verdicts(pure: StateVector, branches: BranchDecomposition,
                     allowed: ObservableSet, prefixes: Sequence[int],
                     tol: float = DEFAULT_TOL) -> list[DiscriminationVerdict]:
    """`discriminate` over the family of each leading run of n generators,
    for each n in `prefixes`, from one pass over the whole closed family.
    The family of the first n generators is, in the same sweep order, the
    members whose generator indices are all below n (np.triu_indices is
    row-major), and each member's deviation is its own, so each verdict,
    witness included, is the one `discriminate` gives for those
    generators alone."""
    if pure.layout.labels != branches.layout.labels:
        raise StateError("pure state and mixture live on different layouts")
    if not allowed.generators:
        raise OperatorError(f"observable set {allowed.name!r} is empty")
    branches.validate(tol)
    plus, minus = _phase_pair(branches)
    residual = float(np.linalg.norm(pure.amplitudes - plus.amplitudes))
    if residual > tol:
        raise StateError(f"pure state is not its branches' superposition: {residual!r} > {tol}")
    allowed.validate(tol)
    family = _closed_family(allowed, pure.layout)
    names = [name for name, _ in allowed.generators]
    g = len(names)
    devs = np.zeros(g + family.i.size)
    stacked = []
    if family.at.size:
        sid, fid = family.pairs.T  # each distinct pair once, then gathered
        norms = _kron_norms(family.systems, family.fields, sid, fid)
        diff = _kron_deviations(family.systems, family.fields, branches, sid, fid)
        stacked.append((family.at, norms[family.pid], diff[family.pid]))
    if family.pair_at.size:
        stacked.append((family.pair_at, _block_norms(family.blocks),
                        _block_deviations(family.blocks, family.index, branches)))
    for at, norms, diff in stacked:
        seen = norms > tol
        devs[at[seen]] = diff[seen] / norms[seen]
    cross = _cross_weights(branches)
    for k, op in family.other.items():
        if isinstance(op, PauliSum) and _is_z_diagonal(op):
            diag = _diagonal_values(op, pure.layout)  # norm max|d|, deviation |d . w|
            norm = np.max(np.abs(diag))
            if norm > tol:
                devs[k] = abs(diag.real @ cross) / norm
            continue
        norm = op_sup_norm(op, pure.layout)
        if norm > tol:
            devs[k] = 0.5 * abs(op_expectation(op, plus, tol=np.inf)
                                - op_expectation(op, minus, tol=np.inf)) / norm
    verdicts = []
    for n in prefixes:
        # deviations are >= 0, so a member outside the prefix, read as -1, never wins
        sweep = devs if n >= g else np.where(
            np.concatenate([np.arange(g) < n, family.j < n]), devs, -1.0)
        k = int(np.argmax(sweep))
        best = float(devs[k])
        if best <= tol:
            verdicts.append(DiscriminationVerdict(best, None))
            continue
        p = k - g
        verdicts.append(DiscriminationVerdict(best, names[k] if p < 0 else
                                              f"herm({names[family.i[p]]}*{names[family.j[p]]})"))
    return verdicts


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
    from .chain import SYSTEM_LABEL, _Z_SYSTEM, atom_labels, it_operator, pointer_operator

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
        sec = joint_sectors([_Z_SYSTEM, mu], layout)
        return restricted_algebra(sec, pool, tol)
    raise ValueError(f"unknown observable preset {name!r}; expected one of "
                     f"{', '.join(CHAIN_PRESETS)}")
